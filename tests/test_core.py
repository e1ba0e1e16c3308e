import math

import numpy as np
import pytest

from spinreadout import (
    GateParams,
    SpinInput,
    StateVector,
    Unitary,
    apply,
    basis_index,
    compose,
    rx_mode,
    rz_spin,
    u2_general,
)

from shared import one_hot

SQ2 = 1 / math.sqrt(2)


def test_two_dot_index_map():
    assert [basis_index(s, m, 4) for s in ("up", "down") for m in ("0", "1")] == [0, 1, 2, 3]


def test_three_dot_index_map():
    order = [basis_index(s, m, 6) for s in ("up", "down") for m in ("0", "0p", "1")]
    assert order == [0, 1, 2, 3, 4, 5]


def test_rx_mode_quarter_oscillation_splits_evenly():
    out = apply(rx_mode(math.pi / 4, ("0", "1"), 4), one_hot("up", "0", 4))
    np.testing.assert_allclose(out.amplitudes, [SQ2, 1j * SQ2, 0, 0], atol=1e-12)


def test_rx_mode_zero_angle_is_identity():
    np.testing.assert_array_equal(rx_mode(0.0, ("0", "1"), 4).matrix, np.eye(4))


@pytest.mark.parametrize("spin", ["up", "down"])
def test_rx_mode_half_oscillation_transfers_completely(spin):
    out = apply(rx_mode(math.pi / 2, ("0", "1"), 4), one_hot(spin, "0", 4))
    expected = 1j * one_hot(spin, "1", 4).amplitudes
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)


def test_rx_mode_leaves_third_mode_alone():
    u = rx_mode(1.234, ("0", "0p"), 6)
    out = apply(u, one_hot("down", "1", 6))
    np.testing.assert_allclose(out.amplitudes, one_hot("down", "1", 6).amplitudes, atol=1e-15)


def test_u2_general_matches_ideal_at_ideal_phases():
    # The sign flip on dot 0: only |down;0> changes sign.
    u = u2_general(math.pi / 2, math.pi)
    np.testing.assert_allclose(u.matrix, np.diag([1, 1, -1, 1]), atol=1e-12)
    flipped = apply(u, one_hot("down", "0", 4))
    np.testing.assert_allclose(flipped.amplitudes, [0, 0, -1, 0], atol=1e-12)
    kept = apply(u, one_hot("up", "0", 4))
    np.testing.assert_allclose(kept.amplitudes, [1, 0, 0, 0], atol=1e-12)


def test_u2_general_special_values():
    np.testing.assert_allclose(u2_general(0.0, 0.0).matrix, np.eye(4), atol=1e-15)
    np.testing.assert_allclose(
        u2_general(math.pi / 2, 0.0).matrix, np.diag([1j, 1, 1j, 1]), atol=1e-12
    )


def test_rz_spin_quarter_turn_on_dot0():
    u = rz_spin(-math.pi / 2, "0", 4)
    out = apply(u, one_hot("up", "0", 4))
    np.testing.assert_allclose(out.amplitudes, [-1j, 0, 0, 0], atol=1e-12)
    # acts on the target mode only
    out = apply(u, one_hot("down", "1", 4))
    np.testing.assert_allclose(out.amplitudes, [0, 0, 0, 1], atol=1e-15)


def test_rz_spin_zero_angle_is_identity():
    np.testing.assert_array_equal(rz_spin(0.0, "0", 4).matrix, np.eye(4))


def test_compose_applies_first_listed_first():
    np.testing.assert_array_equal(compose([Unitary(np.eye(4)), Unitary(np.eye(4))]).matrix, np.eye(4))
    # rz on dot 0 then full hop: the phase must ride along to dot 1
    seq = compose([rz_spin(0.7, "0", 4), rx_mode(math.pi / 2, ("0", "1"), 4)])
    out = apply(seq, one_hot("up", "0", 4))
    np.testing.assert_allclose(out.amplitudes, [0, 1j * np.exp(0.7j), 0, 0], atol=1e-12)


def test_apply_identity_returns_same_state():
    rng = np.random.default_rng(3)
    amp = rng.normal(size=4) + 1j * rng.normal(size=4)
    state = StateVector(amp / np.linalg.norm(amp))
    out = apply(Unitary(np.eye(4)), state)
    np.testing.assert_array_equal(out.amplitudes, state.amplitudes)


def test_random_gates_preserve_norm():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        theta = rng.uniform(-2 * math.pi, 2 * math.pi)
        kind = rng.integers(3)
        if kind == 0:
            gate = rx_mode(theta, ("0", "1"), 4)
        elif kind == 1:
            gate = rz_spin(theta, "1", 4)
        else:
            gate = u2_general(theta, rng.uniform(-2 * math.pi, 2 * math.pi))
        amp = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = StateVector(amp / np.linalg.norm(amp))
        out = apply(gate, state)
        assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1.0) <= 1e-12


def test_rx_mode_inverse_and_additivity():
    rng = np.random.default_rng(5)
    for _ in range(50):
        t1, t2 = rng.uniform(-math.pi, math.pi, 2)
        back_forth = compose([rx_mode(t1, ("0", "1"), 4), rx_mode(-t1, ("0", "1"), 4)])
        np.testing.assert_allclose(back_forth.matrix, np.eye(4), atol=1e-12)
        added = compose([rx_mode(t1, ("0", "1"), 4), rx_mode(t2, ("0", "1"), 4)])
        np.testing.assert_allclose(added.matrix, rx_mode(t1 + t2, ("0", "1"), 4).matrix, atol=1e-12)


def test_statevector_is_immutable():
    state = one_hot("up", "0", 4)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def test_spin_input_state_is_normalized_superposition():
    state = SpinInput(math.pi / 3, gamma=1.1).to_state(4)
    np.testing.assert_allclose(
        state.amplitudes,
        [math.cos(math.pi / 6), 0, np.exp(1.1j) * math.sin(math.pi / 6), 0],
        atol=1e-12,
    )


def test_gate_params_ideal():
    assert GateParams.ideal() == GateParams(math.pi / 4, math.pi / 4, math.pi / 2, math.pi)
