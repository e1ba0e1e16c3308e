import math

import numpy as np
import pytest

from spinreadout import (
    GateParams,
    SpinInput,
    StateVector,
    Unitary,
    ValidationError,
    apply,
    basis_index,
    compose,
    rx_mode,
    rz_spin,
    u2_general,
)
from spinreadout.core import MAX_ANGLE

from shared import one_hot

SQ2 = 1 / math.sqrt(2)


def test_two_dot_index_map():
    assert [basis_index(s, m, 4) for s in ("up", "down") for m in ("0", "1")] == [0, 1, 2, 3]


def test_three_dot_index_map():
    order = [basis_index(s, m, 6) for s in ("up", "down") for m in ("0", "0p", "1")]
    assert order == [0, 1, 2, 3, 4, 5]


def test_basis_index_rejects_unknown_labels():
    with pytest.raises(ValidationError, match="spin"):
        basis_index("sideways", "0", 4)
    with pytest.raises(ValidationError, match="0p"):
        basis_index("up", "0p", 4)
    with pytest.raises(ValidationError, match="dim"):
        basis_index("up", "0", 5)


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


def test_rx_mode_rejects_bad_mode_pairs():
    with pytest.raises(ValidationError, match="0p"):
        rx_mode(0.1, ("0", "0p"), 4)
    with pytest.raises(ValidationError, match="distinct"):
        rx_mode(0.1, ("0", "0"), 4)


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


def test_rz_spin_rejects_bad_mode():
    with pytest.raises(ValidationError, match="0p"):
        rz_spin(0.3, "0p", 4)


def test_compose_identity_and_dimension_checks():
    np.testing.assert_array_equal(compose([Unitary(np.eye(4)), Unitary(np.eye(4))]).matrix, np.eye(4))
    with pytest.raises(ValidationError, match="gates"):
        compose([])
    with pytest.raises(ValidationError, match="dim"):
        compose([Unitary(np.eye(4)), Unitary(np.eye(6))])


def test_compose_applies_first_listed_first():
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


def test_apply_rejects_dim_mismatch():
    with pytest.raises(ValidationError, match="dim"):
        apply(Unitary(np.eye(6)), one_hot("up", "0", 4))


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


def test_constructors_produce_certified_unitaries():
    rng = np.random.default_rng(17)
    for _ in range(200):
        theta = rng.uniform(-10, 10)
        for gate in (rx_mode(theta, ("0", "1"), 4), rz_spin(theta, "0", 4)):
            defect = np.max(np.abs(gate.matrix.conj().T @ gate.matrix - np.eye(4)))
            assert defect <= 1e-12


def test_statevector_rejects_bad_input():
    with pytest.raises(ValidationError, match="norm"):
        StateVector(np.array([1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(ValidationError, match="length"):
        StateVector(np.array([1.0, 0.0, 0.0]))


def test_statevector_rejects_nan_amplitude():
    # abs(nan - 1) > ATOL is False, so a guard written that way would accept it
    with pytest.raises(ValidationError, match="amplitudes") as err:
        StateVector(np.array([math.nan, 0, 0, 0]))
    assert err.value.field == "amplitudes"


def test_statevector_is_immutable():
    state = one_hot("up", "0", 4)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def test_unitary_rejects_non_unitary_matrix():
    with pytest.raises(ValidationError, match="unitary"):
        Unitary(np.ones((4, 4)))
    with pytest.raises(ValidationError, match="matrix"):
        Unitary(np.eye(3))


def test_unitary_rejects_nan_matrix():
    with pytest.raises(ValidationError, match="unitary") as err:
        Unitary(np.full((4, 4), math.nan))
    assert err.value.field == "matrix"


def test_unitary_rejects_infinite_matrix():
    with pytest.raises(ValidationError, match="unitary") as err:
        Unitary(np.diag(np.full(4, math.inf)))
    assert err.value.field == "matrix"


@pytest.mark.parametrize("entry", [math.inf, -math.inf, math.nan, 1e200])
def test_unitary_rejects_a_bad_entry_without_warning(entry):
    # One bad entry in an identity: inf * 0 and 1e200 ** 2 in U^dag U would
    # warn, and pytest turns a RuntimeWarning into an error.
    m = np.eye(4, dtype=complex)
    m[1, 2] = entry
    with pytest.raises(ValidationError, match="unitary") as err:
        Unitary(m)
    assert err.value.field == "matrix"


@pytest.mark.parametrize(
    "builder, args, field",
    [
        (rx_mode, (math.inf,), "theta"),
        (rx_mode, (math.nan,), "theta"),
        (u2_general, (math.inf, 0.0), "psi"),
        (u2_general, (0.0, math.nan), "phi"),
        (rz_spin, (math.inf, "0"), "phi"),
        (rz_spin, (math.nan, "0"), "phi"),
    ],
    ids=lambda v: v.__name__ if callable(v) else str(v),
)
def test_gate_builders_reject_a_non_finite_angle_naming_it(builder, args, field):
    with pytest.raises(ValidationError, match="not finite") as err:
        builder(*args)
    assert err.value.field == field


def test_compose_rejects_a_gate_that_is_not_a_unitary():
    with pytest.raises(ValidationError, match="gate 0 is a ndarray") as err:
        compose([np.eye(4)])
    assert err.value.field == "gates"
    with pytest.raises(ValidationError, match="gate 1") as err:
        compose([Unitary(np.eye(4)), np.eye(4)])
    assert err.value.field == "gates"


def test_apply_rejects_a_raw_matrix_or_vector():
    state = one_hot("up", "0", 4)
    with pytest.raises(ValidationError, match="Unitary") as err:
        apply(np.eye(4), state)
    assert err.value.field == "u"
    with pytest.raises(ValidationError, match="StateVector") as err:
        apply(Unitary(np.eye(4)), state.amplitudes)
    assert err.value.field == "s"


def test_spin_input_domain():
    with pytest.raises(ValidationError, match="delta"):
        SpinInput(4.0)
    with pytest.raises(ValidationError, match="delta"):
        SpinInput(-0.1)
    with pytest.raises(ValidationError, match="gamma"):
        SpinInput(0.5, gamma=7.0)


def test_spin_input_state_is_normalized_superposition():
    state = SpinInput(math.pi / 3, gamma=1.1).to_state(4)
    np.testing.assert_allclose(
        state.amplitudes,
        [math.cos(math.pi / 6), 0, np.exp(1.1j) * math.sin(math.pi / 6), 0],
        atol=1e-12,
    )


def test_gate_params_ideal():
    assert GateParams.ideal() == GateParams(math.pi / 4, math.pi / 4, math.pi / 2, math.pi)


@pytest.mark.parametrize("field", ["theta1", "theta2", "psi", "phi"])
@pytest.mark.parametrize(
    "bad",
    [math.nan, math.inf, -math.inf, 1e308, math.nextafter(MAX_ANGLE, math.inf), -math.nextafter(MAX_ANGLE, math.inf)],
)
def test_gate_params_reject_non_finite_angles(field, bad):
    angles = {"theta1": 0.1, "theta2": 0.2, "psi": 0.3, "phi": 0.4, field: bad}
    with pytest.raises(ValidationError, match=field) as excinfo:
        GateParams(**angles)
    assert excinfo.value.field == field
