import math

import numpy as np
import pytest

from spinreadout import (
    GateParams,
    SpinInput,
    apply,
    compose,
    dot_occupancy,
    noisy_sequence,
    occupancies,
    run_readout,
    rx_mode,
    rz_spin,
    three_dot_sequence,
)

from shared import one_hot

SQ2 = 1 / math.sqrt(2)


def test_ideal_sequence_on_equal_superposition():
    state = SpinInput(math.pi / 2, 0.0).to_state(4)
    out = apply(noisy_sequence(GateParams.ideal()), state)
    np.testing.assert_allclose(out.amplitudes, [0, 1j * SQ2, -SQ2, 0], atol=1e-12)


def test_run_readout_deterministic_cases():
    _, probs = run_readout(SpinInput(0.0), GateParams.ideal())
    assert probs.p_up == pytest.approx(1.0, abs=1e-12)
    _, probs = run_readout(SpinInput(math.pi / 2), GateParams.ideal())
    assert probs.p_up == pytest.approx(0.5, abs=1e-12)
    _, probs = run_readout(SpinInput(math.pi), GateParams.ideal())
    assert probs.p_down == pytest.approx(1.0, abs=1e-12)


def test_three_dot_sequence_mappings():
    seq = three_dot_sequence()
    up = apply(seq, one_hot("up", "0", 6))
    np.testing.assert_allclose(up.amplitudes, [0, 0, 1j, 0, 0, 0], atol=1e-12)
    down = apply(seq, one_hot("down", "0", 6))
    np.testing.assert_allclose(down.amplitudes, [0, 0, 0, 0, -1, 0], atol=1e-12)


def test_three_dot_coupler_action():
    # Full tunneling 0 -> 0p through the region rotating the spin by -pi/2.
    coupler = compose([rx_mode(math.pi / 2, ("0", "0p"), 6), rz_spin(-math.pi / 2, "0p", 6)])
    up = apply(coupler, one_hot("up", "0", 6))
    np.testing.assert_allclose(up.amplitudes, one_hot("up", "0p", 6).amplitudes, atol=1e-12)
    down = apply(coupler, one_hot("down", "0", 6))
    np.testing.assert_allclose(down.amplitudes, -one_hot("down", "0p", 6).amplitudes, atol=1e-12)
    # dot 1 is not part of the coupler
    spectator = apply(coupler, one_hot("down", "1", 6))
    np.testing.assert_allclose(spectator.amplitudes, one_hot("down", "1", 6).amplitudes, atol=1e-15)


def test_dot_occupancy_cases():
    assert dot_occupancy(one_hot("up", "1", 4), "1") == pytest.approx(1.0)
    split = apply(rx_mode(math.pi / 4, ("0", "1"), 4), one_hot("up", "0", 4))
    assert dot_occupancy(split, "1") == pytest.approx(0.5, abs=1e-12)
    out = apply(noisy_sequence(GateParams.ideal()), SpinInput(math.pi / 3).to_state(4))
    assert dot_occupancy(out, "1") == pytest.approx(0.75, abs=1e-12)


def test_occupancies_cover_all_modes():
    out = apply(three_dot_sequence(), SpinInput(2.0, 0.3).to_state(6))
    occ = occupancies(out)
    assert set(occ) == {"0", "0p", "1"}
    assert sum(occ.values()) == pytest.approx(1.0, abs=1e-12)
