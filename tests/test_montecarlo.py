import json
import math

import numpy as np
import pytest

from spinreadout import (
    DetectorModel,
    GateParams,
    ShotRecord,
    SpinInput,
    ValidationError,
    apply,
    dot_occupancy,
    effective_outcome_probability,
    noisy_sequence,
    sample_readout,
)
from spinreadout.cli import main
from spinreadout.montecarlo import BATCH_SHOTS, MAX_SHOTS


def test_deterministic_inputs_give_deterministic_counts():
    up = sample_readout(SpinInput(0.0), GateParams.ideal(), shots=500, seed=1)
    assert up.detected_dot1 == 500
    assert up.estimated_p_up == 1.0
    down = sample_readout(SpinInput(math.pi), GateParams.ideal(), shots=500, seed=1)
    assert down.detected_dot1 == 0


def test_same_seed_reproduces_record():
    kwargs = dict(
        spin_in=SpinInput(1.1, 0.4),
        params=GateParams(0.7, 0.8, 1.5, 3.0),
        shots=20_000,
        seed=42,
        detector=DetectorModel(0.93, 0.04),
    )
    record = sample_readout(**kwargs)
    assert record == sample_readout(**kwargs)
    assert sample_readout(**{**kwargs, "seed": 43}).detected_dot1 != record.detected_dot1


def test_seeded_counts_are_pinned(capsys):
    # Counts of the common-random-numbers draws, fixed so that any change to a
    # draw, to the batch split or to the per-shot rule shows here.
    cases = [
        (SpinInput(1.1, 0.4), GateParams(0.7, 0.8, 1.5, 3.0), 20_000, 42, DetectorModel(0.93, 0.04), 13722),
        (SpinInput(math.pi / 3), GateParams.ideal(), BATCH_SHOTS + 1, 5, DetectorModel(0.6, 0.0), 3718),
        (SpinInput(math.pi / 2), GateParams.ideal(), 3 * BATCH_SHOTS + 5, 7, DetectorModel(), 12289),
        (SpinInput(2.0, 1.0), GateParams(0.3, 1.2, 2.0, 0.5), BATCH_SHOTS, 2**40, DetectorModel(0.0, 1.0), 2360),
        (SpinInput(0.9), GateParams(1.0, 0.4, 0.2, 4.0), 1, 0, DetectorModel(0.5, 0.5), 1),
    ]
    for spin, params, shots, seed, detector, detected in cases:
        assert sample_readout(spin, params, shots, seed, detector).detected_dot1 == detected

    assert MAX_SHOTS >= 10**6  # the shot-sampling benchmark runs this many
    argv = ["montecarlo", "--delta", "1.2", "--shots", "1000000", "--seed", "99",
            "--efficiency", "0.9", "--false-positive", "0.05"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["detected_dot1"] == 629140


def test_equal_superposition_statistics():
    record = sample_readout(SpinInput(math.pi / 2), GateParams.ideal(), shots=10_000, seed=7)
    assert 0.48 <= record.estimated_p_up <= 0.52


def test_detector_channel_arithmetic():
    ideal = DetectorModel()
    assert effective_outcome_probability(0.37, ideal) == 0.37
    assert effective_outcome_probability(1.0, DetectorModel(0.9, 0.0)) == pytest.approx(0.9)
    assert effective_outcome_probability(0.5, DetectorModel(0.8, 0.1)) == pytest.approx(0.45)


def test_expected_detection_monotone_in_efficiency():
    grid = [effective_outcome_probability(0.6, DetectorModel(eta, 0.05)) for eta in np.linspace(0, 1, 11)]
    assert all(b >= a for a, b in zip(grid, grid[1:]))


def test_batching_covers_all_shots():
    shots = BATCH_SHOTS + 123
    record = sample_readout(SpinInput(0.0), GateParams.ideal(), shots=shots, seed=3)
    assert record.shots == shots
    assert record.detected_dot1 == shots  # p_up = 1 deterministically


def test_record_carries_detector_adjusted_probability():
    detector = DetectorModel(0.9, 0.05)
    params = GateParams(0.7, 0.8, 1.5, 3.0)
    record = sample_readout(SpinInput(1.1), params, shots=100, seed=2, detector=detector)
    out = apply(noisy_sequence(params), SpinInput(1.1).to_state(4))
    assert record.analytic_p_up == effective_outcome_probability(dot_occupancy(out, "1"), detector)


def test_numpy_integers_are_accepted_as_shots_and_seed():
    record = sample_readout(SpinInput(0.0), GateParams.ideal(), np.int64(10), np.uint32(3))
    assert record == sample_readout(SpinInput(0.0), GateParams.ideal(), 10, 3)


def test_probability_inputs_reject_nan_naming_the_field():
    cases = [
        (lambda: DetectorModel(math.nan, 0.0), "efficiency"),
        (lambda: DetectorModel(1.0, math.nan), "false_positive"),
        (lambda: ShotRecord(10, 5, 0, math.nan, 0.5), "estimated_p_up"),
        (lambda: ShotRecord(10, 5, 0, 0.5, math.nan), "analytic_p_up"),
        (lambda: effective_outcome_probability(math.nan, DetectorModel()), "p_occupied"),
    ]
    for build, field in cases:
        with pytest.raises(ValidationError) as err:
            build()
        assert str(err.value) == f"{field}: nan outside [0, 1]"
