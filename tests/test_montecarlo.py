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
from spinreadout.montecarlo import BATCH_SHOTS


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


def test_equal_superposition_statistics():
    record = sample_readout(SpinInput(math.pi / 2), GateParams.ideal(), shots=10_000, seed=7)
    assert 0.48 <= record.estimated_p_up <= 0.52


def test_empirical_frequency_tracks_analytic_probability():
    rng = np.random.default_rng(77)
    shots = 10_000
    hits = 0
    for i in range(30):
        params = GateParams(*rng.uniform(0, math.pi, 2), *rng.uniform(0, 2 * math.pi, 2))
        spin = SpinInput(rng.uniform(0, math.pi))
        detector = DetectorModel(rng.uniform(0.7, 1.0), rng.uniform(0.0, 0.2))
        record = sample_readout(spin, params, shots=shots, seed=1000 + i, detector=detector)
        out = apply(noisy_sequence(params), spin.to_state(4))
        p = effective_outcome_probability(dot_occupancy(out, "1"), detector)
        sigma = math.sqrt(p * (1 - p) / shots)
        if abs(record.estimated_p_up - p) <= 4 * sigma:
            hits += 1
    assert hits >= 29


def test_detector_channel_arithmetic():
    ideal = DetectorModel.ideal()
    assert effective_outcome_probability(0.37, ideal) == 0.37
    assert effective_outcome_probability(1.0, DetectorModel(0.9, 0.0)) == pytest.approx(0.9)
    assert effective_outcome_probability(0.5, DetectorModel(0.8, 0.1)) == pytest.approx(0.45)
    with pytest.raises(ValidationError, match="p_occupied"):
        effective_outcome_probability(1.5, ideal)


def test_detection_is_pointwise_monotone_in_efficiency():
    # same seed means shared uniforms, so raising the efficiency can only add counts
    previous = -1
    for eta in (0.0, 0.3, 0.6, 0.9, 1.0):
        record = sample_readout(
            SpinInput(math.pi / 3),
            GateParams.ideal(),
            shots=5000,
            seed=5,
            detector=DetectorModel(eta, 0.0),
        )
        assert record.detected_dot1 >= previous
        previous = record.detected_dot1


def test_expected_detection_monotone_in_efficiency():
    grid = [effective_outcome_probability(0.6, DetectorModel(eta, 0.05)) for eta in np.linspace(0, 1, 11)]
    assert all(b >= a for a, b in zip(grid, grid[1:]))


def test_batching_covers_all_shots():
    shots = BATCH_SHOTS + 123
    record = sample_readout(SpinInput(0.0), GateParams.ideal(), shots=shots, seed=3)
    assert record.shots == shots
    assert record.detected_dot1 == shots  # p_up = 1 deterministically


def test_non_finite_gate_angle_is_rejected_before_sampling():
    # u < nan is always False, so an unchecked NaN angle would give 0 detections silently
    with pytest.raises(ValidationError, match="theta1"):
        sample_readout(SpinInput(1.0), GateParams(math.nan, 0.7, 1, 2), 1000, 1)


def test_record_carries_detector_adjusted_probability():
    detector = DetectorModel(0.9, 0.05)
    params = GateParams(0.7, 0.8, 1.5, 3.0)
    record = sample_readout(SpinInput(1.1), params, shots=100, seed=2, detector=detector)
    out = apply(noisy_sequence(params), SpinInput(1.1).to_state(4))
    assert record.analytic_p_up == effective_outcome_probability(dot_occupancy(out, "1"), detector)


@pytest.mark.parametrize("shots", [1.5, 1000.0, "1000", True])
def test_non_integer_shots_are_rejected_before_sampling(shots):
    with pytest.raises(ValidationError, match="not an integer") as err:
        sample_readout(SpinInput(1.0), GateParams.ideal(), shots, 1)
    assert err.value.field == "shots"


@pytest.mark.parametrize("seed", [1.5, 2.0, None, False])
def test_non_integer_seed_is_rejected_before_sampling(seed):
    with pytest.raises(ValidationError, match="not an integer") as err:
        sample_readout(SpinInput(1.0), GateParams.ideal(), 10, seed)
    assert err.value.field == "seed"


def test_numpy_integers_are_accepted_as_shots_and_seed():
    record = sample_readout(SpinInput(0.0), GateParams.ideal(), np.int64(10), np.uint32(3))
    assert record == sample_readout(SpinInput(0.0), GateParams.ideal(), 10, 3)


def test_input_validation():
    with pytest.raises(ValidationError, match="shots"):
        sample_readout(SpinInput(0.5), GateParams.ideal(), shots=0, seed=1)
    with pytest.raises(ValidationError, match="seed"):
        sample_readout(SpinInput(0.5), GateParams.ideal(), shots=10, seed=-1)
    with pytest.raises(ValidationError, match="efficiency"):
        DetectorModel(1.2, 0.0)
    with pytest.raises(ValidationError, match="false_positive"):
        DetectorModel(1.0, -0.1)
    with pytest.raises(ValidationError, match="detected_dot1"):
        ShotRecord(shots=10, detected_dot1=11, seed=0, estimated_p_up=1.0, analytic_p_up=1.0)
