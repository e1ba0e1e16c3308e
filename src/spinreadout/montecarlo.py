"""Single-shot readout sampling: Born-rule draws on dot-1 occupancy through an
imperfect charge detector."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GateParams, SpinInput, ValidationError, check_integer, check_probability
from .protocol import run_readout

# Common-random-numbers contract: batch i covers shots
# [i*BATCH_SHOTS, (i+1)*BATCH_SHOTS) and draws (2, count) uniforms from the
# substream (seed, i); row 0 decides occupancy, row 1 the detector.
BATCH_SHOTS = 8192
# Most shots one call samples.  At the 10-16 ns per shot measured on a 2-CPU
# host, a run at the limit takes 10-16 s; memory stays at one batch.
MAX_SHOTS = 10**9


@dataclass(frozen=True)
class DetectorModel:
    """Binary detector channel: a present charge is reported with probability
    `efficiency`, an absent one with probability `false_positive`."""

    efficiency: float = 1.0
    false_positive: float = 0.0

    def __post_init__(self):
        check_probability("efficiency", self.efficiency)
        check_probability("false_positive", self.false_positive)


@dataclass(frozen=True)
class ShotRecord:
    """Counts of one run, fields in the order of the montecarlo JSON keys;
    `analytic_p_up` is the expectation of `estimated_p_up`."""

    shots: int
    detected_dot1: int
    seed: int
    estimated_p_up: float
    analytic_p_up: float

    def __post_init__(self):
        if not 0 <= self.detected_dot1 <= self.shots:
            raise ValidationError(
                "detected_dot1", f"count {self.detected_dot1} outside [0, {self.shots}]"
            )
        check_probability("estimated_p_up", self.estimated_p_up)
        check_probability("analytic_p_up", self.analytic_p_up)


def effective_outcome_probability(p_occupied: float, detector: DetectorModel) -> float:
    """Probability of a reported detection given the occupancy probability."""
    check_probability("p_occupied", p_occupied)
    return p_occupied * detector.efficiency + (1.0 - p_occupied) * detector.false_positive


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    # PCG64 substream keyed by (seed, batch index); stable across numpy versions.
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(batch_index,)))


def sample_readout(
    spin_in: SpinInput,
    params: GateParams,
    shots: int,
    seed: int,
    detector: DetectorModel = DetectorModel(),
) -> ShotRecord:
    """Simulate `shots` (at most MAX_SHOTS) single-shot readouts of the monitored dot 1.

    Each shot draws the charge presence from the Born-rule dot-1 occupancy of
    the sequence output, then pushes it through the detector channel.  Shot
    k of batch i takes the uniforms (u0, u1) from column k of that batch's
    draw (see BATCH_SHOTS): the dot is occupied when u0 < p_occupied, and a
    detection is reported when u1 < efficiency for an occupied dot or
    u1 < false_positive for an empty one.  The result is a pure function of
    (inputs, seed), and at a fixed seed the count never falls as the
    efficiency or the false-positive rate rises.
    """
    check_integer("shots", shots, minimum=1)
    if shots > MAX_SHOTS:
        raise ValidationError("shots", f"{shots} exceeds {MAX_SHOTS}")
    check_integer("seed", seed, minimum=0)

    # p_up may stray outside [0, 1] by rounding (ReadoutProbabilities allows
    # ATOL); the uniforms lie in [0, 1), so clamping changes no draw.
    p_occupied = min(max(run_readout(spin_in, params)[1].p_up, 0.0), 1.0)

    detected = 0
    done = 0
    batch_index = 0
    while done < shots:
        count = min(BATCH_SHOTS, shots - done)
        u = _batch_rng(seed, batch_index).random((2, count))
        occupied = u[0] < p_occupied
        detected += int(np.count_nonzero(occupied & (u[1] < detector.efficiency)))
        detected += int(np.count_nonzero(~occupied & (u[1] < detector.false_positive)))
        done += count
        batch_index += 1
    analytic_p_up = effective_outcome_probability(p_occupied, detector)
    return ShotRecord(shots, detected, seed, detected / shots, analytic_p_up)
