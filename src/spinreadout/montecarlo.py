"""Single-shot readout sampling: Born-rule draws on dot-1 occupancy through an
imperfect charge detector."""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .core import GateParams, SpinInput, ValidationError, check_integer, check_probability
from .protocol import run_readout

# Common-random-numbers contract: batch i covers shots
# [i*BATCH_SHOTS, (i+1)*BATCH_SHOTS) and draws (2, count) uniforms from
# numpy's PCG64 seeded by SeedSequence(entropy=seed, spawn_key=(i,)); row 0
# decides occupancy, row 1 the detector.
BATCH_SHOTS = 8192
# Most shots one call samples.  At the 4-8 ns per shot measured with both CPUs
# of a 2-CPU host counting (6-11 ns on one), a run at the limit takes 4-11 s;
# memory holds 32 B of seed words per batch, once per call whatever the share
# count (3.9 MB at the limit), and one 128 KiB batch buffer per share.
MAX_SHOTS = 10**9
# Fewest batches a share is given.  Starting a thread costs about a batch and
# a half (two batches take 1.5-1.9x as long on two threads as on one); the two
# broke even at 8-12 batches on a 2-CPU host whose second CPU was free, and
# not below 123 batches while the host was busy.
SHARE_BATCHES = 8
# Most shares one call counts on.  About 10% of a batch holds the GIL, so the
# lock alone would allow more; four is kept because threads past two were
# timed only with the affinity faked on a 2-CPU host, where four ran a
# 10^6-shot call 17-32% slower than two.
MAX_SHARES = 4


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


# numpy's SeedSequence constants; NEP 19 keeps its output stable.  Its pool
# hash multiplies its constant by _MULT_A once per word hashed, and its
# output hash runs the constants _INIT_B * _MULT_B**k.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POWERS_A = np.array([pow(_MULT_A, k, 2**32) for k in range(5)], np.uint32)
_OUTPUT_CONSTANTS = np.array([_INIT_B * pow(_MULT_B, k, 2**32) % 2**32 for k in range(9)], np.uint32)


def _hashmix(value: np.ndarray, c: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of the uint32 `value`, column k under the
    constants c[k] and c[k + 1]."""
    value = (value ^ c[:-1]) * c[1:]
    return value ^ value >> 16


def _seed_words(seed: int, keys: range) -> np.ndarray:
    """Row j is SeedSequence(entropy=seed, spawn_key=(keys[j],))
    .generate_state(4, np.uint64), derived for every key in one array pass."""
    # Mixing the seed's words leaves numpy's own pool of the seed alone, and
    # the hash constant advanced 16 times, plus 4 per seed word past the fourth.
    pool = np.random.SeedSequence(entropy=seed).pool
    h = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, -(-int(seed).bit_length() // 32) - 4), 2**32) % 2**32
    # The key, SeedSequence's last entropy word, is hashed into each pool word.
    key = np.arange(keys.start, keys.stop, dtype=np.uint32)[:, None]
    mixed = pool * _MIX_L - _hashmix(key, np.uint32(h) * _POWERS_A) * _MIX_R
    mixed ^= mixed >> 16
    # generate_state hashes the pool twice over into 8 words, which it reads
    # in pairs as little-endian uint64s.
    state = _hashmix(np.concatenate([mixed, mixed], axis=1), _OUTPUT_CONSTANTS)
    return state.astype("<u4", copy=False).view("<u8")


class _Words:
    """A batch's seed words as numpy's PCG64 takes a seed sequence: PCG64
    seeds itself from generate_state(4, np.uint64).  sample_readout registers
    it as an ISeedSequence, so importing this module loads no numpy.random."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        # PCG64 reads the returned buffer as it is, so it must be C-ordered
        # native uint64.
        return np.ascontiguousarray(self.words, np.uint64)


def _shares(n_batches: int) -> list[range]:
    """Split batches 0..n_batches-1 into contiguous, near-equal ranges: one
    per CPU this process may run on, at most MAX_SHARES, and each of at least
    SHARE_BATCHES batches unless there is only one."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    n = max(1, min(cpus, MAX_SHARES, n_batches // SHARE_BATCHES))
    return [range(n_batches * k // n, n_batches * (k + 1) // n) for k in range(n)]


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
    u1 < false_positive for an empty one.  The batches are counted on up to
    one thread per CPU the process may use (see _shares); a failure in one
    share stops the others, and the caller's own failure is the one raised.
    The result is a pure function of (inputs, seed), whatever the number of
    CPUs, and at a fixed seed the count never falls as the efficiency or the
    false-positive rate rises.
    """
    check_integer("shots", shots, minimum=1)
    if shots > MAX_SHOTS:
        raise ValidationError("shots", f"{shots} exceeds {MAX_SHOTS}")
    check_integer("seed", seed, minimum=0)

    # p_up may stray outside [0, 1] by rounding (ReadoutProbabilities allows
    # ATOL); the uniforms lie in [0, 1), so clamping changes no draw.
    p_occupied = min(max(run_readout(spin_in, params)[1].p_up, 0.0), 1.0)

    np.random.bit_generator.ISeedSequence.register(_Words)
    n_batches = -(-shots // BATCH_SHOTS)
    words = _seed_words(seed, range(n_batches))
    counts = []
    errors = []
    stop = threading.Event()

    def count(batches):
        # Batches share no state, so each share counts its own and the sum
        # does not depend on which thread ran which share.
        buffer = np.empty(2 * BATCH_SHOTS)
        detected = 0
        for i in batches:
            if stop.is_set():
                return
            n = min(BATCH_SHOTS, shots - i * BATCH_SHOTS)
            u = buffer[: 2 * n].reshape(2, n)
            np.random.Generator(np.random.PCG64(_Words(words[i]))).random(out=u)
            occupied = u[0] < p_occupied
            detected += int(np.count_nonzero(occupied & (u[1] < detector.efficiency)))
            detected += int(np.count_nonzero(~occupied & (u[1] < detector.false_positive)))
        counts.append(detected)

    def count_in_thread(batches):
        try:
            count(batches)
        except BaseException as error:  # raised on the calling thread below
            errors.append(error)
            stop.set()

    first, *rest = _shares(n_batches)
    threads = [threading.Thread(target=count_in_thread, args=(batches,)) for batches in rest]
    try:
        for thread in threads:
            thread.start()
        count(first)
        for thread in threads:
            thread.join()
    except BaseException:  # the caller's own share failed or was interrupted
        stop.set()
        for thread in threads:
            if thread.is_alive():
                thread.join()
        raise
    if errors:
        raise errors[0]
    detected = sum(counts)
    analytic_p_up = effective_outcome_probability(p_occupied, detector)
    return ShotRecord(shots, detected, seed, detected / shots, analytic_p_up)
