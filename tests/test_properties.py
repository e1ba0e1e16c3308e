"""Property tests of the error-surface identities, the gate constructors,
readout propagation and its closed form over the whole gate-angle domain, of
the three-dot classification over every input, of the Monte Carlo counts
against a per-shot reference and their common-random-numbers monotonicity, of
the grid CSV bytes against a per-cell reference, and of the command line
against hostile argv and in both flag spellings.

Runs are derandomized, so every run draws the same examples.
"""

import math
import os
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spinreadout.protocol
from spinreadout import (
    AxisSpec,
    DetectorModel,
    ErrorGrid,
    GateParams,
    SpinInput,
    StateVector,
    Unitary,
    ValidationError,
    apply,
    avg_abs_error,
    compose,
    dot_occupancy,
    error_coefficients,
    extremal_error,
    measurement_error,
    noisy_sequence,
    panel_axes,
    probabilities_closed_form,
    run_readout,
    rx_mode,
    sample_readout,
    rz_spin,
    sweep_grid,
    three_dot_sequence,
    u2_general,
)
from spinreadout.core import ATOL, MAX_ANGLE
from spinreadout.error_analysis import AXIS_NAMES, MAX_GRID_NODES
from spinreadout.montecarlo import BATCH_SHOTS, MAX_SHARES, MAX_SHOTS, SHARE_BATCHES, _seed_words, _shares
from spinreadout.quadrature import avg_abs_error_quadrature
from spinreadout.report import grid_to_csv
from spinreadout.report import _BLOCK_NODES

from shared import ALL_GATES, DELTAS, GAMMAS, GATE_ANGLES, PROPERTY, run_main, use_cpus

# Sweep-axis ends: psi_phi_locked writes phi = 2 v, so an end must stay within MAX_ANGLE / 2.
ANGLES = st.floats(-4 * math.pi, 4 * math.pi)
PROBABILITIES = st.floats(0.0, 1.0)
DETECTORS = st.builds(DetectorModel, PROBABILITIES, PROBABILITIES)

# The gate angles each sweep axis sets from its value v, written out here
# independently of the library's axis table.
AXIS_WRITES = {
    "theta1": lambda v: {"theta1": v},
    "theta2": lambda v: {"theta2": v},
    "psi": lambda v: {"psi": v},
    "phi": lambda v: {"phi": v},
    "theta": lambda v: {"theta1": v, "theta2": v},
    "psi_phi_locked": lambda v: {"psi": v, "phi": 2 * v},
}
AXIS_PAIRS = [
    (a, b)
    for a in AXIS_WRITES
    for b in AXIS_WRITES
    if not AXIS_WRITES[a](0.0).keys() & AXIS_WRITES[b](0.0).keys()
]


def axis_nodes(start, stop, num):
    """`num` evenly spaced nodes from `start` to `stop`, both ends included."""
    step = (stop - start) / (num - 1)
    return [start + k * step for k in range(num - 1)] + [stop]


@PROPERTY
@given(
    pair=st.sampled_from(AXIS_PAIRS),
    fixed=ALL_GATES,
    range1=st.tuples(ANGLES, ANGLES),
    range2=st.tuples(ANGLES, ANGLES),
    nums=st.tuples(st.integers(2, 5), st.integers(2, 5)),
)
def test_grid_nodes_equal_scalar_ebar(pair, fixed, range1, range2, nums):
    axis1 = AxisSpec(pair[0], *range1, nums[0])
    axis2 = AxisSpec(pair[1], *range2, nums[1])
    grid = sweep_grid(axis1, axis2, fixed)
    for i, v1 in enumerate(axis_nodes(*range1, nums[0])):
        for j, v2 in enumerate(axis_nodes(*range2, nums[1])):
            angles = {**vars(fixed), **AXIS_WRITES[pair[0]](v1), **AXIS_WRITES[pair[1]](v2)}
            assert abs(grid.values[i, j] - avg_abs_error(GateParams(**angles))) <= 1e-15


@PROPERTY
@given(ALL_GATES)
def test_analytic_ebar_matches_quadrature(params):
    assert abs(avg_abs_error(params) - avg_abs_error_quadrature(params)) <= 1e-9


@PROPERTY
@given(ALL_GATES)
def test_ebar_lies_in_unit_interval(params):
    assert 0.0 <= avg_abs_error(params) <= 1.0


# psi and phi with room for a shift of 4 pi either way.
SHIFTABLE = st.floats(-MAX_ANGLE + 4 * math.pi, MAX_ANGLE - 4 * math.pi)


@PROPERTY
@given(GATE_ANGLES, GATE_ANGLES, SHIFTABLE, SHIFTABLE)
def test_ebar_is_periodic_in_psi_and_phi(theta1, theta2, psi, phi):
    value = avg_abs_error(GateParams(theta1, theta2, psi, phi))
    assert abs(avg_abs_error(GateParams(theta1, theta2, psi + 2 * math.pi, phi)) - value) <= 1e-12
    assert abs(avg_abs_error(GateParams(theta1, theta2, psi, phi + 4 * math.pi)) - value) <= 1e-12


@PROPERTY
@given(GATE_ANGLES, GATE_ANGLES, DELTAS)
def test_no_tunneling_never_reaches_dot1(psi, phi, delta):
    # c0 = c1 = -1/2 exactly, so E = -cos^2(delta/2) and Ebar = 1/2.
    params = GateParams(0.0, 0.0, psi, phi)
    assert probabilities_closed_form(params, delta).p_up == 0.0
    assert avg_abs_error(params) == 0.5
    assert abs(avg_abs_error_quadrature(params) - 0.5) <= 1e-9


# Gate sets within 0.1 rad of the ideal one, where c1 reaches its maximum, 0;
# draws over the whole domain seldom come that near.
NEAR_IDEAL = st.builds(GateParams, *[st.floats(a - 0.1, a + 0.1) for a in vars(GateParams.ideal()).values()])


@PROPERTY
@given(ALL_GATES, NEAR_IDEAL)
def test_error_slope_is_never_positive(params, near_ideal):
    assert error_coefficients(params)[1] <= 0.0
    assert error_coefficients(near_ideal)[1] <= 0.0


@PROPERTY
@given(ALL_GATES, DELTAS)
def test_error_extremes_sit_at_zero_and_pi(params, delta):
    e0, e_pi, e = (measurement_error(params, d) for d in (0.0, math.pi, delta))
    extremes = extremal_error(params)
    assert extremes == (e0, e_pi)
    assert extremes.e_min <= e <= extremes.e_max
    # E is affine in cos(delta), and p_up and p_down both define it.
    assert abs(e - ((e0 + e_pi) / 2 + (e0 - e_pi) / 2 * math.cos(delta))) <= 1e-12
    probs = probabilities_closed_form(params, delta)
    from_up, from_down = probs.p_up - math.cos(delta / 2) ** 2, math.sin(delta / 2) ** 2 - probs.p_down
    assert abs(e - from_up) <= 1e-12 and abs(from_up - from_down) <= 1e-12
    # Every scalar view returns a built-in float, not a numpy scalar or 0-d array.
    scalars = (*error_coefficients(params), *extremes, e, avg_abs_error(params), probs.p_up, probs.p_down)
    assert all(type(v) is float for v in scalars)


# Six amplitudes; a gate of 4 modes takes the first four, renormalized.
AMPLITUDES = st.lists(st.complex_numbers(max_magnitude=1.0), min_size=6, max_size=6).filter(
    lambda amps: np.linalg.norm(amps[:4]) >= 0.1
)


# Each gate constructor, as a function of the two drawn angles.
GATES = {
    "rx_mode_4": lambda a, b: rx_mode(a, ("0", "1"), 4),
    "rx_mode_6": lambda a, b: rx_mode(a, ("0", "0p"), 6),
    "u2_general": u2_general,
    "rz_spin_0_4": lambda a, b: rz_spin(a, "0", 4),
    "rz_spin_1_4": lambda a, b: rz_spin(a, "1", 4),
    "rz_spin_1_6": lambda a, b: rz_spin(a, "1", 6),
}


@PROPERTY
@pytest.mark.parametrize("name", GATES)
@given(GATE_ANGLES, GATE_ANGLES, AMPLITUDES)
def test_gate_constructors_are_unitary(name, a, b, amplitudes):
    gate = GATES[name](a, b)
    v = np.array(amplitudes[: gate.dim])
    state = StateVector(v / np.linalg.norm(v))
    assert np.max(np.abs(gate.matrix.conj().T @ gate.matrix - np.eye(gate.dim))) <= ATOL
    assert abs(np.sum(np.abs(apply(gate, state).amplitudes) ** 2) - 1.0) <= ATOL
    assert np.array_equal(apply(Unitary(np.eye(gate.dim)), state).amplitudes, state.amplitudes)


@PROPERTY
@given(GATE_ANGLES, GATE_ANGLES)
def test_rx_mode_inverse_and_additivity(a, b):
    back_forth = compose([rx_mode(a, ("0", "1"), 4), rx_mode(-a, ("0", "1"), 4)])
    assert np.max(np.abs(back_forth.matrix - np.eye(4))) <= 1e-12
    added = compose([rx_mode(a, ("0", "1"), 4), rx_mode(b, ("0", "1"), 4)])
    assert np.max(np.abs(added.matrix - rx_mode(a + b, ("0", "1"), 4).matrix)) <= 1e-12


@PROPERTY
@given(ALL_GATES)
@example(GateParams.ideal())  # quarter oscillation, sign flip on dot 0, quarter oscillation
# With rx_mode(0) == I and u2_general(0, 0) == I, rotation additivity carries
# these to u2_general(psi, phi), I and rx_mode(2 theta).
@example(GateParams(0.0, 0.0, 0.9, 2.3))
@example(GateParams(math.pi / 4, -math.pi / 4, 0.0, 0.0))
@example(GateParams(0.7, 0.7, 0.0, 0.0))
def test_noisy_sequence_equals_composed_gates(params):
    composed = compose(
        [
            rx_mode(params.theta1, ("0", "1"), 4),
            u2_general(params.psi, params.phi),
            rx_mode(params.theta2, ("0", "1"), 4),
        ]
    )
    assert np.array_equal(noisy_sequence(params).matrix, composed.matrix)


@PROPERTY
@given(ALL_GATES, DELTAS, GAMMAS)
@example(GateParams(MAX_ANGLE, -MAX_ANGLE, MAX_ANGLE, -MAX_ANGLE), math.pi / 2, 0.0)
def test_closed_form_equals_the_matrix_path(params, delta, gamma):
    _, matrix = run_readout(SpinInput(delta, gamma), params)
    closed = probabilities_closed_form(params, delta)
    assert abs(matrix.p_up - closed.p_up) <= ATOL
    assert abs(matrix.p_down - closed.p_down) <= ATOL


@PROPERTY
@given(ALL_GATES, DELTAS, GAMMAS)
def test_run_readout_keeps_the_norm(params, delta, gamma):
    state, probs = run_readout(SpinInput(delta, gamma), params)
    assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) <= ATOL
    assert abs(probs.p_up + probs.p_down - 1.0) <= ATOL


@PROPERTY
@given(DELTAS, GAMMAS)
def test_three_dot_matches_two_dot_classification(delta, gamma):
    spin = SpinInput(delta, gamma)
    _, probs = run_readout(spin, GateParams.ideal())
    out3 = apply(three_dot_sequence(), spin.to_state(6))
    assert abs(dot_occupancy(out3, "1") - probs.p_up) <= 1e-12
    assert abs(dot_occupancy(out3, "0p") - probs.p_down) <= 1e-12
    assert dot_occupancy(out3, "0") <= 1e-12


def reference_detected(p_occupied, shots, seed, detector):
    """Per-shot `np.where` count over the batch draws of the contract, each
    from numpy's own seeding, written out here apart from `sample_readout`."""
    detected = 0
    for i, start in enumerate(range(0, shots, BATCH_SHOTS)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        u = rng.random((2, min(BATCH_SHOTS, shots - start)))
        occupied = u[0] < p_occupied
        reported = np.where(occupied, u[1] < detector.efficiency, u[1] < detector.false_positive)
        detected += int(np.count_nonzero(reported))
    return detected


SHOTS = st.integers(1, 2 * BATCH_SHOTS + 1)
LAST_BATCH = -(-MAX_SHOTS // BATCH_SHOTS) - 1


# Seeds past 2**128 have more than four uint32 words, which numpy mixes in
# after its pool is full.
@PROPERTY
@given(st.integers(0, 2**300), st.integers(0, LAST_BATCH))
@example(0, 0)
@example(2**32 - 1, LAST_BATCH)
@example(2**32, 1)
@example(2**128 - 1, LAST_BATCH)
@example(2**128, 0)
@example(2**128 + 1, LAST_BATCH)
def test_seed_words_equal_numpys_seed_sequence(seed, i):
    expected = np.random.SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(4, np.uint64)
    assert _seed_words(seed, range(i, i + 1)).tolist() == [expected.tolist()]


# CPUs the process may use.  A share holds at least SHARE_BATCHES batches, so
# a drawn case (at most 3 batches) counts on the calling thread alone, and the
# @examples of 17, 25 and 33 batches split into 8 + 9 on 2 CPUs, 8 + 8 + 9 on
# 3, and 8 + 8 + 8 + 9 on 16, which MAX_SHARES caps at 4.
CPUS = st.sampled_from([1, 2, 3, 16])


@PROPERTY
@given(ALL_GATES, DELTAS, GAMMAS, DETECTORS, SHOTS, st.integers(0, 2**63), CPUS)
@example(GateParams.ideal(), 0.0, 0.0, DetectorModel(0.0, 0.0), 2 * BATCH_SHOTS + 1, 1, 2)
@example(GateParams.ideal(), 0.0, 0.0, DetectorModel(1.0, 1.0), BATCH_SHOTS + 1, 2, 1)
@example(GateParams.ideal(), 0.0, 0.0, DetectorModel(0.0, 1.0), BATCH_SHOTS, 3, 3)
@example(GateParams.ideal(), math.pi, 0.0, DetectorModel(1.0, 0.0), BATCH_SHOTS - 1, 4, 2)
@example(GateParams.ideal(), math.pi, 0.0, DetectorModel(0.0, 1.0), 1, 2**63, 1)
@example(GateParams.ideal(), 1.0, 0.0, DetectorModel(0.9, 0.05), 16 * BATCH_SHOTS + 1, 5, 1)
@example(GateParams.ideal(), 1.0, 0.0, DetectorModel(0.9, 0.05), 16 * BATCH_SHOTS + 1, 5, 2)
@example(GateParams.ideal(), 1.0, 0.0, DetectorModel(0.9, 0.05), 24 * BATCH_SHOTS + 1, 5, 3)
@example(GateParams.ideal(), 1.0, 0.0, DetectorModel(0.9, 0.05), 32 * BATCH_SHOTS + 5, 11, 16)
# p_up of this gate set rounds to 1 + 4.4e-16, within ATOL of 1, so the
# clamp is exercised.
@example(GateParams(-3.9269908169872414, -3.9269908169872414, math.pi / 2, math.pi),
         0.0, 0.0, DetectorModel(0.3, 0.7), 2 * BATCH_SHOTS + 1, 0, 2)
@example(GateParams(-3.9269908169872414, -3.9269908169872414, math.pi / 2, math.pi),
         0.0, 0.0, DetectorModel(), 10, 0, 1)
def test_sample_readout_count_equals_per_shot_reference(params, delta, gamma, detector, shots, seed, cpus):
    spin = SpinInput(delta, gamma)
    p_up = run_readout(spin, params)[1].p_up
    p_occupied = min(max(p_up, 0.0), 1.0)
    with pytest.MonkeyPatch.context() as monkeypatch:
        use_cpus(monkeypatch, cpus)
        record = sample_readout(spin, params, shots, seed, detector)
    assert record.shots == shots and record.seed == seed
    assert record.detected_dot1 == reference_detected(p_occupied, shots, seed, detector)
    expected = p_up * detector.efficiency + (1.0 - p_up) * detector.false_positive
    assert abs(record.analytic_p_up - expected) <= ATOL


@PROPERTY
@given(st.integers(1, -(-MAX_SHOTS // BATCH_SHOTS)), st.integers(1, 64), st.sampled_from(["affinity", "count", "none"]))
@example(123, 2, "affinity")
@example(33, 3, "count")  # 11 + 11 + 11
@example(33, 3, "none")  # one share
def test_shares_cover_every_batch_once_and_keep_to_their_caps(n_batches, cpus, platform):
    with pytest.MonkeyPatch.context() as monkeypatch:
        if platform == "affinity":
            use_cpus(monkeypatch, cpus)
        else:  # no affinity call: os.cpu_count() counts the CPUs, and its None means one
            count = None if platform == "none" else cpus
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: count)
            cpus = count or 1
        shares = _shares(n_batches)
    # Contiguous and in order, from batch 0 to the last.
    assert [0] + [share.stop for share in shares] == [share.start for share in shares] + [n_batches]
    assert len(shares) == 1 or min(map(len, shares)) >= SHARE_BATCHES
    # As many shares as the CPUs and MAX_SHARES allow, unless one more would be too small.
    assert len(shares) <= min(cpus, MAX_SHARES)
    assert len(shares) == min(cpus, MAX_SHARES) or (len(shares) + 1) * SHARE_BATCHES > n_batches


ORDERED_PAIRS = st.tuples(PROBABILITIES, PROBABILITIES).map(sorted)
# A sorted pair, then 1.0: the rates reach both sides of every value up to 1.
RATE_CHAINS = ORDERED_PAIRS.map(lambda pair: (*pair, 1.0))


@PROPERTY
@given(ALL_GATES, DELTAS, GAMMAS, RATE_CHAINS, RATE_CHAINS, SHOTS, st.integers(0, 2**63))
def test_counts_never_fall_as_the_detector_reports_more(params, delta, gamma, effs, fps, shots, seed):
    # One seed means shared uniforms, so a higher rate can only add shots.
    def count(efficiency, false_positive):
        detector = DetectorModel(efficiency, false_positive)
        return sample_readout(SpinInput(delta, gamma), params, shots, seed, detector).detected_dot1

    counts = np.array([[count(e, f) for f in fps] for e in effs])
    assert (np.diff(counts, axis=0) >= 0).all() and (np.diff(counts, axis=1) >= 0).all()


@PROPERTY
@given(st.tuples(DELTAS, DELTAS).map(sorted), GAMMAS, ORDERED_PAIRS, SHOTS, st.integers(0, 2**63))
def test_counts_never_rise_with_delta_when_efficiency_beats_false_positives(deltas, gamma, rates, shots, seed):
    # Ideal gates give p_up = cos^2(delta/2), falling in delta; an occupied dot
    # is reported at least as often as an empty one when efficiency >= false_positive.
    detector = DetectorModel(rates[1], rates[0])
    low, high = (
        sample_readout(SpinInput(delta, gamma), GateParams.ideal(), shots, seed, detector).detected_dot1
        for delta in deltas
    )
    assert high <= low


def test_noisy_sequence_checks_its_product(monkeypatch):
    # Scale exactly one factor off the unit circle: only the product's own
    # Unitary check stands between it and the caller.
    rx_matrix = spinreadout.protocol._rx_matrix
    scales = iter([1.01, 1.0])
    monkeypatch.setattr(
        spinreadout.protocol, "_rx_matrix", lambda *args: next(scales) * rx_matrix(*args)
    )
    with pytest.raises(ValidationError, match="not unitary") as err:
        noisy_sequence(GateParams(0.3, 0.3, 1.0, 2.0))
    assert err.value.field == "matrix"


def reference_csv(grid):
    """Per-cell CSV of a grid, written out here apart from the library's serializer."""
    lines = ["axis1,axis2,Ebar"]
    v1, v2 = grid.axis1.values(), grid.axis2.values()
    for i in range(grid.axis1.num):
        for j in range(grid.axis2.num):
            cells = (v1[i], v2[j], grid.values[i, j])
            lines.append(",".join(format(float(v), ".12g") for v in cells))
    return "\n".join(lines) + "\n"


def assert_csv_matches_reference(grid):
    # Reports the first differing line; pytest's diff of two long strings
    # would take minutes.
    got, want = grid_to_csv(grid).decode().split("\n"), reference_csv(grid).split("\n")
    line = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
    assert line is None, f"line {line}: {got[line]!r} != {want[line]!r}"
    assert len(got) == len(want)


# Bounds that print in exponent notation, as -0, or with all 12 digits.
CSV_BOUNDS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-05, -1e-05, 1e-13, 3e-13, 1 / 3, -2 / 7, math.pi, 123.456789012345]),
    st.floats(-1e-4, 1e-4),
    st.floats(-400.0, 400.0),
)


@PROPERTY
@given(
    pair=st.sampled_from(AXIS_PAIRS),
    fixed=ALL_GATES,
    range1=st.tuples(CSV_BOUNDS, CSV_BOUNDS),
    range2=st.tuples(CSV_BOUNDS, CSV_BOUNDS),
    nums=st.tuples(st.integers(2, 40), st.integers(2, 40)),
)
@example(("theta1", "phi"), GateParams.ideal(), (0.0, -0.0), (1e-13, 1e-05), (3, 4))
@example(("theta", "psi_phi_locked"), GateParams.ideal(), (-1e-05, 1 / 3), (1e-13, -0.0), (7, 2))
@example(("psi", "phi"), GateParams.ideal(), (0.0, 1.0), (0.0, 1.0), (3, _BLOCK_NODES + 5))  # a row split in blocks
def test_grid_csv_equals_per_cell_format(pair, fixed, range1, range2, nums):
    assert_csv_matches_reference(
        sweep_grid(AxisSpec(pair[0], *range1, nums[0]), AxisSpec(pair[1], *range2, nums[1]), fixed)
    )


@pytest.mark.parametrize("panel", ["a", "b", "c"])
def test_panel_csv_equals_per_cell_format(panel):
    assert_csv_matches_reference(sweep_grid(*panel_axes(panel, 101)))


def csv_ebar_cells(values):
    """The Ebar cells grid_to_csv writes for a 2 x len(values) grid of `values`
    and `values` reversed."""
    axis1, axis2 = AxisSpec("psi", 0.0, 1.0, 2), AxisSpec("phi", 0.0, 1.0, len(values))
    grid = ErrorGrid(axis1, axis2, GateParams.ideal(), [values, values[::-1]])
    return [line.rsplit(",", 1)[1] for line in grid_to_csv(grid).decode().splitlines()[1:]]


def in_guard_band(v):
    """Whether v * 10**(12 + z), z the zeros .12g prints after "0.", lies within
    2e-4 of a half-integer: there grid_to_csv formats v one at a time."""
    z = sum(v < 10.0**-k for k in (1, 2, 3))
    scaled = Fraction(v) * 10 ** (12 + z)
    return abs(scaled - math.floor(scaled) - Fraction(1, 2)) < Fraction(2, 10**4)


# Half-integers D + 1/2 scaled back to [1e-4, 1), kept where the nearest double
# still lies in the guard band.
GUARD_BAND = [
    v
    for k in range(12)
    if in_guard_band(v := (123456789012 + 1000003 * k + 0.5) / 10 ** (12 + k % 4))
]
# Values at the edges of the integer route, and values that leave it.
EBAR_EDGES = [
    0.0,
    -1e-13,  # Ebar may round below 0 by up to ATOL
    5e-324,
    9.99999999997e-05,  # v * 10**15 rounds to 10**11, yet .12g keeps exponent notation
    math.nextafter(1e-4, 0.0),
    1e-4,
    math.nextafter(1e-4, 1.0),
    0.09999999999999999,  # carries to 0.1
    0.99999999999949,
    0.9999999999995,  # in the guard band, just below the tie: rounds down
    0.99999999999951,  # carries to 1
    1.0,
    1 + 1e-13,
    7 / 65536,  # v * 10**15 is exactly a half-integer: ties to even
    *GUARD_BAND,
]


def test_guard_band_search_finds_values():
    assert len(GUARD_BAND) >= 6 and in_guard_band(7 / 65536)


@PROPERTY
@given(st.lists(st.floats(0.0, 1.0 + 1e-12), min_size=2, max_size=64))
@example(EBAR_EDGES)
@example([5e-324, 2.2250738585072014e-308, 1e-310, 0.5])
def test_csv_ebar_cells_equal_format(values):
    assert csv_ebar_cells(values) == [format(v, ".12g") for v in values + values[::-1]]


# Hostile command-line values: signed zeros, subnormals, values at and past the
# float range, non-finite spellings, huge integers and junk tokens.  No junk
# token starts with "--", so none can abbreviate a flag such as --output.
HUGE = "9" * 40
HOSTILE = ["0", "-0", "-0.0", "5e-324", "-5e-324", "2.2250738585072014e-308", "1e308", "-1e308",
           "1.7976931348623157e308", "1e999", "nan", "-nan", "inf", "-inf", "Infinity", HUGE, "-" + HUGE]
JUNK = ["", "abc", "1,2", "1:2:3", ",", ":", "-", "--", "0x10", "1e", "\u22121", "2.5"]
HOSTILE_NUMBER = st.one_of(
    st.sampled_from(HOSTILE + JUNK), st.floats(allow_nan=False, allow_infinity=False).map(repr)
)


# Hypothesis draws the ends of an integer range more often than the values
# between, so each branch taken one time in N keys on a value inside the range.
def one_in(draw, n):
    return draw(st.integers(0, n - 1)) == n // 2


@st.composite
def mostly(draw, valid, hostile):
    """A flag's text: from `valid` seven times in eight, else from `hostile`."""
    return draw(hostile if one_in(draw, 8) else valid)


def number(lo, hi):
    return mostly(st.floats(lo, hi).map(repr), HOSTILE_NUMBER)


def size(valid, too_big):
    """A count flag's text: a valid count, or a hostile one (past the limit, huge,
    negative, not an integer) that the command rejects before any work."""
    hostile = [str(too_big), HUGE, "-1", "0", "-0", "1e3", "nan"] + JUNK
    return mostly(valid.map(str), st.sampled_from(hostile))


def pair(sep, lo, hi):
    return mostly(st.tuples(number(lo, hi), number(lo, hi)).map(sep.join), st.sampled_from(JUNK))


def choice(values):
    return mostly(st.sampled_from(values), st.sampled_from(JUNK))


# Half of PROPERTY's examples keep the five argv properties near 1.3 s together.
ARGV_PROPERTY = settings(PROPERTY, max_examples=100)
ANGLE_TEXT = number(-MAX_ANGLE, MAX_ANGLE)
GATE_FLAGS = {"--ideal": None, **dict.fromkeys(["--theta1", "--theta2", "--psi", "--phi"], ANGLE_TEXT)}
NON_FINITE = re.compile(r"(?i)\b(nan|inf|infinity)\b")


@st.composite
def command_line(draw, command, required, optional):
    """`command` with each flag of `required` nine times in ten and of
    `optional` one time in three, in any order, each spelt `FLAG VALUE` or
    `FLAG=VALUE` (None marks a switch), and one time in ten a stray junk token."""
    flags = [f for f in required if not one_in(draw, 10)]
    flags += [f for f in optional if one_in(draw, 3)]
    argv = list(command)
    for flag in draw(st.permutations(flags)):
        value = {**required, **optional}[flag]
        if value is None:
            argv.append(flag)
        elif draw(st.booleans()):
            argv.append(f"{flag}={draw(value)}")
        else:
            argv += [flag, draw(value)]
    if one_in(draw, 10):
        argv.append(draw(st.sampled_from(JUNK)))
    return argv


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("argv")


def check_main(argv, out_dir, to_file):
    """main returns 0, 1 or 2 without raising; a failure prints nothing on
    stdout and leaves no file, and a validation error prints one line that
    names its field once; a success prints finite numbers only."""
    path = out_dir / "out"
    code, out, err = run_main(argv + ["--output", str(path)] if to_file else argv)
    assert code in (0, 1, 2)
    if code:
        assert out == "" and not path.exists() and err
        if code == 2 and err.startswith("error: "):  # a ValidationError, not argparse's usage text
            field = err[len("error: "):].split(": ", 1)[0]
            assert err.count("\n") == 1 and err.count(field) == 1, err
    else:
        text = path.read_text() if to_file else out
        path.unlink(missing_ok=True)
        assert text and not NON_FINITE.search(text), text


PROTOCOL_ARGV = command_line(
    ["protocol"],
    {"--delta": number(0.0, math.pi)},
    {"--variant": choice(["two-dot", "three-dot"]), "--gamma": number(0.0, 6.28), **GATE_FLAGS},
)
RANGE = pair(",", -MAX_ANGLE / 2, MAX_ANGLE / 2)
GRID_FLAGS = {
    "--resolution": size(st.integers(2, 50), math.isqrt(MAX_GRID_NODES) + 1),
    "--format": choice(["csv", "json"]),
    **GATE_FLAGS,
}
ERRMAP_ARGV = st.one_of(
    command_line(
        ["errmap"], {}, {"--panel": choice(["a", "b", "c"]), "--range1": RANGE, "--range2": RANGE, **GRID_FLAGS}
    ),
    command_line(
        ["errmap", "--panel", "custom"],
        {"--axis1": choice(AXIS_NAMES), "--axis2": choice(AXIS_NAMES), "--range1": RANGE, "--range2": RANGE},
        GRID_FLAGS,
    ),
)
MONTECARLO_ARGV = command_line(
    ["montecarlo"],
    {"--delta": number(0.0, math.pi), "--shots": size(st.integers(1, 10**4), MAX_SHOTS + 1)},
    {
        "--gamma": number(0.0, 6.28),
        "--seed": mostly(st.integers(0, 2**64).map(str), st.sampled_from([HUGE, "-1"] + JUNK)),
        "--efficiency": number(0.0, 1.0),
        "--false-positive": number(0.0, 1.0),
        **GATE_FLAGS,
    },
)
SEGMENTS = st.lists(pair(":", -1e3, 1e3), min_size=1, max_size=3).map(",".join)
DEVICE_ARGV = st.one_of(
    command_line(["device", "pulse-angle"], {"--segments": SEGMENTS}, {}),
    command_line(
        ["device", "pulse-for-angle"], {"--angle": number(-1e3, 1e3), "--duration": number(0.0, 1e3)}, {}
    ),
    command_line(["device", "rashba-length"], {"--alpha": number(0.0, 1e-9), "--angle": number(-1e3, 1e3)},
                 {"--mass": number(0.0, 10.0)}),
    command_line(["device", "rashba-angle"], {"--alpha": number(0.0, 1e-9), "--length": number(-1e6, 1e6)},
                 {"--mass": number(0.0, 10.0)}),
    command_line(["device"], {}, {"abc": HOSTILE_NUMBER}),
)


@ARGV_PROPERTY
@given(PROTOCOL_ARGV, st.booleans())
def test_protocol_never_raises_on_any_argv(out_dir, argv, to_file):
    check_main(argv, out_dir, to_file)


@ARGV_PROPERTY
@given(ERRMAP_ARGV, st.booleans())
@example(["errmap", "--resolution", "100000"], True)
def test_errmap_never_raises_on_any_argv(out_dir, argv, to_file):
    check_main(argv, out_dir, to_file)


@ARGV_PROPERTY
@given(MONTECARLO_ARGV, st.booleans())
@example(["montecarlo", "--delta", "1", "--shots", str(10**12)], True)
def test_montecarlo_never_raises_on_any_argv(out_dir, argv, to_file):
    check_main(argv, out_dir, to_file)


@ARGV_PROPERTY
@given(DEVICE_ARGV, st.booleans())
@example(["device", "pulse-angle", "--segments", "1e308:1e308"], False)
@example(["device", "pulse-for-angle", "--angle", "1e308", "--duration", "1e-300"], False)
@example(["device", "rashba-angle", "--alpha", "1e300", "--length", "1e300"], False)
@example(["device", "rashba-length", "--alpha", "1e-320", "--angle", "1"], False)
@example(["device", "rashba-length", "--alpha", "1", "--angle=--"], False)
def test_device_never_raises_on_any_argv(out_dir, argv, to_file):
    check_main(argv, out_dir, to_file)


def respelt(argv):
    """`argv` with each `FLAG VALUE` pair spelt `FLAG=VALUE`; the switch --ideal stays."""
    out, tokens = [], iter(argv)
    for token in tokens:
        if token.startswith("--") and token not in ("--", "--ideal") and "=" not in token:
            value = next(tokens, None)
            out.append(token if value is None else f"{token}={value}")
        else:
            out.append(token)
    return out


@ARGV_PROPERTY
@given(st.one_of(PROTOCOL_ARGV, ERRMAP_ARGV, MONTECARLO_ARGV, DEVICE_ARGV))
@example(["protocol", "--delta", "1", "--theta1", "-1e-05"])
@example(["montecarlo", "--delta", "1", "--shots", "1000", "--phi", "-2.5e-4"])
@example(["device", "pulse-for-angle", "--angle", "-1e-3", "--duration", "1"])
@example(["device", "rashba-angle", "--alpha", "4e-11", "--length", "-1e-3"])
def test_flag_value_reads_the_same_in_either_spelling(argv):
    assert run_main(argv)[:2] == run_main(respelt(argv))[:2]  # exit status and stdout
