"""Property tests of the error-surface identities over finite gate angles, of
the gate constructors and readout propagation over the whole angle domain,
and of the grid CSV bytes against a per-cell reference.

Runs are derandomized, so every run draws the same examples.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spinreadout.protocol
from spinreadout import (
    AxisSpec,
    DetectorModel,
    GateParams,
    SpinInput,
    ValidationError,
    avg_abs_error,
    compose,
    error_coefficients,
    extremal_error,
    measurement_error,
    noisy_sequence,
    panel_axes,
    run_readout,
    rx_mode,
    sample_readout,
    rz_spin,
    sweep_grid,
    u2_general,
)
from spinreadout.cli import grid_to_csv
from spinreadout.core import ATOL, MAX_ANGLE
from spinreadout.quadrature import avg_abs_error_quadrature

ANGLES = st.floats(-4 * math.pi, 4 * math.pi)
GATES = st.builds(GateParams, ANGLES, ANGLES, ANGLES, ANGLES)
DELTAS = st.floats(0.0, math.pi)
GATE_ANGLES = st.floats(-MAX_ANGLE, MAX_ANGLE)
ALL_GATES = st.builds(GateParams, GATE_ANGLES, GATE_ANGLES, GATE_ANGLES, GATE_ANGLES)
GAMMAS = st.floats(0.0, 2 * math.pi, exclude_max=True)
PROBABILITIES = st.floats(0.0, 1.0)
DETECTORS = st.builds(DetectorModel, PROBABILITIES, PROBABILITIES)
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)

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


@PROPERTY
@given(
    pair=st.sampled_from(AXIS_PAIRS),
    fixed=GATES,
    range1=st.tuples(ANGLES, ANGLES),
    range2=st.tuples(ANGLES, ANGLES),
    nums=st.tuples(st.integers(2, 5), st.integers(2, 5)),
)
def test_grid_nodes_equal_scalar_ebar(pair, fixed, range1, range2, nums):
    axis1 = AxisSpec(pair[0], *range1, nums[0])
    axis2 = AxisSpec(pair[1], *range2, nums[1])
    grid = sweep_grid(axis1, axis2, fixed)
    for i, v1 in enumerate(axis1.values()):
        for j, v2 in enumerate(axis2.values()):
            angles = {**vars(fixed), **AXIS_WRITES[pair[0]](float(v1)), **AXIS_WRITES[pair[1]](float(v2))}
            assert abs(grid.values[i, j] - avg_abs_error(GateParams(**angles))) <= 1e-15


@PROPERTY
@given(GATES)
def test_analytic_ebar_matches_quadrature(params):
    assert abs(avg_abs_error(params) - avg_abs_error_quadrature(params)) <= 1e-9


@PROPERTY
@given(GATES)
def test_ebar_lies_in_unit_interval(params):
    assert 0.0 <= avg_abs_error(params) <= 1.0


@PROPERTY
@given(GATES)
def test_error_slope_is_never_positive(params):
    assert error_coefficients(params)[1] <= 0.0


@PROPERTY
@given(GATES, DELTAS)
def test_error_extremes_sit_at_zero_and_pi(params, delta):
    extremes = extremal_error(params)
    assert extremes.e_min <= measurement_error(params, delta) <= extremes.e_max


def unitarity_defect(gate):
    m = gate.matrix
    return np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))


@PROPERTY
@given(GATE_ANGLES, GATE_ANGLES)
def test_gate_constructors_are_unitary(a, b):
    gates = [
        rx_mode(a, ("0", "1"), 4),
        rx_mode(a, ("0", "0p"), 6),
        u2_general(a, b),
        rz_spin(a, "0", 4),
        rz_spin(a, "1", 6),
    ]
    for gate in gates:
        assert unitarity_defect(gate) <= ATOL


@PROPERTY
@given(ALL_GATES)
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
def test_run_readout_keeps_the_norm(params, delta, gamma):
    state, probs = run_readout(SpinInput(delta, gamma), params)
    assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) <= ATOL
    assert abs(probs.p_up + probs.p_down - 1.0) <= ATOL


@PROPERTY
@given(ALL_GATES, DELTAS, GAMMAS, DETECTORS, st.integers(0, 2**63))
# p_up of this gate set rounds to 1 + 4.4e-16, within ATOL of 1.
@example(GateParams(-3.9269908169872414, -3.9269908169872414, math.pi / 2, math.pi),
         0.0, 0.0, DetectorModel.ideal(), 0)
def test_sample_readout_accepts_every_valid_input(params, delta, gamma, detector, seed):
    record = sample_readout(SpinInput(delta, gamma), params, 10, seed, detector)
    assert 0 <= record.detected_dot1 <= 10 and record.seed == seed
    p_up = run_readout(SpinInput(delta, gamma), params)[1].p_up
    expected = p_up * detector.efficiency + (1.0 - p_up) * detector.false_positive
    assert abs(record.analytic_p_up - expected) <= ATOL


def test_noisy_sequence_checks_its_gate_stack(monkeypatch):
    # The product of three gates scaled by 1.01 is off by far more than ATOL
    # too, so checking only the product would also fire; scale one gate and
    # undo the scale on the other so the product stays unitary.
    rx_matrix = spinreadout.protocol._rx_matrix
    scales = iter([1.01, 1 / 1.01])
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
    got, want = grid_to_csv(grid).split("\n"), reference_csv(grid).split("\n")
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
    fixed=GATES,
    range1=st.tuples(CSV_BOUNDS, CSV_BOUNDS),
    range2=st.tuples(CSV_BOUNDS, CSV_BOUNDS),
    nums=st.tuples(st.integers(2, 40), st.integers(2, 40)),
)
@example(("theta1", "phi"), GateParams.ideal(), (0.0, -0.0), (1e-13, 1e-05), (3, 4))
@example(("theta", "psi_phi_locked"), GateParams.ideal(), (-1e-05, 1 / 3), (1e-13, -0.0), (7, 2))
def test_grid_csv_equals_per_cell_format(pair, fixed, range1, range2, nums):
    assert_csv_matches_reference(
        sweep_grid(AxisSpec(pair[0], *range1, nums[0]), AxisSpec(pair[1], *range2, nums[1]), fixed)
    )


def test_panel_csv_equals_per_cell_format():
    for panel in ("a", "b", "c"):
        assert_csv_matches_reference(sweep_grid(*panel_axes(panel, 101)))
