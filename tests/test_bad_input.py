"""The library's table of bad input: one row per bad argument to a public
function or value type.  A new bad input is one more row.

Each row is `(call, field, fragment)`: `call()` must raise a ValidationError
whose `field` is FIELD exactly and whose text contains FRAGMENT, the words
that tell the branch apart.  Every row runs with axis sampling and shot
drawing made to fail, so each also shows that the rejection comes first.  Like
every test, each row runs with warnings as errors, by the warnings rule in
`pyproject.toml`, so it also shows that the rejection warns of nothing.  The
command line's table is
`test_cli.py::test_bad_command_line_exits_2_naming_its_field`.
"""

import math

import numpy as np
import pytest

from spinreadout import (
    AxisSpec,
    DetectorModel,
    ErrorGrid,
    GateParams,
    PulseSpec,
    ReadoutProbabilities,
    ShotRecord,
    SpinInput,
    StateVector,
    Unitary,
    ValidationError,
    apply,
    basis_index,
    compose,
    dot_occupancy,
    effective_outcome_probability,
    measurement_error,
    panel_axes,
    probabilities_closed_form,
    pulse_for_angle,
    rashba_angle,
    rashba_length,
    rx_mode,
    rz_spin,
    sample_readout,
    sweep_grid,
    u2_general,
)
from spinreadout.core import MAX_ANGLE
from spinreadout.error_analysis import MAX_GRID_NODES
from spinreadout.montecarlo import MAX_SHOTS
from spinreadout.quadrature import integrate_adaptive

from shared import forbid_work, one_hot, row_ids

EYE4, EYE6 = np.eye(4), np.eye(6)
IDEAL = GateParams.ideal()
HALF = MAX_GRID_NODES // 2
# Past MAX_ANGLE by one ulp either way, or not a number at all.
BAD_ANGLES = [math.nan, math.inf, -math.inf, 1e308, math.nextafter(MAX_ANGLE, math.inf),
              -math.nextafter(MAX_ANGLE, math.inf)]


def identity_with(entry):
    """The 4x4 identity with one off-diagonal entry set: inf * 0 and 1e200 ** 2
    in U^dag U would warn if the check did not silence them."""
    m = np.eye(4, dtype=complex)
    m[1, 2] = entry
    return m


def gate_params_with(field, bad):
    return GateParams(**{"theta1": 0.1, "theta2": 0.2, "psi": 0.3, "phi": 0.4, field: bad})


def sample(shots=10, seed=1):
    return sample_readout(SpinInput(1.0), IDEAL, shots, seed)


ROWS = [
    # core: labels, layouts and the gate builders
    (lambda: basis_index("sideways", "0", 4), "spin", "'sideways'"),
    (lambda: basis_index("up", "0p", 4), "mode", "'0p'"),
    (lambda: basis_index("up", "0", 5), "dim", "unsupported dimension 5"),
    (lambda: rx_mode(0.1, ("0", "0p"), 4), "mode", "'0p'"),
    (lambda: rx_mode(0.1, ("0", "0"), 4), "mode_pair", "distinct"),
    (lambda: rz_spin(0.3, "0p", 4), "mode", "'0p'"),
    (lambda: dot_occupancy(one_hot("up", "0", 4), "0p"), "mode", "'0p'"),
    (lambda: rx_mode(math.inf), "theta", "not finite"),
    (lambda: rx_mode(math.nan), "theta", "not finite"),
    (lambda: u2_general(math.inf, 0.0), "psi", "not finite"),
    (lambda: u2_general(0.0, math.nan), "phi", "not finite"),
    (lambda: rz_spin(math.inf, "0"), "phi", "not finite"),
    (lambda: rz_spin(math.nan, "0"), "phi", "not finite"),
    # core: states, matrices and their products
    (lambda: StateVector(np.array([1.0, 1.0, 0.0, 0.0])), "amplitudes", "squared norm 2.0"),
    (lambda: StateVector(np.array([1.0, 0.0, 0.0])), "amplitudes", "length 4 or 6"),
    # abs(nan - 1) > ATOL is False, so a guard written that way would accept it.
    (lambda: StateVector(np.array([math.nan, 0, 0, 0])), "amplitudes", "squared norm nan"),
    (lambda: Unitary(np.ones((4, 4))), "matrix", "not unitary"),
    (lambda: Unitary(np.eye(3)), "matrix", "4x4 or 6x6"),
    (lambda: Unitary(np.full((4, 4), math.nan)), "matrix", "not unitary"),
    (lambda: Unitary(np.diag(np.full(4, math.inf))), "matrix", "not unitary"),
    *[(lambda e=e: Unitary(identity_with(e)), "matrix", "not unitary") for e in (math.inf, -math.inf, math.nan, 1e200)],
    (lambda: compose([]), "gates", "at least one gate"),
    (lambda: compose([Unitary(EYE4), Unitary(EYE6)]), "gates", "gate 1 has dim 6"),
    (lambda: compose([EYE4]), "gates", "gate 0 is a ndarray"),
    (lambda: compose([Unitary(EYE4), EYE4]), "gates", "gate 1 is a ndarray"),
    (lambda: apply(Unitary(EYE6), one_hot("up", "0", 4)), "dim", "does not match"),
    (lambda: apply(EYE4, one_hot("up", "0", 4)), "u", "expected a Unitary"),
    (lambda: apply(Unitary(EYE4), one_hot("up", "0", 4).amplitudes), "s", "expected a StateVector"),
    # core: the input spin and the gate set; u < nan is always False, so an
    # unchecked NaN angle would make sample_readout detect nothing, silently.
    (lambda: SpinInput(4.0), "delta", "4.0 outside [0, pi]"),
    (lambda: SpinInput(-0.1), "delta", "-0.1 outside [0, pi]"),
    (lambda: SpinInput(0.5, gamma=7.0), "gamma", "7.0 outside [0, 2*pi)"),
    *[(lambda f=f, b=b: gate_params_with(f, b), f, f"{b!r} outside [-1000, 1000]")
      for f in ("theta1", "theta2", "psi", "phi") for b in BAD_ANGLES],
    # protocol
    (lambda: ReadoutProbabilities(1.2, -0.2), "p_up", "1.2 outside [0, 1]"),
    (lambda: ReadoutProbabilities(0.6, 0.6), "p_up", "p_up + p_down = 1.2"),
    # error_analysis
    (lambda: probabilities_closed_form(IDEAL, 3.5), "delta", "3.5 outside"),
    (lambda: measurement_error(IDEAL, -0.1), "delta", "-0.1 outside"),
    (lambda: AxisSpec("theta3", 0, 1, 5), "axis", "'theta3'"),
    (lambda: AxisSpec(["theta1"], 0, 1, 2), "axis", "['theta1']"),
    (lambda: AxisSpec("theta1", 0, 1, 1), "resolution", "must be >= 2"),
    *[(lambda n=n: AxisSpec("theta1", 0, 1, n), "resolution", "not an integer") for n in (2.5, 2.0, True)],
    (lambda: AxisSpec("theta1", math.nan, 1, 5), "theta1.start", "nan outside"),
    (lambda: AxisSpec("theta1", 0, math.inf, 5), "theta1.stop", "inf outside"),
    # psi_phi_locked writes phi = 2v, so its ends are bounded by MAX_ANGLE / 2.
    (lambda: AxisSpec("psi_phi_locked", 0, 1000, 2), "psi_phi_locked.stop", "outside [-500, 500]"),
    (lambda: sweep_grid(AxisSpec("theta", 0, 1, 2), AxisSpec("psi_phi_locked", 0, 1e308, 2), IDEAL),
     "psi_phi_locked.stop", "1e+308 outside"),
    (lambda: sweep_grid(AxisSpec("theta", 0, 1, 3), AxisSpec("theta1", 0, 1, 3), IDEAL), "axis2", "overlaps"),
    # The shared gates are listed in axis order, whatever the hash seed.
    (lambda: sweep_grid(AxisSpec("theta", 0, 1, 2), AxisSpec("theta", 0, 1, 2), IDEAL), "axis2", "on theta1, theta2"),
    (lambda: sweep_grid(AxisSpec("theta1", 0, 1, 2), AxisSpec("theta2", 0, 1, HALF + 1), IDEAL),
     "resolution", f"2 x {HALF + 1} = {2 * HALF + 2} nodes exceed {MAX_GRID_NODES}"),
    (lambda: panel_axes("d"), "panel", "'d'"),
    (lambda: panel_axes([]), "panel", "unknown panel []"),
    (lambda: ErrorGrid(AxisSpec("psi", 0, 1, 3), AxisSpec("phi", 0, 1, 3), IDEAL, np.zeros((2, 2))),
     "values", "grid shape (2, 2)"),
    (lambda: ErrorGrid(AxisSpec("psi", 0, 1, 2), AxisSpec("phi", 0, 1, 2), IDEAL, np.full((2, 2), np.nan)),
     "values", "not finite"),
    (lambda: integrate_adaptive(math.sin, 1.0, 0.0), "interval", "need a <= b"),
    # montecarlo
    (lambda: sample(shots=0), "shots", "must be >= 1"),
    (lambda: sample(shots=MAX_SHOTS + 1), "shots", f"{MAX_SHOTS + 1} exceeds {MAX_SHOTS}"),
    *[(lambda s=s: sample(shots=s), "shots", "not an integer") for s in (1.5, 1000.0, "1000", True)],
    (lambda: sample(seed=-1), "seed", "must be >= 0"),
    *[(lambda s=s: sample(seed=s), "seed", "not an integer") for s in (1.5, 2.0, None, False)],
    (lambda: DetectorModel(1.2, 0.0), "efficiency", "1.2 outside [0, 1]"),
    (lambda: DetectorModel(1.0, -0.1), "false_positive", "-0.1 outside [0, 1]"),
    (lambda: ShotRecord(10, 11, 0, 1.0, 1.0), "detected_dot1", "count 11 outside [0, 10]"),
    (lambda: effective_outcome_probability(1.5, DetectorModel()), "p_occupied", "1.5 outside [0, 1]"),
    (lambda: DetectorModel(math.nan, 0.0), "efficiency", "nan outside [0, 1]"),
    (lambda: DetectorModel(1.0, math.nan), "false_positive", "nan outside [0, 1]"),
    (lambda: ShotRecord(10, 5, 0, math.nan, 0.5), "estimated_p_up", "nan outside [0, 1]"),
    (lambda: ShotRecord(10, 5, 0, 0.5, math.nan), "analytic_p_up", "nan outside [0, 1]"),
    (lambda: effective_outcome_probability(math.nan, DetectorModel()), "p_occupied", "nan outside [0, 1]"),
    # device
    (lambda: PulseSpec(()), "segments", "at least one segment"),
    (lambda: PulseSpec(((1.0, 0.0),)), "segments[0].duration", "must be > 0"),
    (lambda: PulseSpec(((math.nan, 1.0),)), "segments[0].amplitude", "not finite"),
    (lambda: PulseSpec(((1.0, math.inf),)), "segments[0].duration", "not finite"),
    (lambda: pulse_for_angle(1.0, -2.0), "duration", "must be > 0"),
    (lambda: rashba_length(0.0, 0.026, 1.0), "alpha", "must be > 0"),
    (lambda: rashba_length(math.nan, 0.026, 1.0), "alpha", "not finite"),
    (lambda: rashba_length(1e-11, -1.0, 1.0), "effective_mass", "must be > 0"),
    (lambda: rashba_length(4e-11, math.inf, 1.0), "effective_mass", "not finite"),
    (lambda: rashba_length(4e-11, 0.026, math.nan), "target_angle", "not finite"),
    (lambda: rashba_angle(-1e-11, 0.026, 58.0), "alpha", "must be > 0"),
]


@pytest.mark.parametrize("call, field, fragment", ROWS, ids=row_ids(ROWS))
def test_bad_input_raises_validation_error_naming_its_field(monkeypatch, call, field, fragment):
    forbid_work(monkeypatch)
    with pytest.raises(ValidationError) as err:
        call()
    assert err.value.field == field and fragment in str(err.value)


def test_sweep_grid_node_limit_is_checked_before_any_array(monkeypatch):
    class AxisSampled(Exception):
        pass

    def sampled(self):
        raise AxisSampled

    monkeypatch.setattr(AxisSpec, "values", sampled)
    # Exactly at the limit the sweep starts; one node past it is a row above.
    with pytest.raises(AxisSampled):
        sweep_grid(AxisSpec("theta1", 0, 1, 2), AxisSpec("theta2", 0, 1, HALF), IDEAL)
