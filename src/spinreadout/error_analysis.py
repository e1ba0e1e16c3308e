"""Closed-form readout probabilities under imperfect gates and averaged error surfaces.

For gate angles (theta1, theta2, psi, phi) and input polar angle delta, the
assigned probabilities have the closed form

    p_up   = sin^2(theta1 - theta2) + A
    p_down = cos^2(theta1 - theta2) - A
    A      = (1/2) sin(2 theta1) sin(2 theta2)
             * (1 + cos(psi) cos(phi/2) + sin(psi) sin(phi/2) cos(delta))

The signed error against a perfect apparatus, E = p_up - cos^2(delta/2), is
affine in cos(delta):

    E(delta) = c0 + c1 cos(delta),   c1 = (sin(2 theta1) sin(2 theta2)
                                            sin(psi) sin(phi/2) - 1) / 2 <= 0,

so E is smallest at delta = 0 and largest at delta = pi.  The code writes the
formula once, as one kernel for (c0, c1) that runs on math floats, numpy
arrays or sympy symbols; p_up = cos^2(delta/2) + E is a view of it.  The
averaged figure of merit Ebar = (1/pi) * int_0^pi |E| d(delta) has an exact
piecewise form (|E| kinks where c0 + c1 cos(delta) = 0).
Probabilities are asserted to land in [0, 1], never clamped.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .core import ATOL, MAX_ANGLE, GateParams, ValidationError, check_angle, check_delta, check_integer
from .protocol import ReadoutProbabilities

DEFAULT_RESOLUTION = 101
# Largest grid sweep_grid builds.  By tracemalloc, an errmap run peaks at about
# 95 B per node for CSV (201^2 to 1000^2; 86 B of it in grid_to_csv, which holds
# its 43 B of text twice, as blocks and then joined) and 75 B per node for
# JSON (201^2 to 801^2), so 4e6 nodes (2000^2) cap one run at about 0.4 GB.
MAX_GRID_NODES = 4_000_000
DEFAULT_THETA_RANGE = (0.0, math.pi / 2)
DEFAULT_PHASE_RANGE = (0.0, 2 * math.pi)

# The (gate angle, scale) pairs an axis value v writes as scale * v; "theta"
# locks theta1 = theta2 = v and "psi_phi_locked" locks psi = v, phi = 2v.
_AXIS_TARGETS = {
    "theta1": (("theta1", 1.0),),
    "theta2": (("theta2", 1.0),),
    "psi": (("psi", 1.0),),
    "phi": (("phi", 1.0),),
    "theta": (("theta1", 1.0), ("theta2", 1.0)),
    "psi_phi_locked": (("psi", 1.0), ("phi", 2.0)),
}

AXIS_NAMES = tuple(_AXIS_TARGETS)

# Preset panels: the name and default range of each axis.
_PANELS = {
    "a": (("theta1", DEFAULT_THETA_RANGE), ("theta2", DEFAULT_THETA_RANGE)),
    "b": (("psi", DEFAULT_PHASE_RANGE), ("phi", DEFAULT_PHASE_RANGE)),
    "c": (("theta", DEFAULT_THETA_RANGE), ("psi_phi_locked", DEFAULT_PHASE_RANGE)),
}
PANELS = tuple(_PANELS)


def _coefficients(xp, theta1, theta2, psi, phi):
    """(c0, c1) of E(delta) = c0 + c1 cos(delta), with sin and cos from xp: math, numpy or sympy."""
    s = xp.sin(2 * theta1) * xp.sin(2 * theta2)
    c0 = xp.sin(theta1 - theta2) ** 2 + 0.5 * s * (1.0 + xp.cos(psi) * xp.cos(phi / 2)) - 0.5
    c1 = 0.5 * (s * xp.sin(psi) * xp.sin(phi / 2) - 1.0)
    return c0, c1


def _ebar(c0, c1):
    """Exact Ebar = (1/pi) int_0^pi |c0 + c1 cos(delta)| d(delta), elementwise: split
    at the kink arccos(-c0/c1) when |c0| < |c1|, else E keeps one sign and the
    cosine term integrates to zero."""
    kinked = np.abs(c0) < np.abs(c1)
    # Off the kink branch -c0/c1 may be 0/0 or outside [-1, 1]; np.where drops it.
    with np.errstate(divide="ignore", invalid="ignore"):
        kink = np.arccos(np.divide(-c0, c1))
    swing = c1 * np.sin(kink)
    left = c0 * kink + swing
    right = c0 * (np.pi - kink) - swing
    return np.where(kinked, (np.abs(left) + np.abs(right)) / np.pi, np.abs(c0))


def error_coefficients(params: GateParams) -> tuple[float, float]:
    """Coefficients (c0, c1) of the affine error E(delta) = c0 + c1 cos(delta)."""
    return _coefficients(math, params.theta1, params.theta2, params.psi, params.phi)


def probabilities_closed_form(params: GateParams, delta: float) -> ReadoutProbabilities:
    """Evaluate the closed-form p_up/p_down for an input polar angle delta.

    p_up = cos^2(delta/2) + c0 + c1 cos(delta), grouped so that it is exactly 0
    when both tunneling angles are 0 (c0 = c1 = -1/2).
    """
    check_delta(delta)
    c0, c1 = error_coefficients(params)
    p_up = (c0 + 0.5) + (c1 + 0.5) * math.cos(delta)
    return ReadoutProbabilities(p_up=p_up, p_down=1.0 - p_up)


def measurement_error(params: GateParams, delta: float) -> float:
    """Signed error E = p_up - cos^2(delta/2) of the imperfect apparatus."""
    check_delta(delta)
    c0, c1 = error_coefficients(params)
    return c0 + c1 * math.cos(delta)


def avg_abs_error(params: GateParams) -> float:
    """Average of |E| over delta uniform on [0, pi], integrated piecewise exactly."""
    return float(_ebar(*error_coefficients(params)))


class ExtremalError(NamedTuple):
    e_min: float
    e_max: float


def extremal_error(params: GateParams) -> ExtremalError:
    """Error extremes over all inputs: since c1 <= 0, the minimum E(0) = c0 + c1
    sits at delta = 0 and the maximum E(pi) = c0 - c1 at delta = pi."""
    c0, c1 = error_coefficients(params)
    return ExtremalError(c0 + c1, c0 - c1)


@dataclass(frozen=True)
class AxisSpec:
    """One swept gate parameter: its name, range, and point count."""

    name: str
    start: float
    stop: float
    num: int

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ValidationError("axis", f"unknown axis name {self.name!r}, expected one of {AXIS_NAMES}")
        check_integer("resolution", self.num, minimum=2)
        # The axis writes scale * v, so every gate angle it sets stays within MAX_ANGLE.
        bound = MAX_ANGLE / max(scale for _, scale in _AXIS_TARGETS[self.name])
        check_angle(f"{self.name}.start", self.start, bound)
        check_angle(f"{self.name}.stop", self.stop, bound)

    @property
    def gates(self) -> tuple[str, ...]:
        """The gate angles this axis writes."""
        return tuple(gate for gate, _ in _AXIS_TARGETS[self.name])

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.num)


def check_axis_pair(name1: str, name2: str) -> None:
    """Reject an unknown name for axis 1 or 2, then two axes that write a common gate."""
    for field, name in (("axis1", name1), ("axis2", name2)):
        if name not in AXIS_NAMES:
            raise ValidationError(field, f"unknown axis {name!r}, expected one of {AXIS_NAMES}")
    shared = ", ".join(gate for gate, _ in _AXIS_TARGETS[name1] if gate in dict(_AXIS_TARGETS[name2]))
    if shared:
        raise ValidationError("axis2", f"axis {name2!r} overlaps axis {name1!r} on {shared}")


@dataclass(frozen=True, eq=False)
class ErrorGrid:
    """Rectangular sweep of the averaged error, row-major with axis1 slowest."""

    axis1: AxisSpec
    axis2: AxisSpec
    fixed: GateParams
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.shape != (self.axis1.num, self.axis2.num):
            raise ValidationError(
                "values",
                f"grid shape {vals.shape} does not match axes ({self.axis1.num}, {self.axis2.num})",
            )
        if not np.all(np.isfinite(vals) & (vals >= -ATOL) & (vals <= 1.0 + ATOL)):
            raise ValidationError("values", "averaged error is not finite or escaped [0, 1]")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def sweep_grid(axis1: AxisSpec, axis2: AxisSpec, fixed: GateParams) -> ErrorGrid:
    """Evaluate the averaged error at every node of a two-axis sweep.

    Axis 1 runs down the rows and axis 2 along the columns, so the values are
    row-major with axis 1 slowest.  A grid of more than MAX_GRID_NODES nodes
    is rejected before any array is built.
    """
    nodes = axis1.num * axis2.num
    if nodes > MAX_GRID_NODES:
        raise ValidationError(
            "resolution", f"{axis1.num} x {axis2.num} = {nodes} nodes exceed {MAX_GRID_NODES}"
        )
    check_axis_pair(axis1.name, axis2.name)
    gates = asdict(fixed)
    for axis, values in ((axis1, axis1.values()[:, None]), (axis2, axis2.values()[None, :])):
        for gate, scale in _AXIS_TARGETS[axis.name]:
            gates[gate] = scale * values
    return ErrorGrid(axis1, axis2, fixed, _ebar(*_coefficients(np, **gates)))


def panel_axes(
    panel: str,
    resolution: int = DEFAULT_RESOLUTION,
    range1: tuple[float, float] | None = None,
    range2: tuple[float, float] | None = None,
) -> tuple[AxisSpec, AxisSpec, GateParams]:
    """Preset two-parameter slices of the error surface.

    a: tunneling angles theta1 vs theta2, phases ideal;
    b: phases psi vs phi, tunneling angles ideal;
    c: locked pair theta1 = theta2 = theta vs psi, with phi locked to 2 psi.
    """
    if panel not in PANELS:
        raise ValidationError("panel", f"unknown panel {panel!r}, expected one of {PANELS}")
    (name1, default1), (name2, default2) = _PANELS[panel]
    r1 = range1 if range1 is not None else default1
    r2 = range2 if range2 is not None else default2
    return AxisSpec(name1, *r1, resolution), AxisSpec(name2, *r2, resolution), GateParams.ideal()
