"""Adaptive Simpson integration for piecewise-smooth scalar integrands, and the
quadrature route to Ebar that checks the analytic one independently."""

from __future__ import annotations

import math
from typing import Callable

from .core import GateParams, ValidationError
from .error_analysis import error_coefficients

# Deepest interval halving; a piece this small is accepted as it stands.
_MAX_DEPTH = 60


def _simpson(fa: float, fm: float, fb: float, width: float) -> float:
    return width * (fa + 4.0 * fm + fb) / 6.0


def _adapt(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    delta = left + right - whole
    # Richardson: the halved estimate is ~15x closer for smooth pieces.
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    half = 0.5 * tol
    return _adapt(f, a, m, fa, flm, fm, left, half, depth - 1) + _adapt(
        f, m, b, fm, frm, fb, right, half, depth - 1
    )


def integrate_adaptive(f: Callable[[float], float], a: float, b: float, tol: float = 1e-10) -> float:
    """Integrate f over [a, b] to absolute tolerance `tol`.

    Interval halving concentrates nodes around non-smooth points, so
    absolute-value integrands with isolated kinks converge as well.
    """
    if not a <= b:
        raise ValidationError("interval", f"need a <= b, got [{a!r}, {b!r}]")
    if tol <= 0:
        raise ValidationError("tol", f"tolerance must be positive, got {tol!r}")
    if a == b:
        return 0.0
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    return _adapt(f, a, b, fa, fm, fb, _simpson(fa, fm, fb, b - a), tol, _MAX_DEPTH)


def avg_abs_error_quadrature(params: GateParams) -> float:
    """Average of |E| over delta uniform on [0, pi], integrated numerically to
    absolute tolerance 1e-10: an independent check of `avg_abs_error`."""
    c0, c1 = error_coefficients(params)
    integral = integrate_adaptive(lambda d: abs(c0 + c1 * math.cos(d)), 0.0, math.pi, tol=1e-10)
    return integral / math.pi
