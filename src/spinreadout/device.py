"""Control-to-angle calculators: pulse areas for tunneling rotations and
spin-orbit region lengths for spin rotations.

The tunneling angle follows theta = -integral(tau dt)/hbar for a piecewise
constant coupling pulse.  The spin-orbit precession angle accumulated while
crossing a region of length L with coupling alpha follows

    theta(L) = 2 m* alpha L / hbar^2

with the effective mass m* in units of the free-electron mass.  Under this
convention m* = 0.026 puts the pi/2-rotation length at 58 nm for InAs
(alpha = 4e-11 eV m) and 250 nm for InGaAs/InAlAs (alpha = 0.93e-11 eV m)
to within 2%.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import ValidationError, check_finite, check_positive

# Pinned physical constants; every interface takes the units its signature states.
HBAR_J_S = 1.054571817e-34  # reduced Planck constant
HBAR_UEV_PS = 0.6582119569  # the same constant in ueV*ps
ELECTRON_MASS_KG = 9.1093837015e-31
EV_TO_J = 1.602176634e-19

DEFAULT_EFFECTIVE_MASS = 0.026


@dataclass(frozen=True)
class PulseSpec:
    """Piecewise constant coupling pulse: (amplitude in ueV, duration in ps)
    per segment."""

    segments: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.segments:
            raise ValidationError("segments", "pulse needs at least one segment")
        for i, (amplitude, duration) in enumerate(self.segments):
            check_finite(f"segments[{i}].amplitude", amplitude)
            check_positive(f"segments[{i}].duration", duration)


def pulse_angle(spec: PulseSpec) -> float:
    """Tunneling rotation angle -sum(tau_i * dt_i)/hbar in radians."""
    area = sum(amplitude * duration for amplitude, duration in spec.segments)
    angle = 0.0 - area / HBAR_UEV_PS
    check_finite("angle", angle)
    return angle


def pulse_for_angle(target: float, duration_ps: float) -> float:
    """Constant amplitude (ueV) realizing `target` radians over `duration_ps`.

    Round-trips through pulse_angle to 1e-12 relative.
    """
    check_finite("target", target)
    check_positive("duration", duration_ps)
    amplitude = 0.0 - target * HBAR_UEV_PS / duration_ps
    check_finite("amplitude", amplitude)
    return amplitude


def _two_m_alpha(alpha_ev_m: float, effective_mass: float) -> float:
    """2 m* alpha in SI units (kg * J*m)."""
    return 2.0 * (effective_mass * ELECTRON_MASS_KG) * (alpha_ev_m * EV_TO_J)


def rashba_length(alpha_ev_m: float, effective_mass: float, target_angle: float) -> float:
    """Region length (nm) whose crossing rotates the spin by `target_angle`
    radians: L = target_angle * hbar^2 / (2 m* alpha).

    alpha_ev_m (eV*m) and effective_mass (free-electron masses) must be
    positive and finite, target_angle finite; they are checked in that order.
    """
    check_positive("alpha", alpha_ev_m)
    check_positive("effective_mass", effective_mass)
    check_finite("target_angle", target_angle)
    denominator = _two_m_alpha(alpha_ev_m, effective_mass)
    # A subnormal alpha underflows the denominator to 0: the length is out of range.
    length = target_angle * HBAR_J_S**2 / denominator * 1e9 if denominator else math.inf
    check_finite("length", length)
    return length


def rashba_angle(alpha_ev_m: float, effective_mass: float, length_nm: float) -> float:
    """Spin-rotation angle (radians) accumulated over `length_nm`.

    Inverse of rashba_length; the pair round-trips to 1e-12 relative.
    """
    check_positive("alpha", alpha_ev_m)
    check_positive("effective_mass", effective_mass)
    check_finite("length", length_nm)
    angle = _two_m_alpha(alpha_ev_m, effective_mass) * (length_nm * 1e-9) / HBAR_J_S**2
    check_finite("angle", angle)
    return angle
