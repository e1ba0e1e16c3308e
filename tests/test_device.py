import math

import pytest

from spinreadout import (
    PulseSpec,
    ValidationError,
    pulse_angle,
    pulse_for_angle,
    rashba_angle,
    rashba_length,
)
from spinreadout.device import HBAR_UEV_PS


def test_pulse_angle_inverts_defining_integral():
    spec = PulseSpec(((-math.pi / 4 * HBAR_UEV_PS / 2.0, 2.0),))
    assert pulse_angle(spec) == pytest.approx(math.pi / 4, rel=1e-12)


def test_pulse_angle_is_additive_over_segments():
    segment = (-math.pi / 8 * HBAR_UEV_PS / 1.5, 1.5)
    assert pulse_angle(PulseSpec((segment, segment))) == pytest.approx(math.pi / 4, rel=1e-12)


def test_pulse_angle_unit_area():
    # 1 ueV*ps of (negative) pulse area is about 1.5193 rad
    assert pulse_angle(PulseSpec(((-1.0, 1.0),))) == pytest.approx(1.5193, abs=1e-4)
    assert pulse_angle(PulseSpec(((-1.0, 1.0),))) == pytest.approx(1.0 / HBAR_UEV_PS, rel=1e-15)


def test_pulse_angle_linearity():
    base = pulse_angle(PulseSpec(((-0.4, 0.9),)))
    assert pulse_angle(PulseSpec(((-0.8, 0.9),))) == pytest.approx(2 * base, rel=1e-12)
    assert pulse_angle(PulseSpec(((-0.4, 1.8),))) == pytest.approx(2 * base, rel=1e-12)


def test_pulse_for_angle_round_trips():
    for target in (math.pi / 4, -1.3, 2.9):
        for duration in (0.1, 1.0, 7.5):
            amplitude = pulse_for_angle(target, duration)
            assert pulse_angle(PulseSpec(((amplitude, duration),))) == pytest.approx(
                target, rel=1e-12
            )
    assert pulse_for_angle(0.0, 1.0) == 0.0


def test_pulse_for_angle_reference_value():
    assert pulse_for_angle(math.pi / 4, 0.1) == pytest.approx(-5.1696, abs=1e-3)


def test_pulse_validation():
    with pytest.raises(ValidationError, match="segments"):
        PulseSpec(())
    with pytest.raises(ValidationError, match="duration"):
        PulseSpec(((1.0, 0.0),))
    with pytest.raises(ValidationError, match="duration"):
        pulse_for_angle(1.0, -2.0)
    with pytest.raises(ValidationError, match="not finite"):
        PulseSpec(((math.nan, 1.0),))
    with pytest.raises(ValidationError, match="not finite"):
        PulseSpec(((1.0, math.inf),))


def test_rashba_reference_lengths():
    inas = rashba_length(4e-11, 0.026, math.pi / 2)
    assert abs(inas - 58.0) / 58.0 < 0.02
    ingaas = rashba_length(0.93e-11, 0.026, math.pi / 2)
    assert abs(ingaas - 250.0) / 250.0 < 0.02


def test_rashba_length_scales_inversely_with_coupling():
    base = rashba_length(2e-11, 0.03, 1.0)
    assert rashba_length(4e-11, 0.03, 1.0) == pytest.approx(base / 2, rel=1e-12)


def test_rashba_length_times_alpha_and_mass_is_constant():
    angle = 0.8
    reference = None
    for alpha in (1e-11, 3e-11):
        for mass in (0.02, 0.067):
            product = rashba_length(alpha, mass, angle) * alpha * mass
            if reference is None:
                reference = product
            assert product == pytest.approx(reference, rel=1e-12)


def test_rashba_round_trip():
    for alpha, mass, angle in ((4e-11, 0.026, math.pi / 2), (1.2e-11, 0.05, 0.3)):
        length = rashba_length(alpha, mass, angle)
        assert rashba_angle(alpha, mass, length) == pytest.approx(angle, rel=1e-12)


def test_rashba_validation():
    with pytest.raises(ValidationError, match="alpha"):
        rashba_length(0.0, 0.026, 1.0)
    with pytest.raises(ValidationError, match="effective_mass"):
        rashba_length(1e-11, -1.0, 1.0)
    with pytest.raises(ValidationError, match="alpha"):
        rashba_angle(-1e-11, 0.026, 58.0)
    with pytest.raises(ValidationError, match="target_angle"):
        rashba_length(4e-11, 0.026, math.nan)
    with pytest.raises(ValidationError, match="alpha"):
        rashba_length(math.nan, 0.026, 1.0)
    with pytest.raises(ValidationError, match="effective_mass"):
        rashba_length(4e-11, math.inf, 1.0)
