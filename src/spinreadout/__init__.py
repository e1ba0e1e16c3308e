"""spinreadout: simulate and analyze single-spin readout via spin-to-charge
conversion in a double (or triple) quantum dot.

`import spinreadout` loads no submodule: the first use of a public name, or of
a submodule such as `spinreadout.core`, imports the submodule that defines it.
"""

import importlib

__version__ = "0.1.0"

# Each public name, under the submodule that defines it.
_EXPORTS = {
    "core": (
        "GateParams", "SpinInput", "StateVector", "Unitary", "ValidationError", "apply",
        "basis_index", "compose", "rx_mode", "rz_spin", "u2_general",
    ),
    "device": (
        "PulseSpec", "pulse_angle", "pulse_for_angle", "rashba_angle", "rashba_length",
    ),
    "error_analysis": (
        "AxisSpec", "ErrorGrid", "ExtremalError", "avg_abs_error", "error_coefficients",
        "extremal_error", "measurement_error", "panel_axes", "probabilities_closed_form",
        "sweep_grid",
    ),
    "montecarlo": (
        "DetectorModel", "ShotRecord", "effective_outcome_probability", "sample_readout",
    ),
    "protocol": (
        "ReadoutProbabilities", "dot_occupancy", "noisy_sequence", "occupancies",
        "run_readout", "three_dot_sequence",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    """Import the submodule `name`, or the one that defines `name`, and keep
    the public value in the package so that the next lookup is direct."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
