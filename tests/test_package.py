"""The package root: `import spinreadout` loads no submodule, each public name
loads only the submodule that defines it, importing the command line loads no
numpy.random, and `__all__` is the public surface."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinreadout

SUBMODULES = ("core", "device", "error_analysis", "montecarlo", "protocol")

PUBLIC = {
    "AxisSpec", "DetectorModel", "ErrorGrid", "ExtremalError", "GateParams", "PulseSpec",
    "ReadoutProbabilities", "ShotRecord", "SpinInput", "StateVector", "Unitary", "ValidationError",
    "apply", "avg_abs_error", "basis_index", "compose", "dot_occupancy",
    "effective_outcome_probability", "error_coefficients", "extremal_error", "measurement_error",
    "noisy_sequence", "occupancies", "panel_axes", "probabilities_closed_form", "pulse_angle",
    "pulse_for_angle", "rashba_angle", "rashba_length", "run_readout", "rx_mode", "rz_spin",
    "sample_readout", "sweep_grid", "three_dot_sequence", "u2_general",
}


def _loaded_after(statement: str) -> list[str]:
    """The spinreadout submodules and numpy.random modules that `statement`
    loads in a fresh interpreter that has imported numpy, so what numpy itself
    loads is not counted."""
    src = str(Path(spinreadout.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    setup = "import sys, numpy; before = set(sys.modules)"
    report = "print(*sorted(m for m in set(sys.modules) - before if m.startswith(('spinreadout.', 'numpy.random'))))"
    result = subprocess.run(
        [sys.executable, "-c", f"{setup}\n{statement}\n{report}"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_bare_import_loads_no_submodule():
    assert _loaded_after("import spinreadout") == []


def test_a_public_name_loads_only_its_submodule():
    assert _loaded_after("from spinreadout import GateParams") == ["spinreadout.core"]


def test_each_submodule_is_an_attribute_after_a_bare_import():
    statement = f"import spinreadout\nfor m in {SUBMODULES!r}: getattr(spinreadout, m).__name__"
    assert _loaded_after(statement) == [f"spinreadout.{m}" for m in SUBMODULES]


def test_importing_the_command_line_loads_no_numpy_random():
    # Loading numpy.random adds about 14 ms and 6 MB to a command; only sampling needs it.
    assert not [m for m in _loaded_after("import spinreadout.cli") if m.startswith("numpy.random")]


def test_star_import_binds_every_public_name_from_its_submodule():
    namespace = {}
    exec("from spinreadout import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == PUBLIC
    for name, value in namespace.items():
        assert value is getattr(importlib.import_module(value.__module__), name)
        assert value.__module__.removeprefix("spinreadout.") in SUBMODULES


def test_a_removed_helper_is_not_importable():
    for name in ("RashbaSpec", "basis_state", "identity", "ideal_sequence", "three_dot_coupler", "u2_ideal"):
        with pytest.raises(ImportError, match=name):
            exec(f"from spinreadout import {name}", {})


def test_dir_lists_every_public_name():
    assert set(spinreadout.__all__) <= set(dir(spinreadout))


def test_an_unknown_attribute_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        spinreadout.no_such_name
