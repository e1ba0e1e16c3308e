"""Values and helpers that several test modules use; it holds no tests."""

import numpy as np
import pytest

import spinreadout.montecarlo
from spinreadout import AxisSpec, StateVector, basis_index

# `spinreadout errmap --panel a --resolution 3 --range1 0.25,0.75
# --range2 0.25,0.75`, byte for byte.
GOLDEN_CSV = (
    "axis1,axis2,Ebar\n"
    "0.25,0.25,0.385075576467\n"
    "0.25,0.5,0.253898598732\n"
    "0.25,0.75,0.167263130826\n"
    "0.5,0.25,0.253898598732\n"
    "0.5,0.5,0.145963290863\n"
    "0.5,0.75,0.0525865151669\n"
    "0.75,0.25,0.167263130826\n"
    "0.75,0.5,0.0525865151669\n"
    "0.75,0.75,0.00250187584989\n"
)


def one_hot(spin, mode, dim=4):
    """The basis state |spin; mode> of the `dim` layout."""
    return StateVector(np.eye(dim)[basis_index(spin, mode, dim)])


def forbid_work(monkeypatch):
    """Fail the test if an axis is sampled or a shot is drawn, so that a
    rejection is shown to come before any work."""
    monkeypatch.setattr(AxisSpec, "values", lambda self: pytest.fail("an axis was sampled"))
    monkeypatch.setattr(spinreadout.montecarlo, "_batch_rng", lambda *args: pytest.fail("a shot was drawn"))
