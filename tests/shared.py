"""Values and helpers that several test modules use; it holds no tests."""

import contextlib
import io
import linecache
import math
import os

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

import spinreadout.montecarlo
from spinreadout import AxisSpec, GateParams, StateVector, basis_index
from spinreadout.cli import main
from spinreadout.core import MAX_ANGLE

# The whole supported domain of the gate angles and of the input spin.
DELTAS = st.floats(0.0, math.pi)
GAMMAS = st.floats(0.0, 2 * math.pi, exclude_max=True)
GATE_ANGLES = st.floats(-MAX_ANGLE, MAX_ANGLE)
ALL_GATES = st.builds(GateParams, GATE_ANGLES, GATE_ANGLES, GATE_ANGLES, GATE_ANGLES)
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)

# What `spinreadout GOLDEN_ARGS` prints, byte for byte.
GOLDEN_ARGS = ["errmap", "--panel", "a", "--resolution", "3", "--range1", "0.25,0.75", "--range2", "0.25,0.75"]
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
    monkeypatch.setattr(spinreadout.montecarlo, "_seed_words", lambda *args: pytest.fail("a shot was drawn"))


def use_cpus(monkeypatch, n):
    """Make the process look allowed to run on `n` CPUs, so that
    `sample_readout` splits its batches into at most `n` shares."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def run_main(argv):
    """Run one command in-process: its exit status, stdout and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def row_ids(rows):
    """Each table row's test id: the source line of its call, so that a failure
    names the call and a new row renames no other."""
    return [linecache.getline(call.__code__.co_filename, call.__code__.co_firstlineno).strip()
            for call, *_ in rows]
