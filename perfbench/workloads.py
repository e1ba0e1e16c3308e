"""The three benchmark workloads.

Each workload makes its inputs from a seed, one round of operations at a time,
runs one operation (`execute`, the timed call), checks its output against the
oracle or against properties the method must have (`check`, outside the
timed call), and keeps a seeded sample for the slower checks that `finish`
runs after the timed region.  No check compares against stored output.

Every call into spinreadout goes through a module attribute, so that the
tracer's rebinding of those names takes effect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

import spinreadout
import spinreadout.cli
from oracle import IDEAL, Readout

HALF_PI, TWO_PI = math.pi / 2, 2 * math.pi
CHECK_ATOL = 1e-12
QUAD_ATOL = 1e-8


class CheckFailed(AssertionError):
    pass


class OpFailed(RuntimeError):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(a: float, b: float, tol: float, what: str) -> None:
    _require(abs(a - b) <= tol, f"{what}: {a!r} vs {b!r} differ by {abs(a - b):.3e} > {tol:g}")


def _run_cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = spinreadout.cli.main(argv)
    if code != 0:
        raise OpFailed(f"spinreadout {' '.join(argv)} exited {code}")
    return out.getvalue()


def _set_axis(params: dict[str, float], axis: str, value: float) -> None:
    if axis == "theta":
        params["theta1"] = params["theta2"] = value
    elif axis == "psi_phi_locked":
        params["psi"], params["phi"] = value, 2 * value
    else:
        params[axis] = value


def _gate_tuple(params: dict[str, float]) -> tuple[float, float, float, float]:
    return params["theta1"], params["theta2"], params["psi"], params["phi"]


class Workload:
    name = ""
    unit_of_work = ""

    def __init__(self, seed: int, out_dir: Path):
        self.out_dir = out_dir
        self.rng = np.random.default_rng([seed, 0])  # inputs
        self.sample_rng = np.random.default_rng([seed, 1])  # which outputs get slow checks

    def next_round(self) -> list:
        raise NotImplementedError

    def execute(self, op):
        raise NotImplementedError

    def check(self, op, result) -> None:
        raise NotImplementedError

    def work(self, op) -> int:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks on the seeded sample, run once after the timed region."""


# --------------------------------------------------------------------- errmap

class GridCommand(NamedTuple):
    panel: str
    argv: list[str]
    path: Path
    axes: tuple[tuple[str, float, float], tuple[str, float, float]]
    fixed: dict[str, float]


# Panel axes and default ranges as the CLI documents them; the ideal gates sit
# on a node of each at any resolution of the form 4k + 1.
PANELS = {
    "a": (("theta1", 0.0, HALF_PI), ("theta2", 0.0, HALF_PI)),
    "b": (("psi", 0.0, TWO_PI), ("phi", 0.0, TWO_PI)),
    "c": (("theta", 0.0, HALF_PI), ("psi_phi_locked", 0.0, TWO_PI)),
}
IDEAL_NODE = {"a": (math.pi / 4, math.pi / 4), "b": (math.pi / 2, math.pi), "c": (math.pi / 4, math.pi / 2)}
CUSTOM_AXES = ("theta1", "phi")
GRID_RESOLUTION = 101  # the CLI's default
GRID_SAMPLES_PER_FILE = 3


class Errmap(Workload):
    """One round: panels a, b, c and the custom pair theta1 x phi, each written
    to a file with --output.  The custom command's ranges and fixed angles are
    drawn per round."""

    name = "errmap"
    unit_of_work = "grid nodes"

    def __init__(self, seed, out_dir, small=False):
        super().__init__(seed, out_dir)
        self.resolution = 5 if small else GRID_RESOLUTION
        self.samples: list[tuple[tuple[float, ...], float]] = []

    def _command(self, panel, axes, fixed, extra):
        path = self.out_dir / f"errmap-{panel}.csv"
        argv = ["errmap", "--panel", panel, "--resolution", str(self.resolution)]
        return GridCommand(panel, argv + extra + ["--output", str(path)], path, axes, fixed)

    def next_round(self):
        ideal = dict(zip(("theta1", "theta2", "psi", "phi"), IDEAL))
        ops = [self._command(p, PANELS[p], ideal, []) for p in ("a", "b", "c")]
        hi1 = float(self.rng.uniform(math.pi / 4, HALF_PI))
        hi2 = float(self.rng.uniform(math.pi, TWO_PI))
        theta2, psi = (float(v) for v in self.rng.uniform(0.0, TWO_PI, 2))
        fixed = {"theta1": IDEAL[0], "theta2": theta2, "psi": psi, "phi": IDEAL[3]}
        axes = ((CUSTOM_AXES[0], 0.0, hi1), (CUSTOM_AXES[1], 0.0, hi2))
        extra = [
            "--axis1", CUSTOM_AXES[0], "--axis2", CUSTOM_AXES[1],
            "--range1", f"0,{hi1!r}", "--range2", f"0,{hi2!r}",
            "--theta2", repr(theta2), "--psi", repr(psi),
        ]
        ops.append(self._command("custom", axes, fixed, extra))
        return ops

    def execute(self, op):
        return _run_cli(op.argv)

    def work(self, op):
        return self.resolution ** 2

    def check(self, op, result):
        n = self.resolution
        with open(op.path, encoding="utf-8", newline="") as fh:
            _require(fh.readline() == "axis1,axis2,Ebar\n", f"{op.panel}: bad CSV header")
        data = np.loadtxt(op.path, delimiter=",", skiprows=1, ndmin=2)
        _require(data.shape == (n * n, 3), f"{op.panel}: {data.shape[0] + 1} rows, expected {n * n + 1}")
        (name1, lo1, hi1), (name2, lo2, hi2) = op.axes
        v1, v2 = np.linspace(lo1, hi1, n), np.linspace(lo2, hi2, n)
        # .12g keeps 12 significant digits, so axis values agree to ~5e-13 relative.
        _require(np.allclose(data[:, 0], np.repeat(v1, n), rtol=1e-11, atol=1e-12),
                 f"{op.panel}: axis-1 column is not linspace({lo1}, {hi1}) with axis 1 slowest")
        _require(np.allclose(data[:, 1], np.tile(v2, n), rtol=1e-11, atol=1e-12),
                 f"{op.panel}: axis-2 column is not linspace({lo2}, {hi2}) with axis 2 fastest")
        ebar = data[:, 2].reshape(n, n)
        _require(bool(np.all((ebar >= 0.0) & (ebar <= 1.0))), f"{op.panel}: Ebar outside [0, 1] or NaN")
        if op.panel == "a":
            asym = float(np.max(np.abs(ebar - ebar.T)))
            _require(asym <= CHECK_ATOL, f"a: not symmetric under theta1 <-> theta2 ({asym:.3e})")
        if op.panel in IDEAL_NODE:
            t1, t2 = IDEAL_NODE[op.panel]
            i, j = int(np.argmin(np.abs(v1 - t1))), int(np.argmin(np.abs(v2 - t2)))
            _require(abs(v1[i] - t1) < 1e-9 and abs(v2[j] - t2) < 1e-9, f"{op.panel}: no ideal node")
            _require(ebar[i, j] <= CHECK_ATOL, f"{op.panel}: Ebar = {ebar[i, j]!r} at the ideal node")
        for _ in range(GRID_SAMPLES_PER_FILE):
            i, j = (int(k) for k in self.sample_rng.integers(n, size=2))
            params = dict(op.fixed)
            _set_axis(params, name1, float(v1[i]))
            _set_axis(params, name2, float(v2[j]))
            self.samples.append((_gate_tuple(params), float(ebar[i, j])))

    def finish(self):
        for gates, value in self.samples:
            _close(value, Readout(*gates).ebar(), QUAD_ATOL, f"errmap Ebar{gates} vs quadrature")


# ------------------------------------------------------------ readout-queries

class Query(NamedTuple):
    gates: tuple[float, float, float, float]
    delta: float
    gamma: float
    params: spinreadout.GateParams
    spin: spinreadout.SpinInput


QUERY_ROUND = 100
QUERY_QUAD_EVERY = 200


class ReadoutQueries(Workload):
    """One query: run_readout, probabilities_closed_form, avg_abs_error
    (analytic) and extremal_error on one seeded (GateParams, SpinInput) draw."""

    name = "readout-queries"
    unit_of_work = "queries"

    def __init__(self, seed, out_dir, small=False):
        super().__init__(seed, out_dir)
        self.round_size = 10 if small else QUERY_ROUND
        self.count = 0
        self.samples: list[tuple[tuple[float, ...], float]] = []

    def next_round(self):
        draws = self.rng.uniform(0.0, 1.0, size=(self.round_size, 6))
        ops = []
        for row in draws:
            gates = tuple(float(v) * TWO_PI for v in row[:4])
            delta, gamma = float(row[4]) * math.pi, float(row[5]) * TWO_PI
            ops.append(Query(gates, delta, gamma, spinreadout.GateParams(*gates),
                             spinreadout.SpinInput(delta, gamma)))
        return ops

    def execute(self, q):
        _, probs = spinreadout.protocol.run_readout(q.spin, q.params)
        closed = spinreadout.error_analysis.probabilities_closed_form(q.params, q.delta)
        ebar = spinreadout.error_analysis.avg_abs_error(q.params)
        extremes = spinreadout.error_analysis.extremal_error(q.params)
        return probs, closed, ebar, extremes

    def work(self, op):
        return 1

    def check(self, q, result):
        probs, closed, ebar, extremes = result
        ref = Readout(*q.gates)
        p_ref = ref.p_up(q.delta, q.gamma)
        _close(closed.p_up, probs.p_up, CHECK_ATOL, "closed-form vs matrix-path p_up")
        _close(probs.p_up, p_ref, CHECK_ATOL, "matrix-path vs oracle p_up")
        _close(closed.p_up, p_ref, CHECK_ATOL, "closed-form vs oracle p_up")
        _close(probs.p_up + probs.p_down, 1.0, CHECK_ATOL, "matrix-path p_up + p_down")
        _close(closed.p_up + closed.p_down, 1.0, CHECK_ATOL, "closed-form p_up + p_down")
        _close(extremes.e_min, ref.error(0.0), CHECK_ATOL, "e_min vs oracle E(0)")
        _close(extremes.e_max, ref.error(math.pi), CHECK_ATOL, "e_max vs oracle E(pi)")
        e = probs.p_up - math.cos(q.delta / 2) ** 2
        _require(extremes.e_min - CHECK_ATOL <= e <= extremes.e_max + CHECK_ATOL,
                 f"E(delta={q.delta!r}) = {e!r} outside [{extremes.e_min!r}, {extremes.e_max!r}]")
        _require(0.0 <= ebar <= 1.0, f"Ebar = {ebar!r} outside [0, 1]")
        if self.count % QUERY_QUAD_EVERY == 0:
            self.samples.append((q.gates, ebar))
        self.count += 1

    def finish(self):
        for gates, value in self.samples:
            _close(value, Readout(*gates).ebar(), QUAD_ATOL, f"avg_abs_error{gates} vs quadrature")


# -------------------------------------------------------------- shot-sampling

class ShotCommand(NamedTuple):
    argv: list[str]
    gates: tuple[float, float, float, float]
    delta: float
    gamma: float
    efficiency: float
    false_positive: float
    seed: int


SHOTS = 1_000_000
SHOT_ROUND = 8
SHOT_RERUNS = 8
BINOMIAL_SIGMAS = 6.0


def _shot_argv(gates, delta, gamma, efficiency, false_positive, seed, shots):
    return [
        "montecarlo", "--delta", repr(delta), "--gamma", repr(gamma),
        "--theta1", repr(gates[0]), "--theta2", repr(gates[1]),
        "--psi", repr(gates[2]), "--phi", repr(gates[3]),
        "--shots", str(shots), "--seed", str(seed),
        "--efficiency", repr(efficiency), "--false-positive", repr(false_positive),
    ]


class ShotSampling(Workload):
    """`montecarlo` commands at one fixed shot count; delta, gamma, the gate
    angles, the detector and the sampling seed are drawn per command."""

    name = "shot-sampling"
    unit_of_work = "shots"

    def __init__(self, seed, out_dir, small=False):
        super().__init__(seed, out_dir)
        self.shots = 1000 if small else SHOTS
        self.samples: list[tuple[ShotCommand, str]] = []

    def next_round(self):
        ops = []
        for _ in range(SHOT_ROUND):
            u = self.rng.uniform(0.0, 1.0, size=8)
            gates = tuple(float(v) * TWO_PI for v in u[:4])
            delta, gamma = float(u[4]) * math.pi, float(u[5]) * TWO_PI
            efficiency, false_positive = 0.5 + 0.45 * float(u[6]), 0.2 * float(u[7])
            seed = int(self.rng.integers(0, 2**31))
            argv = _shot_argv(gates, delta, gamma, efficiency, false_positive, seed, self.shots)
            ops.append(ShotCommand(argv, gates, delta, gamma, efficiency, false_positive, seed))
        return ops

    def execute(self, op):
        return _run_cli(op.argv)

    def work(self, op):
        return self.shots

    def check(self, op, text):
        record = json.loads(text)
        keys = {"shots", "detected_dot1", "seed", "estimated_p_up", "analytic_p_up"}
        _require(set(record) == keys, f"montecarlo keys {sorted(record)}")
        _require(record["shots"] == self.shots and record["seed"] == op.seed, "shots or seed not echoed")
        detected = record["detected_dot1"]
        _require(isinstance(detected, int) and 0 <= detected <= self.shots, f"detected_dot1 = {detected!r}")
        _require(record["estimated_p_up"] == detected / self.shots, "estimated_p_up != detected/shots")
        p = Readout(*op.gates).p_up(op.delta, op.gamma)
        expected = p * op.efficiency + (1.0 - p) * op.false_positive
        analytic = record["analytic_p_up"]
        _close(analytic, expected, CHECK_ATOL, "analytic_p_up vs oracle")
        sigma = math.sqrt(self.shots * expected * (1.0 - expected))
        _require(abs(detected - self.shots * expected) <= BINOMIAL_SIGMAS * sigma + 1.0,
                 f"detected_dot1 = {detected} is more than {BINOMIAL_SIGMAS} sigma from "
                 f"{self.shots * expected:.1f}")
        if len(self.samples) < SHOT_RERUNS and self.sample_rng.random() < 0.25:
            self.samples.append((op, text))

    def finish(self):
        for op, text in self.samples:
            _require(_run_cli(op.argv) == text, f"seed {op.seed}: a repeated command gave other bytes")
            efficiency = min(1.0, op.efficiency + 0.05)
            argv = _shot_argv(op.gates, op.delta, op.gamma, efficiency, op.false_positive,
                              op.seed, self.shots)
            before = json.loads(text)["detected_dot1"]
            after = json.loads(_run_cli(argv))["detected_dot1"]
            _require(after >= before, f"seed {op.seed}: count fell from {before} to {after} "
                                      f"as efficiency rose to {efficiency}")


WORKLOADS = {w.name: w for w in (Errmap, ReadoutQueries, ShotSampling)}
