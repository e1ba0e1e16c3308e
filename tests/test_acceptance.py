"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run `pytest tests/test_acceptance.py -v -s` to see the pass/fail lines.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np

from spinreadout import (
    GateParams,
    PulseSpec,
    SpinInput,
    apply,
    avg_abs_error,
    dot_occupancy,
    effective_outcome_probability,
    measurement_error,
    noisy_sequence,
    probabilities_closed_form,
    pulse_angle,
    pulse_for_angle,
    rashba_length,
    run_readout,
    sample_readout,
    sweep_grid,
    three_dot_sequence,
)
from spinreadout.cli import main
from spinreadout.error_analysis import panel_axes
from spinreadout.montecarlo import DetectorModel
from spinreadout.quadrature import avg_abs_error_quadrature
from spinreadout.report import grid_to_csv

from shared import GOLDEN_CSV, one_hot


@contextmanager
def criterion(num, description):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} [FAIL] {description}")
        raise
    print(f"criterion {num:02d} [PASS] {description} ({time.perf_counter() - started:.2f}s)")


def random_params(rng):
    return GateParams(*rng.uniform(0, math.pi, 2), *rng.uniform(0, 2 * math.pi, 2))


def test_criterion_01_protocol_identity():
    with criterion(1, "two-dot sequence equals diag(i*sx, -sz); deterministic spin-to-charge map"):
        start = time.perf_counter()
        u = noisy_sequence(GateParams.ideal())
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 1] = expected[1, 0] = 1j
        expected[2, 2] = -1.0
        expected[3, 3] = 1.0
        assert np.max(np.abs(u.matrix - expected)) <= 1e-12
        up = apply(u, one_hot("up", "0", 4))
        assert np.max(np.abs(up.amplitudes - np.array([0, 1j, 0, 0]))) <= 1e-12
        down = apply(u, one_hot("down", "0", 4))
        assert np.max(np.abs(down.amplitudes - np.array([0, 0, -1, 0]))) <= 1e-12
        assert time.perf_counter() - start < 1.0


def test_criterion_02_closed_form_vs_matrix_oracle():
    with criterion(2, "closed-form probabilities match the matrix path to 1e-12 on 10^4 draws"):
        start = time.perf_counter()
        rng = np.random.default_rng(202)
        worst = 0.0
        for _ in range(10_000):
            params = random_params(rng)
            delta = rng.uniform(0, math.pi)
            cf = probabilities_closed_form(params, delta)
            _, mx = run_readout(SpinInput(delta), params)
            worst = max(worst, abs(cf.p_up - mx.p_up), abs(cf.p_down - mx.p_down))
        assert worst <= 1e-12
        assert time.perf_counter() - start < 10.0


def test_criterion_03_ideal_recovery():
    with criterion(3, "ideal gates give p_up = cos^2(delta/2) to 1e-12 on a 1001-point grid"):
        ideal = GateParams.ideal()
        for delta in np.linspace(0, math.pi, 1001):
            target = math.cos(delta / 2) ** 2
            assert abs(probabilities_closed_form(ideal, float(delta)).p_up - target) <= 1e-12
            _, probs = run_readout(SpinInput(float(delta)), ideal)
            assert abs(probs.p_up - target) <= 1e-12


def test_criterion_04_gamma_independence():
    with criterion(4, "p_up spread under the input relative phase stays below 1e-12"):
        rng = np.random.default_rng(404)
        for _ in range(100):
            params = random_params(rng)
            delta = rng.uniform(0, math.pi)
            values = [
                run_readout(SpinInput(delta, float(g)), params)[1].p_up
                for g in rng.uniform(0, 2 * math.pi, 10)
            ]
            assert max(values) - min(values) < 1e-12


def test_criterion_05_delta_extremality():
    with criterion(5, "error is smallest at delta=0 and largest at delta=pi (ties allowed)"):
        rng = np.random.default_rng(505)
        grid = np.linspace(0, math.pi, 101)
        for _ in range(1000):
            params = random_params(rng)
            errors = np.array([measurement_error(params, float(d)) for d in grid])
            assert errors[0] <= errors.min() + 1e-12
            assert errors[-1] >= errors.max() - 1e-12


def test_criterion_06_average_error_consistency():
    with criterion(6, "analytic and quadrature averages agree to 1e-9; pinned reference values"):
        rng = np.random.default_rng(606)
        for _ in range(1000):
            params = random_params(rng)
            assert abs(avg_abs_error(params) - avg_abs_error_quadrature(params)) <= 1e-9
        assert avg_abs_error(GateParams.ideal()) <= 1e-12
        for _ in range(20):
            stuck = GateParams(0.0, 0.0, rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
            assert abs(avg_abs_error(stuck) - 0.5) <= 1e-9


def test_criterion_07_error_surface_regeneration(tmp_path):
    with criterion(7, "all three 101x101 panels in <60s; symmetry, ideal node, golden CSV bytes"):
        start = time.perf_counter()
        grids = {panel: sweep_grid(*panel_axes(panel, 101)) for panel in ("a", "b", "c")}
        assert time.perf_counter() - start < 60.0
        panel_a = grids["a"].values
        assert np.max(np.abs(panel_a - panel_a.T)) <= 1e-12
        assert panel_a[50, 50] <= 1e-12  # theta1 = theta2 = pi/4 node
        assert grid_to_csv(grids["b"]).count(b"\n") == 1 + 101 * 101  # header + data rows
        path = tmp_path / "golden.csv"
        code = main(
            ["errmap", "--panel", "a", "--resolution", "3",
             "--range1", "0.25,0.75", "--range2", "0.25,0.75", "--output", str(path)]
        )
        assert code == 0
        assert path.read_bytes() == GOLDEN_CSV.encode()


def test_criterion_08_three_dot_variant():
    with criterion(8, "three-dot sequence sends up to i|up;1> and down to -|down;0p>"):
        seq = three_dot_sequence()
        up = apply(seq, one_hot("up", "0", 6))
        expected_up = np.zeros(6, dtype=complex)
        expected_up[2] = 1j
        assert np.max(np.abs(up.amplitudes - expected_up)) <= 1e-12
        down = apply(seq, one_hot("down", "0", 6))
        expected_down = np.zeros(6, dtype=complex)
        expected_down[4] = -1.0
        assert np.max(np.abs(down.amplitudes - expected_down)) <= 1e-12


def test_criterion_09_device_numbers():
    with criterion(9, "spin-orbit lengths match 58 nm / 250 nm within 2%; pulse round-trips"):
        inas = rashba_length(4e-11, 0.026, math.pi / 2)
        assert abs(inas - 58.0) / 58.0 < 0.02
        ingaas = rashba_length(0.93e-11, 0.026, math.pi / 2)
        assert abs(ingaas - 250.0) / 250.0 < 0.02
        rng = np.random.default_rng(909)
        for _ in range(100):
            target = rng.uniform(-math.pi, math.pi)
            duration = rng.uniform(0.01, 10.0)
            amplitude = pulse_for_angle(target, duration)
            recovered = pulse_angle(PulseSpec(((amplitude, duration),)))
            assert abs(recovered - target) <= 1e-12 * max(1.0, abs(target))


def test_criterion_10_monte_carlo(tmp_path):
    with criterion(10, "seeded runs are byte-deterministic; 4-sigma agreement in >=99/100 configs"):
        start = time.perf_counter()
        first, second = tmp_path / "mc1.json", tmp_path / "mc2.json"
        argv = ["montecarlo", "--delta", "1.2", "--shots", "5000", "--seed", "99",
                "--efficiency", "0.9", "--false-positive", "0.05"]
        assert main(argv + ["--output", str(first)]) == 0
        assert main(argv + ["--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert json.loads(first.read_text())["seed"] == 99

        rng = np.random.default_rng(1010)
        shots = 10_000
        hits = 0
        for i in range(100):
            params = random_params(rng)
            spin = SpinInput(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            detector = DetectorModel(rng.uniform(0.7, 1.0), rng.uniform(0.0, 0.3))
            record = sample_readout(spin, params, shots=shots, seed=2000 + i, detector=detector)
            out = apply(noisy_sequence(params), spin.to_state(4))
            p = effective_outcome_probability(dot_occupancy(out, "1"), detector)
            sigma = math.sqrt(p * (1 - p) / shots)
            if abs(record.estimated_p_up - p) <= 4 * sigma:
                hits += 1
        assert hits >= 99
        assert time.perf_counter() - start < 30.0
