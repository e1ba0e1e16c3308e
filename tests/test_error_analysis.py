import math
import warnings

import numpy as np
import pytest

from spinreadout import (
    AxisSpec,
    ErrorGrid,
    GateParams,
    SpinInput,
    ValidationError,
    avg_abs_error,
    extremal_error,
    measurement_error,
    panel_axes,
    probabilities_closed_form,
    run_readout,
    sweep_grid,
)
from spinreadout.error_analysis import MAX_GRID_NODES
from spinreadout.quadrature import avg_abs_error_quadrature, integrate_adaptive


def random_params(rng):
    return GateParams(*rng.uniform(0, math.pi, 2), *rng.uniform(0, 2 * math.pi, 2))


def test_closed_form_without_tunneling_never_reaches_dot1():
    rng = np.random.default_rng(1)
    for _ in range(25):
        params = GateParams(0.0, 0.0, rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
        assert probabilities_closed_form(params, rng.uniform(0, math.pi)).p_up == 0.0


def test_closed_form_half_probability_case():
    params = GateParams(math.pi / 4, math.pi / 4, 0.0, math.pi)
    probs = probabilities_closed_form(params, 0.0)
    assert probs.p_up == pytest.approx(0.5, abs=1e-12)
    _, oracle = run_readout(SpinInput(0.0), params)
    assert probs.p_up == pytest.approx(oracle.p_up, abs=1e-12)


def test_closed_form_rejects_delta_out_of_range():
    with pytest.raises(ValidationError, match="delta"):
        probabilities_closed_form(GateParams.ideal(), 3.5)
    with pytest.raises(ValidationError, match="delta"):
        measurement_error(GateParams.ideal(), -0.1)


def test_measurement_error_cases():
    assert measurement_error(GateParams.ideal(), 1.1) == pytest.approx(0.0, abs=1e-12)
    # a stuck electron is a correct "down" call when the input is |down>
    assert measurement_error(GateParams(0, 0, 0.3, 0.7), math.pi) == pytest.approx(0.0, abs=1e-12)
    assert measurement_error(GateParams(math.pi / 4, math.pi / 4, 0.0, math.pi), 0.0) == pytest.approx(
        -0.5, abs=1e-12
    )


def test_measurement_error_two_definitions_agree():
    rng = np.random.default_rng(8)
    for _ in range(200):
        params = random_params(rng)
        delta = rng.uniform(0, math.pi)
        probs = probabilities_closed_form(params, delta)
        from_up = probs.p_up - math.cos(delta / 2) ** 2
        from_down = math.sin(delta / 2) ** 2 - probs.p_down
        assert from_up == pytest.approx(from_down, abs=1e-12)
        assert measurement_error(params, delta) == pytest.approx(from_up, abs=1e-12)


def test_error_is_affine_in_cos_delta():
    rng = np.random.default_rng(14)
    for _ in range(100):
        params = random_params(rng)
        e0 = measurement_error(params, 0.0)
        emid = measurement_error(params, math.pi / 2)
        epi = measurement_error(params, math.pi)
        c1 = (e0 - epi) / 2  # fit from the endpoint pair; emid pins c0
        for delta in rng.uniform(0, math.pi, 20):
            predicted = emid + c1 * math.cos(delta)
            assert measurement_error(params, float(delta)) == pytest.approx(predicted, abs=1e-12)


def test_extremal_error_cases():
    assert extremal_error(GateParams.ideal()) == pytest.approx((0.0, 0.0), abs=1e-12)
    result = extremal_error(GateParams(math.pi / 4, math.pi / 4, 0.0, math.pi))
    assert result.e_min == pytest.approx(-0.5, abs=1e-12)


def test_avg_abs_error_ideal_and_no_tunneling():
    assert avg_abs_error(GateParams.ideal()) == 0.0
    rng = np.random.default_rng(6)
    for _ in range(10):
        params = GateParams(0.0, 0.0, rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
        assert avg_abs_error(params) == pytest.approx(0.5, abs=1e-12)
        assert avg_abs_error_quadrature(params) == pytest.approx(0.5, abs=1e-9)


def test_avg_abs_error_is_nonnegative_and_periodic():
    rng = np.random.default_rng(16)
    for _ in range(200):
        params = random_params(rng)
        value = avg_abs_error(params)
        assert 0.0 <= value <= 1.0
        shifted_psi = GateParams(params.theta1, params.theta2, params.psi + 2 * math.pi, params.phi)
        shifted_phi = GateParams(params.theta1, params.theta2, params.psi, params.phi + 4 * math.pi)
        assert avg_abs_error(shifted_psi) == pytest.approx(value, abs=1e-12)
        assert avg_abs_error(shifted_phi) == pytest.approx(value, abs=1e-12)


def test_sweep_grid_panel_a_symmetry_and_ideal_node():
    axis1, axis2, fixed = panel_axes("a", 5)
    grid = sweep_grid(axis1, axis2, fixed)
    np.testing.assert_allclose(grid.values, grid.values.T, atol=1e-12)
    # node (2, 2) sits at theta1 = theta2 = pi/4 with ideal phases
    assert grid.values[2, 2] <= 1e-12


def test_sweep_grid_degenerate_ideal_point_is_zero():
    quarter = math.pi / 4
    axis1 = AxisSpec("theta1", quarter, quarter, 2)
    axis2 = AxisSpec("theta2", quarter, quarter, 2)
    grid = sweep_grid(axis1, axis2, GateParams.ideal())
    np.testing.assert_array_equal(grid.values, np.zeros((2, 2)))


def test_sweep_grid_panel_c_applies_locks():
    axis1, axis2, fixed = panel_axes("c", 3, (0.1, 0.7), (0.5, 2.5))
    grid = sweep_grid(axis1, axis2, fixed)
    direct = avg_abs_error(GateParams(0.7, 0.7, 2.5, 5.0))
    assert grid.values[2, 2] == pytest.approx(direct, abs=1e-15)


@pytest.mark.parametrize("num", [2.5, 2.0, True])
def test_non_integer_resolution_is_rejected(num):
    with pytest.raises(ValidationError, match="not an integer") as err:
        AxisSpec("theta1", 0, 1, num)
    assert err.value.field == "resolution"


def test_axis_and_grid_validation():
    with pytest.raises(ValidationError, match="axis"):
        AxisSpec("theta3", 0, 1, 5)
    with pytest.raises(ValidationError, match="resolution"):
        AxisSpec("theta1", 0, 1, 1)
    with pytest.raises(ValidationError, match="start"):
        AxisSpec("theta1", math.nan, 1, 5)
    with pytest.raises(ValidationError, match="stop"):
        AxisSpec("theta1", 0, math.inf, 5)
    with pytest.raises(ValidationError, match="overlap"):
        sweep_grid(AxisSpec("theta", 0, 1, 3), AxisSpec("theta1", 0, 1, 3), GateParams.ideal())
    with pytest.raises(ValidationError, match="panel"):
        panel_axes("d")
    with pytest.raises(ValidationError, match="values"):
        ErrorGrid(AxisSpec("psi", 0, 1, 3), AxisSpec("phi", 0, 1, 3), GateParams.ideal(), np.zeros((2, 2)))
    with pytest.raises(ValidationError, match="values"):
        ErrorGrid(AxisSpec("psi", 0, 1, 2), AxisSpec("phi", 0, 1, 2), GateParams.ideal(), np.full((2, 2), np.nan))
    # a bound beyond MAX_ANGLE is rejected on the axis, before any angle can overflow
    with warnings.catch_warnings(), pytest.raises(ValidationError, match="stop"):
        warnings.simplefilter("error")
        sweep_grid(AxisSpec("theta", 0, 1, 2), AxisSpec("psi_phi_locked", 0, 1e308, 2), GateParams.ideal())


def test_axis_gates_and_overlap_message_are_ordered():
    assert AxisSpec("psi_phi_locked", 0, 1, 2).gates == ("psi", "phi")
    # The message lists the shared gates in axis order, whatever the hash seed.
    with pytest.raises(ValidationError, match=r"on theta1, theta2$"):
        sweep_grid(AxisSpec("theta", 0, 1, 2), AxisSpec("theta", 0, 1, 2), GateParams.ideal())


def test_sweep_grid_node_limit_is_checked_before_any_array(monkeypatch):
    class AxisSampled(Exception):
        pass

    def sampled(self):
        raise AxisSampled

    monkeypatch.setattr(AxisSpec, "values", sampled)
    half = MAX_GRID_NODES // 2
    with pytest.raises(AxisSampled):  # exactly at the limit the sweep starts
        sweep_grid(AxisSpec("theta1", 0, 1, 2), AxisSpec("theta2", 0, 1, half), GateParams.ideal())
    with pytest.raises(ValidationError, match=f"2 x {half + 1} = {2 * half + 2} nodes exceed") as err:
        sweep_grid(AxisSpec("theta1", 0, 1, 2), AxisSpec("theta2", 0, 1, half + 1), GateParams.ideal())
    assert err.value.field == "resolution"


def test_adaptive_quadrature_known_integrals():
    assert integrate_adaptive(math.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-10)
    # kinked integrand, the case the error average needs
    assert integrate_adaptive(lambda x: abs(math.cos(x)), 0.0, math.pi) == pytest.approx(
        2.0, abs=1e-9
    )
    assert integrate_adaptive(lambda x: x * x, 0.0, 1.0) == pytest.approx(1 / 3, abs=1e-12)
    assert integrate_adaptive(math.cos, 1.5, 1.5) == 0.0


def test_adaptive_quadrature_validation():
    with pytest.raises(ValidationError, match="interval"):
        integrate_adaptive(math.sin, 1.0, 0.0)
    with pytest.raises(ValidationError, match="tol"):
        integrate_adaptive(math.sin, 0.0, 1.0, tol=0.0)
