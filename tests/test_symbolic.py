"""Symbolic proof that the closed form for p_up equals the matrix path.

The readout sequence U1(theta2) U2(psi, phi) U1(theta1) is built from the
paper's gates in sympy and applied to the spin input in dot 0.  The closed
form (c0 + 1/2) + (c1 + 1/2) cos(delta) takes (c0, c1) from the library's own
kernel, error_analysis._coefficients, called with sympy as its sin/cos
namespace on sympy symbols: the source text the library runs with math and
numpy.  Their difference simplifies to 0 for every gate angle, delta and
gamma, so the proof covers the code itself.
"""

import pytest
import sympy as sp
from hypothesis import given

from spinreadout import probabilities_closed_form
from spinreadout.error_analysis import _coefficients

from shared import ALL_GATES, DELTAS, PROPERTY

theta1, theta2, psi, phi, delta, gamma = sp.symbols("theta1 theta2 psi phi delta gamma", real=True)


def tunneling(theta):
    """exp(i theta sigma_x) on the dot pair (0, 1) in each spin block; basis
    |up;0>, |up;1>, |down;0>, |down;1>."""
    c, s = sp.cos(theta), sp.I * sp.sin(theta)
    return sp.Matrix([[c, s, 0, 0], [s, c, 0, 0], [0, 0, c, s], [0, 0, s, c]])


def conditional_phase(psi, phi):
    """diag(e^{i(psi - phi/2)}, 1, e^{i(psi + phi/2)}, 1): spin-dependent phase on dot 0."""
    return sp.diag(sp.exp(sp.I * (psi - phi / 2)), 1, sp.exp(sp.I * (psi + phi / 2)), 1)


def matrix_p_up():
    spin_in = sp.Matrix([sp.cos(delta / 2), 0, sp.exp(sp.I * gamma) * sp.sin(delta / 2), 0])
    out = tunneling(theta2) * conditional_phase(psi, phi) * tunneling(theta1) * spin_in
    return sum(amp * sp.conjugate(amp) for amp in (out[1], out[3]))


@pytest.fixture(scope="module")
def kernel_p_up():
    """The closed-form p_up with (c0, c1) from the kernel run on sympy; the
    kernel's float 0.5 and 1.0 become exact rationals."""
    c0, c1 = _coefficients(sp, theta1, theta2, psi, phi)
    c0, c1 = (sp.nsimplify(c, rational=True) for c in (c0, c1))
    return (c0 + sp.Rational(1, 2)) + (c1 + sp.Rational(1, 2)) * sp.cos(delta)


def test_closed_form_equals_matrix_path_identically(kernel_p_up):
    diff = matrix_p_up() - kernel_p_up
    # With every sine and cosine written as exponentials of real angles, the
    # difference is a sum of exponential monomials, and expanding cancels them
    # all; simplify(expand_complex(diff)) reaches 0 too, ten times slower.
    assert sp.expand(diff.rewrite(sp.exp)) == 0


@pytest.fixture(scope="module")
def proved_p_up(kernel_p_up):
    return sp.lambdify((theta1, theta2, psi, phi, delta), kernel_p_up, "math")


@PROPERTY
@given(ALL_GATES, DELTAS)
def test_closed_form_matches_the_proved_expression(proved_p_up, params, d):
    expected = proved_p_up(params.theta1, params.theta2, params.psi, params.phi, d)
    assert abs(probabilities_closed_form(params, d).p_up - expected) <= 1e-14
