"""Symbolic proof that the closed form for p_up equals the matrix path.

The readout sequence U1(theta2) U2(psi, phi) U1(theta1) is built from the
paper's gates in sympy and applied to the spin input in dot 0.  Its dot-1
occupancy minus the closed form (c0 + 1/2) + (c1 + 1/2) cos(delta) simplifies
to 0 for every gate angle, delta and gamma.  The transcribed (c0, c1) are then
lambdified and checked against the library's kernel at seeded draws, so the
proof covers the code and not only the transcription.
"""

import math

import numpy as np
import sympy as sp

from spinreadout import GateParams, error_coefficients, probabilities_closed_form

theta1, theta2, psi, phi, delta, gamma = sp.symbols("theta1 theta2 psi phi delta gamma", real=True)


def tunneling(theta):
    """exp(i theta sigma_x) on the dot pair (0, 1) in each spin block; basis
    |up;0>, |up;1>, |down;0>, |down;1>."""
    c, s = sp.cos(theta), sp.I * sp.sin(theta)
    return sp.Matrix([[c, s, 0, 0], [s, c, 0, 0], [0, 0, c, s], [0, 0, s, c]])


def conditional_phase(psi, phi):
    """diag(e^{i(psi - phi/2)}, 1, e^{i(psi + phi/2)}, 1): spin-dependent phase on dot 0."""
    return sp.diag(sp.exp(sp.I * (psi - phi / 2)), 1, sp.exp(sp.I * (psi + phi / 2)), 1)


# Transcription of the kernel's (c0, c1) in error_analysis._coefficients.
S = sp.sin(2 * theta1) * sp.sin(2 * theta2)
C0 = sp.sin(theta1 - theta2) ** 2 + S / 2 * (1 + sp.cos(psi) * sp.cos(phi / 2)) - sp.Rational(1, 2)
C1 = (S * sp.sin(psi) * sp.sin(phi / 2) - 1) / 2
P_UP = (C0 + sp.Rational(1, 2)) + (C1 + sp.Rational(1, 2)) * sp.cos(delta)


def matrix_p_up():
    spin_in = sp.Matrix([sp.cos(delta / 2), 0, sp.exp(sp.I * gamma) * sp.sin(delta / 2), 0])
    out = tunneling(theta2) * conditional_phase(psi, phi) * tunneling(theta1) * spin_in
    return sum(amp * sp.conjugate(amp) for amp in (out[1], out[3]))


def test_closed_form_equals_matrix_path_identically():
    diff = matrix_p_up() - P_UP
    # With every sine and cosine written as exponentials of real angles, the
    # difference is a sum of exponential monomials, and expanding cancels them
    # all; simplify(expand_complex(diff)) reaches 0 too, ten times slower.
    assert sp.expand(diff.rewrite(sp.exp)) == 0


def test_transcription_matches_the_kernel():
    coefficients = sp.lambdify((theta1, theta2, psi, phi), (C0, C1), "math")
    p_up = sp.lambdify((theta1, theta2, psi, phi, delta), P_UP, "math")
    rng = np.random.default_rng(77)
    for _ in range(200):
        angles = rng.uniform(-2 * math.pi, 2 * math.pi, 4).tolist()
        d = float(rng.uniform(0, math.pi))
        params = GateParams(*angles)
        c0, c1 = error_coefficients(params)
        want0, want1 = coefficients(*angles)
        assert abs(c0 - want0) <= 1e-14 and abs(c1 - want1) <= 1e-14
        assert abs(probabilities_closed_form(params, d).p_up - p_up(*angles, d)) <= 1e-14
