"""Reference computations made apart from spinreadout.

The 4x4 gate matrices are built here from the paper's definitions, in the
basis |up;0>, |up;1>, |down;0>, |down;1>:

    tunnel(theta) = exp(i theta sigma_x) on the dot pair, identity on spin
    phase(psi, phi) = diag(e^{i(psi - phi/2)}, 1, e^{i(psi + phi/2)}, 1)
    sequence = tunnel(theta2) . phase(psi, phi) . tunnel(theta1)

At the ideal gates (pi/4, pi/4, pi/2, pi) the sequence is
diag(i sigma_x, -sigma_z); `check_identity` verifies that, so a broken oracle
cannot pass the workload checks unnoticed.  Nothing here imports spinreadout;
scipy is imported only where a quadrature is asked for, after the timed region.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

IDEAL = (math.pi / 4, math.pi / 4, math.pi / 2, math.pi)

# Flat indices of the dot-1 amplitudes and of the two input amplitudes in dot 0.
_UP0, _UP1, _DOWN0, _DOWN1 = 0, 1, 2, 3


def tunnel(theta: float) -> np.ndarray:
    c, s = math.cos(theta), 1j * math.sin(theta)
    return np.array(
        [[c, s, 0, 0], [s, c, 0, 0], [0, 0, c, s], [0, 0, s, c]], dtype=complex
    )


def phase(psi: float, phi: float) -> np.ndarray:
    return np.diag(
        [cmath.exp(1j * (psi - phi / 2)), 1.0, cmath.exp(1j * (psi + phi / 2)), 1.0]
    )


def sequence(theta1: float, theta2: float, psi: float, phi: float) -> np.ndarray:
    """The readout sequence; the first gate listed in time acts first."""
    return tunnel(theta2) @ phase(psi, phi) @ tunnel(theta1)


def check_identity(atol: float = 1e-12) -> None:
    """Raise AssertionError unless sequence(IDEAL) == diag(i sigma_x, -sigma_z)."""
    expected = np.zeros((4, 4), dtype=complex)
    expected[_UP0, _UP1] = expected[_UP1, _UP0] = 1j  # i sigma_x on the spin-up pair
    expected[_DOWN0, _DOWN0], expected[_DOWN1, _DOWN1] = -1.0, 1.0  # -sigma_z on spin down
    defect = float(np.max(np.abs(sequence(*IDEAL) - expected)))
    if defect > atol:
        raise AssertionError(f"oracle sequence misses diag(i sx, -sz) by {defect:.3e}")


class Readout:
    """p_up(delta, gamma) of one gate set, from the oracle matrices."""

    def __init__(self, theta1: float, theta2: float, psi: float, phi: float):
        u = sequence(theta1, theta2, psi, phi)
        # Columns for the input amplitudes in dot 0, rows for the dot-1 outputs.
        self._a, self._b = complex(u[_UP1, _UP0]), complex(u[_UP1, _DOWN0])
        self._c, self._d = complex(u[_DOWN1, _UP0]), complex(u[_DOWN1, _DOWN0])

    def p_up(self, delta: float, gamma: float = 0.0) -> float:
        up = math.cos(delta / 2)
        down = cmath.exp(1j * gamma) * math.sin(delta / 2)
        return abs(self._a * up + self._b * down) ** 2 + abs(self._c * up + self._d * down) ** 2

    def error(self, delta: float) -> float:
        """Signed error E = p_up - cos^2(delta/2)."""
        return self.p_up(delta) - math.cos(delta / 2) ** 2

    def ebar(self) -> float:
        """(1/pi) * integral over [0, pi] of |E|, by scipy's adaptive quadrature.

        |E| has a kink wherever E changes sign, and quad can step over a kink
        while reporting a tiny error estimate, so the sign changes are found
        on a coarse grid, refined with brentq, and integrated between.
        """
        from scipy.integrate import quad
        from scipy.optimize import brentq

        grid = np.linspace(0.0, math.pi, 65)
        signs = np.sign([self.error(float(d)) for d in grid])
        breaks = [0.0]
        for k in np.flatnonzero(signs[:-1] * signs[1:] < 0):
            breaks.append(brentq(self.error, float(grid[k]), float(grid[k + 1]), xtol=1e-15))
        breaks.append(math.pi)
        total = sum(
            quad(lambda d: abs(self.error(d)), lo, hi, epsabs=1e-12, epsrel=1e-10, limit=200)[0]
            for lo, hi in zip(breaks[:-1], breaks[1:])
        )
        return total / math.pi
