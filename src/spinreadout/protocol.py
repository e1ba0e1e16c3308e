"""The two-dot readout sequence and its three-dot alternative.

Two-dot: a quarter Rabi oscillation splits the particle between dots 0 and 1,
a spin sign flip acts on dot 0 only, and a second quarter oscillation
recombines the branches.  The net map is block-diagonal (i sigma_x on the
spin-up mode block, -sigma_z on the spin-down block), so a spin-up electron
always exits in dot 1 and a spin-down electron in dot 0.

Three-dot: the local sign flip is replaced by a full tunneling passage from
dot 0 to dot 0p through a region that rotates the spin by exp(-i sigma_z pi/2).
Spin-up then ends in dot 1 and spin-down in dot 0p; dot 0 occupancy is an
error flag (zero for perfect gates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    ATOL,
    DOT0,
    DOT0P,
    DOT1,
    GateParams,
    SPIN_DOWN,
    SPIN_UP,
    SpinInput,
    StateVector,
    Unitary,
    ValidationError,
    _rx_matrix,
    _u2_matrix,
    apply,
    basis_index,
    compose,
    modes_for_dim,
    rx_mode,
    rz_spin,
)


@dataclass(frozen=True)
class ReadoutProbabilities:
    """Probability mass assigned to each spin call; must sum to one."""

    p_up: float
    p_down: float

    def __post_init__(self):
        for name, p in (("p_up", self.p_up), ("p_down", self.p_down)):
            if not -ATOL <= p <= 1.0 + ATOL:
                raise ValidationError(name, f"{p!r} outside [0, 1]")
        if abs(self.p_up + self.p_down - 1.0) > ATOL:
            raise ValidationError("p_up", f"p_up + p_down = {self.p_up + self.p_down!r}, expected 1")


def noisy_sequence(params: GateParams) -> Unitary:
    """Two-dot sequence with imperfect gates; at GateParams.ideal() it is the
    perfect sequence (quarter oscillation, sign flip on dot 0, quarter
    oscillation), diag(i sigma_x, -sigma_z).

    Equal to compose([rx_mode(theta1), u2_general(psi, phi), rx_mode(theta2)]):
    the gates are built from the angles GateParams has checked, and their
    product is checked once, as a Unitary.
    """
    g0 = _rx_matrix(params.theta1, (DOT0, DOT1), 4)
    g1 = _u2_matrix(params.psi, params.phi)
    g2 = _rx_matrix(params.theta2, (DOT0, DOT1), 4)
    return Unitary(g2 @ (g1 @ g0))


def run_readout(spin_in: SpinInput, params: GateParams) -> tuple[StateVector, ReadoutProbabilities]:
    """Propagate the input spin through the (possibly imperfect) sequence.

    Returns the output state and the probabilities read off it: p_up is the
    dot-1 occupancy, p_down the dot-0 occupancy; both are independent of the
    input's relative phase gamma.
    """
    out = apply(noisy_sequence(params), spin_in.to_state(4))
    return out, ReadoutProbabilities(p_up=dot_occupancy(out, DOT1), p_down=dot_occupancy(out, DOT0))


def three_dot_sequence() -> Unitary:
    """Quarter oscillation (0,1), full tunneling 0 -> 0p through the
    spin-rotating region, quarter oscillation (0p,1).

    The full hop contributes a factor i and the region exp(-i sigma_z pi/2) =
    -i sigma_z, so the passage sends |up;0> -> |up;0p>, |down;0> -> -|down;0p>
    and leaves dot 1 untouched.  The spin rotation may sit at dot 0 before the
    hop or at dot 0p after it: the full hop has no diagonal part on the pair,
    so both give the same matrix.  The sequence maps |up;0> to i|up;1> and
    |down;0> to -|down;0p>.
    """
    return compose(
        [
            rx_mode(math.pi / 4, (DOT0, DOT1), 6),
            rx_mode(math.pi / 2, (DOT0, DOT0P), 6),
            rz_spin(-math.pi / 2, DOT0P, 6),
            rx_mode(math.pi / 4, (DOT0P, DOT1), 6),
        ]
    )


def dot_occupancy(state: StateVector, mode: str) -> float:
    """Probability of finding the particle in `mode`, summed over spin."""
    amp, dim = state.amplitudes, state.dim
    up, down = basis_index(SPIN_UP, mode, dim), basis_index(SPIN_DOWN, mode, dim)
    return abs(amp[up]) ** 2 + abs(amp[down]) ** 2


def occupancies(state: StateVector) -> dict[str, float]:
    """Occupancy of every mode of the state's dot layout."""
    return {mode: dot_occupancy(state, mode) for mode in modes_for_dim(state.dim)}
