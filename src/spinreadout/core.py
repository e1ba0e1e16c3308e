"""Basis conventions, state vectors, and gate constructors for the spin x mode space.

A single particle carries a spin-1/2 ("up"/"down") and a dot-occupancy mode.
Two layouts are supported, with a fixed spin-major, mode-minor index map:

    dim 4, modes ("0", "1"):
        |up;0> -> 0, |up;1> -> 1, |down;0> -> 2, |down;1> -> 3
    dim 6, modes ("0", "0p", "1"):
        |up;0> -> 0, |up;0p> -> 1, |up;1> -> 2,
        |down;0> -> 3, |down;0p> -> 4, |down;1> -> 5

All angles are radians.  Every value is immutable after construction and all
operations are pure, so everything here is safe to share across threads.
"""

from __future__ import annotations

import cmath
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

SPIN_UP = "up"
SPIN_DOWN = "down"
SPINS = (SPIN_UP, SPIN_DOWN)

DOT0 = "0"
DOT0P = "0p"
DOT1 = "1"

TWO_DOT_MODES = (DOT0, DOT1)
THREE_DOT_MODES = (DOT0, DOT0P, DOT1)
_MODES_BY_DIM = {4: TWO_DOT_MODES, 6: THREE_DOT_MODES}
# The spin-major layout, (spin, mode, dim) -> flat index, so that a lookup miss
# is the validation error; and one read-only identity per dimension.
_BASIS_INDEX = {
    (spin, mode, dim): index
    for dim, modes in _MODES_BY_DIM.items()
    for index, (spin, mode) in enumerate(itertools.product(SPINS, modes))
}
_IDENTITY = {dim: np.eye(dim, dtype=complex) for dim in _MODES_BY_DIM}
for _eye in _IDENTITY.values():
    _eye.setflags(write=False)

# Absolute tolerance for all exact-algebra checks (norms, unitarity,
# probability sums) in double precision.
ATOL = 1e-12

# Largest gate-angle magnitude accepted, in radians.  The closed form and the
# matrix path agree to within ATOL up to here; further out theta1 - theta2
# loses digits (drift 1.8e-12 at 1e4 rad, 1.2e-10 at 1e6 rad).
MAX_ANGLE = 1e3


class ValidationError(ValueError):
    """An argument fell outside its documented domain; `field` names it."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


def check_finite(field: str, value: float) -> None:
    """Reject NaN and +-inf, naming the field."""
    if not math.isfinite(value):
        raise ValidationError(field, f"{value!r} is not finite")


def check_positive(field: str, value: float) -> None:
    """Reject a value that is not finite or not > 0, naming the field."""
    check_finite(field, value)
    if value <= 0:
        raise ValidationError(field, f"{value!r} must be > 0")


def check_angle(field: str, value: float, bound: float = MAX_ANGLE) -> None:
    """Reject a gate angle that is NaN or exceeds `bound` in magnitude, naming the field."""
    if not abs(value) <= bound:
        raise ValidationError(field, f"{value!r} outside [-{bound:g}, {bound:g}]")


def check_integer(field: str, value: int, minimum: int) -> None:
    """Reject a value that is not an int (a bool or a float such as 3.0 too), or
    one below `minimum`, naming the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(field, f"{value!r} is not an integer")
    if value < minimum:
        raise ValidationError(field, f"{value!r} must be >= {minimum}")


def check_probability(field: str, p: float) -> None:
    """Reject a probability outside [0, 1], NaN too, naming the field."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(field, f"{p!r} outside [0, 1]")


def check_delta(delta: float) -> None:
    """Reject an input polar angle outside [0, pi]."""
    if not 0.0 <= delta <= math.pi:
        raise ValidationError("delta", f"{delta!r} outside [0, pi]")


def modes_for_dim(dim: int) -> tuple[str, ...]:
    """Ordered mode labels for a supported dimension (4 or 6)."""
    try:
        return _MODES_BY_DIM[dim]
    except KeyError:
        raise ValidationError("dim", f"unsupported dimension {dim}, expected 4 or 6") from None


def basis_index(spin: str, mode: str, dim: int = 4) -> int:
    """Flat index of |spin; mode> under the spin-major ordering."""
    try:
        return _BASIS_INDEX[spin, mode, dim]
    except (KeyError, TypeError):
        pass
    if spin not in SPINS:
        raise ValidationError("spin", f"unknown spin {spin!r}, expected 'up' or 'down'")
    modes = modes_for_dim(dim)
    raise ValidationError("mode", f"unknown mode {mode!r} for dim {dim}, expected one of {modes}")


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitude vector over the spin x mode basis, unit norm enforced."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.array(self.amplitudes, dtype=complex)
        if amp.ndim != 1 or amp.shape[0] not in _MODES_BY_DIM:
            raise ValidationError(
                "amplitudes", f"expected a vector of length 4 or 6, got shape {amp.shape}"
            )
        norm_sq = float(np.vdot(amp, amp).real)
        if not abs(norm_sq - 1.0) <= ATOL:
            raise ValidationError(
                "amplitudes", f"squared norm {norm_sq!r} deviates from 1 by more than {ATOL}"
            )
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def amplitude(self, spin: str, mode: str) -> complex:
        return complex(self.amplitudes[basis_index(spin, mode, self.dim)])


@dataclass(frozen=True, eq=False)
class Unitary:
    """Dense complex square matrix; unitarity is checked at construction.

    The check max |U^dag U - I| <= ATOL is written so that a NaN defect fails:
    non-finite entries are never unitary.  Such entries (inf * 0) and huge ones
    (overflow) raise no numpy warning.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in _MODES_BY_DIM:
            raise ValidationError("matrix", f"expected a 4x4 or 6x6 matrix, got shape {m.shape}")
        with np.errstate(invalid="ignore", over="ignore"):
            gram = m.conj().T @ m
        defect = float(np.abs(gram - _IDENTITY[m.shape[0]]).max())
        if not defect <= ATOL:
            raise ValidationError("matrix", f"not unitary, max |U^dag U - I| = {defect:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _rx_matrix(theta: float, pair: tuple[str, str], dim: int) -> np.ndarray:
    """Matrix of exp(i theta sigma_x) on the mode pair, identity elsewhere."""
    # The pair's indices in each spin block; a bad mode or dim fails here.
    blocks = [(basis_index(spin, pair[0], dim), basis_index(spin, pair[1], dim)) for spin in SPINS]
    c, s = math.cos(theta), 1j * math.sin(theta)
    m = _IDENTITY[dim].copy()
    for i, j in blocks:
        m[i, i] = m[j, j] = c
        m[i, j] = m[j, i] = s
    return m


def rx_mode(theta: float, mode_pair: tuple[str, str] = (DOT0, DOT1), dim: int = 4) -> Unitary:
    """Tunneling rotation exp(i theta sigma_x) on a mode pair, identity on spin.

    Sends |sigma; a> to cos(theta)|sigma; a> + i sin(theta)|sigma; b> for the
    pair (a, b); a third mode, if present, is untouched.  theta may be any
    finite angle.
    """
    check_finite("theta", theta)
    if len(mode_pair) != 2:
        raise ValidationError("mode_pair", f"expected two modes, got {mode_pair!r}")
    a, b = mode_pair
    if a == b:
        raise ValidationError("mode_pair", f"modes must be distinct, got {a!r} twice")
    return Unitary(_rx_matrix(theta, mode_pair, dim))


def _u2_matrix(psi: float, phi: float) -> np.ndarray:
    """Matrix of the conditional phase diag(e^{i(psi-phi/2)}, 1, e^{i(psi+phi/2)}, 1)."""
    m = _IDENTITY[4].copy()
    m[0, 0] = cmath.exp(1j * (psi - phi / 2))
    m[2, 2] = cmath.exp(1j * (psi + phi / 2))
    return m


def u2_general(psi: float, phi: float) -> Unitary:
    """Imperfect conditional phase diag(e^{i(psi-phi/2)}, 1, e^{i(psi+phi/2)}, 1).

    psi is the extra phase tying spin to mode, phi the spin-rotation angle;
    (psi, phi) = (pi/2, pi) recovers the ideal sign flip diag(1, 1, -1, 1),
    which flips only |down;0>.  Both may be any finite angle.
    """
    check_finite("psi", psi)
    check_finite("phi", phi)
    return Unitary(_u2_matrix(psi, phi))


def rz_spin(phi: float, mode: str, dim: int = 4) -> Unitary:
    """Spin rotation exp(i phi sigma_z) applied on the target mode only; phi
    may be any finite angle."""
    check_finite("phi", phi)
    up, down = basis_index(SPIN_UP, mode, dim), basis_index(SPIN_DOWN, mode, dim)
    m = _IDENTITY[dim].copy()
    m[up, up] = cmath.exp(1j * phi)
    m[down, down] = cmath.exp(-1j * phi)
    return Unitary(m)


def compose(gates: list[Unitary] | tuple[Unitary, ...]) -> Unitary:
    """Product of `gates` in time order: the first listed acts first."""
    if not gates:
        raise ValidationError("gates", "need at least one gate to compose")
    for i, gate in enumerate(gates):
        if not isinstance(gate, Unitary):
            raise ValidationError("gates", f"gate {i} is a {type(gate).__name__}, expected a Unitary")
        if gate.dim != gates[0].dim:
            raise ValidationError("gates", f"gate {i} has dim {gate.dim}, expected {gates[0].dim}")
    total = gates[0].matrix
    for gate in gates[1:]:
        total = gate.matrix @ total
    return Unitary(total)


def apply(u: Unitary, s: StateVector) -> StateVector:
    """Act with `u` on `s`; the result re-validates the unit norm."""
    if not isinstance(u, Unitary):
        raise ValidationError("u", f"got a {type(u).__name__}, expected a Unitary")
    if not isinstance(s, StateVector):
        raise ValidationError("s", f"got a {type(s).__name__}, expected a StateVector")
    if u.dim != s.dim:
        raise ValidationError("dim", f"gate dim {u.dim} does not match state dim {s.dim}")
    return StateVector(u.matrix @ s.amplitudes)


@dataclass(frozen=True)
class SpinInput:
    """Bloch angles of the unknown spin sitting in dot 0.

    delta is rejected outside [0, pi] rather than wrapped, so that averages
    over the input distribution keep their meaning.
    """

    delta: float
    gamma: float = 0.0

    def __post_init__(self):
        check_delta(self.delta)
        if not 0.0 <= self.gamma < 2 * math.pi:
            raise ValidationError("gamma", f"{self.gamma!r} outside [0, 2*pi)")

    def to_state(self, dim: int = 4) -> StateVector:
        """(cos(delta/2)|up> + e^{i gamma} sin(delta/2)|down>) in dot 0."""
        amp = np.zeros(dim, dtype=complex)
        amp[basis_index(SPIN_UP, DOT0, dim)] = math.cos(self.delta / 2)
        amp[basis_index(SPIN_DOWN, DOT0, dim)] = cmath.exp(1j * self.gamma) * math.sin(self.delta / 2)
        return StateVector(amp)


@dataclass(frozen=True)
class GateParams:
    """Gate-imperfection angles: mode rotations theta1/theta2 of the two
    tunneling steps, conditional phase psi, spin-rotation angle phi.
    Each angle lies in [-MAX_ANGLE, MAX_ANGLE]; periodicity is the caller's
    concern."""

    theta1: float
    theta2: float
    psi: float
    phi: float

    def __post_init__(self):
        for name in ("theta1", "theta2", "psi", "phi"):
            check_angle(name, getattr(self, name))

    @classmethod
    def ideal(cls) -> "GateParams":
        return cls(math.pi / 4, math.pi / 4, math.pi / 2, math.pi)
