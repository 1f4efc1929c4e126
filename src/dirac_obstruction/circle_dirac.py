"""Spectra of Dirac operators on the circle twisted by a flat bundle.

With unit circumference the twisted operator splits over Fourier modes: the
block of mode n is 2*pi*((n + delta) I + A), where delta in {0, 1/2} is the
spinor boundary phase and A is the Hermitian logarithm of the holonomy
unitary, normalized so that its eigenvalues (the twist angles) lie in
[0, 1).  The full spectrum is therefore { 2*pi*(n + delta + theta_j) } over
all modes n and angles theta_j, and a finite truncation keeps the modes
|n| <= N.  Inside a window that the kept modes saturate, truncation is
exact: the matrix is block diagonal, so cutting modes introduces no error.

All tolerances are overridable keyword arguments; the defaults keep an order
of magnitude between successive checks so that one misclassification cannot
cascade into the next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .errors import ValidationError
from .fredholm import _check_radius, _matrix_from_json, _matrix_to_json

# Unitarity of the holonomy, ||U U* - I|| in operator norm.
U_TOL = 1e-10
# Residual ||U v - exp(2 pi i theta) v|| per computed eigenpair.
R_TOL = 1e-9
# Gap below which eigenvalues merge into one multiplicity cluster.
C_TOL = 1e-8
# Distance to the nearest integer that still counts as integral.
I_TOL = 1e-8

AngleLike = Union[int, float, Fraction, str]


def _to_angle(value: AngleLike) -> float:
    """Coerce an angle given as number, Fraction or 'p/q' string to [0, 1)."""
    try:
        a = float(Fraction(value) if isinstance(value, str) else value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        a = math.nan  # rejected below together with the non-finite numbers
    if not math.isfinite(a):
        raise ValidationError(f"angle must be a finite number or 'p/q' string, got {value!r}")
    a %= 1.0
    # float modulo can round a tiny negative input up to exactly 1.0
    return 0.0 if a >= 1.0 else a


@dataclass(frozen=True)
class SpinStructure:
    """Spinor boundary phase exponent; only 0 and 1/2 occur on the circle.

    delta = 1/2 is the structure with no untwisted harmonic spinors, so a
    kernel can only come from the twist; delta = 0 has them already.
    """

    delta: Fraction = Fraction(1, 2)

    def __post_init__(self) -> None:
        try:
            d = Fraction(self.delta)
        except (TypeError, ValueError, OverflowError, ZeroDivisionError):
            raise ValidationError(f"spin phase exponent must be 0 or 1/2, got {self.delta!r}") from None
        if d not in (Fraction(0), Fraction(1, 2)):
            raise ValidationError(f"spin phase exponent must be 0 or 1/2, got {d}")
        object.__setattr__(self, "delta", d)

    @classmethod
    def parse(cls, text: Union[str, int, float, Fraction]) -> "SpinStructure":
        return cls(text)

    def to_json(self) -> str:
        return str(self.delta)


class HolonomySpec:
    """Flat twist data: a k x k unitary matrix or its eigenvalue angles.

    Exactly one of `matrix` and `angles` is given.  Angles are normalized to
    [0, 1) on construction; the matrix form is validated for unitarity at the
    point of use, where the tolerance can be overridden.
    """

    __slots__ = ("k", "matrix", "angles")

    def __init__(self, k: int, matrix=None, angles: Sequence[AngleLike] | None = None):
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ValidationError(f"holonomy rank must be a positive integer, got {k!r}")
        if (matrix is None) == (angles is None):
            raise ValidationError("give exactly one of matrix= and angles=")
        self.k = k
        if matrix is not None:
            m = np.asarray(matrix, dtype=complex)
            if m.shape != (k, k):
                raise ValidationError(f"holonomy matrix must be {k}x{k}, got shape {m.shape}")
            self.matrix = m
            self.angles = None
        else:
            if isinstance(angles, (str, bytes)) or not hasattr(angles, "__len__"):
                raise ValidationError(f"angles must be a list of numbers, got {angles!r}")
            if len(angles) != k:
                raise ValidationError(f"expected {k} angles, got {len(angles)}")
            self.matrix = None
            self.angles = [_to_angle(a) for a in angles]

    @classmethod
    def identity(cls, k: int) -> "HolonomySpec":
        return cls(k, angles=[0] * k)

    @classmethod
    def from_matrix(cls, matrix) -> "HolonomySpec":
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"holonomy matrix must be square, got shape {m.shape}")
        return cls(m.shape[0], matrix=m)

    @classmethod
    def from_angles(cls, angles: Sequence[AngleLike]) -> "HolonomySpec":
        return cls(len(angles), angles=angles)

    @classmethod
    def from_json(cls, obj: dict) -> "HolonomySpec":
        if not isinstance(obj, dict) or "k" not in obj:
            raise ValidationError("holonomy JSON must be an object with a 'k' field")
        k = obj["k"]
        if not isinstance(k, int):
            raise ValidationError(f"holonomy 'k' must be an integer, got {k!r}")
        if ("matrix" in obj) == ("angles" in obj):
            raise ValidationError("holonomy JSON needs exactly one of 'matrix' and 'angles'")
        if "angles" in obj:
            return cls(k, angles=obj["angles"])
        return cls(k, matrix=_matrix_from_json(obj["matrix"], "holonomy matrix"))

    def to_json(self) -> dict:
        if self.angles is not None:
            return {"k": self.k, "angles": list(self.angles)}
        return {"k": self.k, "matrix": _matrix_to_json(self.matrix)}

    def __repr__(self) -> str:
        if self.angles is not None:
            return f"HolonomySpec(k={self.k}, angles={self.angles})"
        return f"HolonomySpec(k={self.k}, matrix=<{self.k}x{self.k}>)"


@dataclass
class SpectrumWindow:
    """Eigenvalues with multiplicities strictly inside (-epsilon, epsilon)."""

    epsilon: float
    eigenvalues: list[tuple[float, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        _check_radius(self.epsilon)
        prev = None
        for value, mult in self.eigenvalues:
            if abs(value) >= self.epsilon:
                raise ValidationError(f"eigenvalue {value} outside open window of radius {self.epsilon}")
            if mult < 1:
                raise ValidationError(f"multiplicity must be positive, got {mult}")
            if prev is not None and value <= prev:
                raise ValidationError("clustered eigenvalues must be strictly ascending")
            prev = value

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.eigenvalues)

    def values(self) -> list[float]:
        """Eigenvalues repeated according to multiplicity."""
        out: list[float] = []
        for value, mult in self.eigenvalues:
            out.extend([value] * mult)
        return out

    def to_csv(self) -> str:
        lines = ["value,multiplicity"]
        for value, mult in self.eigenvalues:
            lines.append(f"{value:.17g},{mult}")
        return "\n".join(lines) + "\n"


def cluster_values(values: Sequence[float], c_tol: float = C_TOL) -> list[tuple[float, int]]:
    """Group sorted values into multiplicity clusters split at gaps > c_tol."""
    ordered = sorted(float(v) for v in values)
    clusters: list[tuple[float, int]] = []
    group: list[float] = []
    for v in ordered:
        if group and v - group[-1] > c_tol:
            clusters.append((sum(group) / len(group), len(group)))
            group = []
        group.append(v)
    if group:
        clusters.append((sum(group) / len(group), len(group)))
    return clusters


def _require_unitary(matrix: np.ndarray, u_tol: float) -> None:
    gram = matrix @ matrix.conj().T
    try:
        dev = np.linalg.norm(gram - np.eye(matrix.shape[0]), ord=2)
    except np.linalg.LinAlgError:  # the SVD of a non-finite matrix may not converge
        dev = math.nan
    if not dev <= u_tol:
        raise ValidationError(
            f"holonomy is not unitary: ||U U* - I|| = {dev:.3e} exceeds u_tol = {u_tol:.3e}"
        )


def _unitary_eigensystem(matrix: np.ndarray, u_tol: float, r_tol: float):
    """Eigen-angles in [0, 1) and an orthonormal eigenbasis of a unitary.

    `np.linalg.eig` returns the diagonal of a complex Schur form T = Z* U Z
    and eigenvectors Z X with X upper triangular, which are not orthogonal
    inside a cluster.  One QR of them recovers Z up to column phases; for a
    (numerically) normal matrix T is diagonal up to roundoff, so that Schur
    basis is an eigenbasis.  Each pair is checked against the residual bound
    r_tol.
    """
    _require_unitary(matrix, u_tol)
    eigenvalues, vectors = np.linalg.eig(matrix)
    z, _ = np.linalg.qr(vectors)
    raw = np.angle(eigenvalues) / (2.0 * math.pi)
    angles = raw % 1.0
    angles[angles >= 1.0] = 0.0
    phases = np.exp(2j * math.pi * angles)
    residuals = np.linalg.norm(matrix @ z - z * phases[None, :], axis=0)
    worst = float(residuals.max())
    if worst > r_tol:
        raise ValidationError(
            f"eigenpair residual {worst:.3e} exceeds r_tol = {r_tol:.3e}; "
            "the holonomy is too far from normal"
        )
    return angles, z


def holonomy_angles(h: HolonomySpec, *, u_tol: float = U_TOL, r_tol: float = R_TOL) -> list[float]:
    """Eigenvalue angles of the holonomy, ascending in [0, 1)."""
    if h.angles is not None:
        return sorted(h.angles)
    angles, _ = _unitary_eigensystem(h.matrix, u_tol, r_tol)
    return sorted(float(a) for a in angles)


def holonomy_log(h: HolonomySpec, *, u_tol: float = U_TOL, r_tol: float = R_TOL) -> np.ndarray:
    """Hermitian principal logarithm scaled to angles, eigenvalues in [0, 1)."""
    if h.angles is not None:
        return np.diag(np.asarray(h.angles, dtype=float)).astype(complex)
    angles, z = _unitary_eigensystem(h.matrix, u_tol, r_tol)
    log = (z * angles[None, :]) @ z.conj().T
    return (log + log.conj().T) / 2.0


def analytic_spectrum(
    h: HolonomySpec,
    s: SpinStructure,
    epsilon: float,
    *,
    u_tol: float = U_TOL,
    r_tol: float = R_TOL,
    c_tol: float = C_TOL,
    scale: float = 1.0,
) -> SpectrumWindow:
    """Closed-form window spectrum { 2*pi*scale*(n + delta + theta_j) } cap (-eps, eps)."""
    _check_radius(epsilon)
    if scale <= 0:
        raise ValidationError(f"scale must be positive, got {scale}")
    quantum = 2.0 * math.pi * scale
    delta = float(s.delta)
    values: list[float] = []
    for theta in holonomy_angles(h, u_tol=u_tol, r_tol=r_tol):
        shift = delta + theta
        n_lo = math.floor(-epsilon / quantum - shift) - 1
        n_hi = math.ceil(epsilon / quantum - shift) + 1
        for n in range(n_lo, n_hi + 1):
            v = quantum * (n + shift)
            if abs(v) < epsilon:
                values.append(v)
    return SpectrumWindow(epsilon, cluster_values(values, c_tol))


def kernel_dim(
    h: HolonomySpec,
    s: SpinStructure,
    *,
    u_tol: float = U_TOL,
    r_tol: float = R_TOL,
    i_tol: float = I_TOL,
) -> int:
    """Number of angles with theta_j + delta integral, i.e. the zero modes."""
    delta = float(s.delta)
    count = 0
    for theta in holonomy_angles(h, u_tol=u_tol, r_tol=r_tol):
        x = theta + delta
        if abs(x - round(x)) <= i_tol:
            count += 1
    return count


def mode_blocks(log: np.ndarray, delta: float, n_modes: int) -> np.ndarray:
    """Mode blocks 2*pi*((n + delta) I + log), n = -N..N, as a new axis.

    `log` is a (..., k, k) stack of Hermitian angle matrices; the result has
    shape (..., 2N+1, k, k), so a whole grid of holonomies is built at once.
    """
    log = np.asarray(log, dtype=complex)
    shifts = np.arange(-n_modes, n_modes + 1) + delta
    eye = np.eye(log.shape[-1], dtype=complex)
    return 2.0 * math.pi * (shifts[:, None, None] * eye + log[..., None, :, :])


def _mode_spectra(angles: np.ndarray, delta: float, n_modes: int) -> np.ndarray:
    """Eigenvalues of `mode_blocks(log, delta, n_modes)` from those of `log`.

    The blocks share the eigenbasis of `log`, so from its ascending (..., k)
    eigen-angles block n has eigenvalues 2*pi*(n + delta + theta_j), listed
    n slowest and theta ascending like a batched eigvalsh of the blocks.
    """
    shifts = np.arange(-n_modes, n_modes + 1) + delta
    ladder = 2.0 * math.pi * (shifts[:, None] + angles[..., None, :])
    return ladder.reshape(*angles.shape[:-1], -1)


def dense_operator(blocks: np.ndarray) -> np.ndarray:
    """Dense (..., B*k, B*k) matrices with the (..., B, k, k) blocks on the diagonal."""
    *lead, b, k, _ = blocks.shape
    out = np.zeros((*lead, b, k, b, k), dtype=blocks.dtype)
    for i in range(b):
        out[..., i, :, i, :] = blocks[..., i, :, :]
    return out.reshape(*lead, b * k, b * k)


def _check_truncation(n_modes: int) -> None:
    if n_modes < 1:
        raise ValidationError(f"truncation order must be >= 1, got {n_modes}")


def fourier_truncation(
    h: HolonomySpec,
    s: SpinStructure,
    n_modes: int,
    *,
    u_tol: float = U_TOL,
    r_tol: float = R_TOL,
) -> np.ndarray:
    """Block-diagonal Hermitian truncation of size k*(2N+1), modes |n| <= N."""
    _check_truncation(n_modes)
    log = holonomy_log(h, u_tol=u_tol, r_tol=r_tol)
    return dense_operator(mode_blocks(log, float(s.delta), n_modes))


def truncation_from_angles(
    angles: Sequence[float],
    delta: Union[float, Fraction],
    n_modes: int,
) -> np.ndarray:
    """Truncated operator for raw (unnormalized) angles.

    Unlike `fourier_truncation` the angles are used as given, so they may lie
    outside [0, 1).  This is what paths lifted to the angle covering line
    need: the matrix at angle 1 is the ladder of angle 0 shifted by one full
    quantum, not the same matrix.
    """
    _check_truncation(n_modes)
    log = np.diag(np.asarray(angles, dtype=float))
    return dense_operator(mode_blocks(log, float(delta), n_modes))


def truncation_spectrum(
    h: HolonomySpec,
    s: SpinStructure,
    n_modes: int,
    epsilon: float,
    *,
    u_tol: float = U_TOL,
    r_tol: float = R_TOL,
    c_tol: float = C_TOL,
) -> SpectrumWindow:
    """Window spectrum of the truncation, read off the holonomy's eigen-angles.

    The truncation is block diagonal and every mode block shares the
    eigenbasis of the log, so its spectrum is the ladder
    2*pi*(n + delta + theta_j), |n| <= N; no block is built or diagonalized.
    """
    _check_radius(epsilon)
    _check_truncation(n_modes)
    angles = np.asarray(holonomy_angles(h, u_tol=u_tol, r_tol=r_tol))
    w = _mode_spectra(angles, float(s.delta), n_modes)
    values = [float(v) for v in w[np.abs(w) < epsilon]]
    return SpectrumWindow(epsilon, cluster_values(values, c_tol))
