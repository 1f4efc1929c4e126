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

from .errors import ValidationError, _check_int, _check_real
from .fredholm import _bounded_values, _matrix_from_json, _matrix_to_json, _spectral_matrix

# Unitarity of the holonomy, ||U U* - I|| in operator norm.
U_TOL = 1e-10
# Residual ||U v - exp(2 pi i theta) v|| per computed eigenpair.
R_TOL = 1e-9
# Gap below which eigenvalues merge into one multiplicity cluster.
C_TOL = 1e-8
# Distance to the nearest integer that still counts as integral.
I_TOL = 1e-8
# Most ladder values 2*pi*(n + delta + theta_j) one spectrum read may hold.
MAX_LADDER_ENTRIES = 10**8

AngleLike = Union[int, float, Fraction, str]


def _to_angle(value: AngleLike) -> float:
    """Coerce an angle given as number, Fraction or 'p/q' string to [0, 1)."""
    try:
        a = float(Fraction(value)) if isinstance(value, str) else _check_real("angle", value, positive=None)
    except (ValidationError, ValueError, OverflowError, ZeroDivisionError):
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
            if isinstance(self.delta, (bool, np.bool_)):
                raise TypeError  # Fraction(False) would read a bool as the periodic structure
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
        k = _check_int("holonomy 'k'", k, 1)
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
        if ("matrix" in obj) == ("angles" in obj):
            raise ValidationError("holonomy JSON needs exactly one of 'matrix' and 'angles'")
        if "angles" in obj:
            return cls(obj["k"], angles=obj["angles"])
        return cls(obj["k"], matrix=_matrix_from_json(obj["matrix"], "holonomy matrix"))

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
        self.epsilon = _check_real("window radius", self.epsilon)
        prev = None
        for value, mult in self.eigenvalues:
            if abs(value) >= self.epsilon:
                raise ValidationError(f"eigenvalue {value} outside open window of radius {self.epsilon}")
            _check_int("multiplicity", mult, 1)
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
    c_tol = _check_real("c_tol", c_tol, positive=False)
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
    u_tol = _check_real("u_tol", u_tol, positive=False)
    r_tol = _check_real("r_tol", r_tol, positive=False)
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
    return _spectral_matrix(z, angles)


def analytic_spectrum(
    h: HolonomySpec,
    s: SpinStructure,
    epsilon: float,
    *,
    u_tol: float = U_TOL,
    r_tol: float = R_TOL,
    c_tol: float = C_TOL,
) -> SpectrumWindow:
    """Closed-form window spectrum { 2*pi*(n + delta + theta_j) } cap (-eps, eps)."""
    epsilon = _check_real("window radius", epsilon)
    quantum = 2.0 * math.pi
    delta = float(s.delta)
    modes = []
    for theta in holonomy_angles(h, u_tol=u_tol, r_tol=r_tol):
        shift = delta + theta
        n_lo = math.floor(-epsilon / quantum - shift) - 1
        n_hi = math.ceil(epsilon / quantum - shift) + 1
        modes.append((shift, range(n_lo, n_hi + 1)))
    _check_ladder(sum(len(ns) for _, ns in modes), remedy="lower the window radius", spectrum="closed-form spectrum")
    values = np.concatenate([quantum * (np.arange(ns.start, ns.stop) + shift) for shift, ns in modes])
    return SpectrumWindow(epsilon, cluster_values(values[np.abs(values) < epsilon], c_tol))


def kernel_dim(
    h: HolonomySpec,
    s: SpinStructure,
    *,
    u_tol: float = U_TOL,
    r_tol: float = R_TOL,
    i_tol: float = I_TOL,
) -> int:
    """Number of angles with theta_j + delta integral, i.e. the zero modes."""
    i_tol = _check_real("i_tol", i_tol, positive=False)
    delta = float(s.delta)
    count = 0
    for theta in holonomy_angles(h, u_tol=u_tol, r_tol=r_tol):
        x = theta + delta
        if abs(x - round(x)) <= i_tol:
            count += 1
    return count


def _block_truncation(log: np.ndarray, delta: float, n_modes: int) -> np.ndarray:
    """Dense truncation with the mode blocks 2*pi*((n + delta) I + log), n = -N..N, on its diagonal.

    `log` is a (..., k, k) stack of Hermitian angle matrices; the result has
    shape (..., B*k, B*k) with B = 2N+1, so a whole grid of holonomies is
    built at once.
    """
    log = np.asarray(log, dtype=complex)
    *lead, k, _ = log.shape
    b = 2 * n_modes + 1
    eye = np.eye(k, dtype=complex)
    out = np.zeros((*lead, b, k, b, k), dtype=complex)
    for i, shift in enumerate(np.arange(-n_modes, n_modes + 1) + delta):
        out[..., i, :, i, :] = 2.0 * math.pi * (shift * eye + log)
    return out.reshape(*lead, b * k, b * k)


def _rung(shift, angles):
    """Ladder value 2*pi*((n + delta) + theta) for a shift n + delta; every ladder read uses it."""
    return 2.0 * math.pi * (shift + angles)


def _mode_spectra(angles: np.ndarray, delta: float, n_modes: int) -> np.ndarray:
    """Eigenvalues of the mode blocks of `_block_truncation(log, delta, n_modes)` from those of `log`.

    The blocks share the eigenbasis of `log`, so from its ascending (..., k)
    eigen-angles block n has eigenvalues 2*pi*(n + delta + theta_j), listed
    n slowest and theta ascending like a batched eigvalsh of the blocks.
    """
    shifts = np.arange(-n_modes, n_modes + 1) + delta
    ladder = _rung(shifts[:, None], angles[..., None, :])
    return ladder.reshape(*angles.shape[:-1], ladder.shape[-2] * ladder.shape[-1])


def _ladder_bracket(angles: np.ndarray, delta: float, n_modes: int, targets, *, bounded: bool = False):
    """Rank of each target in the ladder of every angle, and the two rungs around it.

    The ladder of an angle theta is its rungs 2*pi*(n + delta + theta), n =
    -N..N, mapped through x / sqrt(1 + x^2) when `bounded`; it ascends in n.
    `targets` broadcasts against `angles`: a (T, 1) column against a 1-d
    table gives (T, n) arrays.  The rank counts the rungs strictly below the
    target (so at or below t for the target nextafter(t, inf)), and `lower`
    / `upper` are the rungs just below and just above the rank, -inf / +inf
    past the ends.  Each rung is evaluated by the expression `_mode_spectra`
    uses, so any count, distance or minimum read off these two rungs equals
    the one over the whole ladder bit for bit.  That needs the rungs in
    order, which rounding keeps except for bounded rungs within an ulp or
    two of +-1, past about 10**5 modes; there the two rungs still straddle
    the target.
    """

    def rung(n, th):
        v = _rung(n + delta, th)  # n holds whole mode numbers as floats
        return _bounded_values(v) if bounded else v

    def around(n, th):
        # rungs n - 1 and n, -inf / +inf for a rung past either end
        return np.where(n > -n_modes, rung(n - 1.0, th), -math.inf), np.where(n <= n_modes, rung(n, th), math.inf)

    # the mode n of the first rung not below the target, guessed from the
    # target's preimage on the raw ladder and checked against the rungs on
    # either side: rounding can move the guess by a rung
    t = np.asarray(targets, dtype=float)
    raw = t
    if bounded:
        with np.errstate(divide="ignore", invalid="ignore"):
            raw = np.where(np.abs(t) < 1.0, t / np.sqrt(1.0 - t * t), np.copysign(math.inf, t))
    n = np.ceil(raw / (2.0 * math.pi) - delta - angles)
    np.clip(n, -n_modes, n_modes + 1, out=n)
    lower, upper = around(n, angles)
    lower_ok = lower < t
    miss = ~lower_ok | (upper < t)
    if miss.any():
        # bisect the modes the guess missed, each known to lie in [lo, hi]
        idx = np.nonzero(miss)
        th, tt, guess = np.broadcast_to(angles, n.shape)[idx], np.broadcast_to(t, n.shape)[idx], n[idx]
        lo = np.where(lower_ok[idx], guess + 1.0, -n_modes)
        hi = np.where(lower_ok[idx], n_modes + 1, guess - 1.0)
        while (hi > lo).any():
            mid = np.floor((lo + hi) / 2.0)
            under = rung(mid, th) < tt
            lo, hi = np.where((hi > lo) & under, mid + 1.0, lo), np.where((hi > lo) & ~under, mid, hi)
        n[idx] = lo
        lower[idx], upper[idx] = around(lo, th)
    return (n + n_modes).astype(np.int64), lower, upper


def _check_ladder(
    entries: int,
    remedy: str = "lower the truncation order, resolution or rank",
    spectrum: str = "truncated spectrum",
) -> None:
    """Refuse a `spectrum` read of more than MAX_LADDER_ENTRIES values before building it; `remedy` says how."""
    if entries > MAX_LADDER_ENTRIES:
        raise ValidationError(
            f"{spectrum} of {entries} ladder values exceeds the {MAX_LADDER_ENTRIES} "
            f"value limit; {remedy}"
        )


def fourier_truncation(
    h: HolonomySpec,
    s: SpinStructure,
    n_modes: int,
    *,
    u_tol: float = U_TOL,
    r_tol: float = R_TOL,
) -> np.ndarray:
    """Block-diagonal Hermitian truncation of size k*(2N+1), modes |n| <= N."""
    n_modes = _check_int("truncation order", n_modes, 1)
    log = holonomy_log(h, u_tol=u_tol, r_tol=r_tol)
    return _block_truncation(log, float(s.delta), n_modes)


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
    n_modes = _check_int("truncation order", n_modes, 1)
    log = np.diag(np.asarray(angles, dtype=float))
    return _block_truncation(log, float(delta), n_modes)


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
    epsilon = _check_real("window radius", epsilon)
    n_modes = _check_int("truncation order", n_modes, 1)
    _check_ladder(h.k * (2 * n_modes + 1))
    angles = np.asarray(holonomy_angles(h, u_tol=u_tol, r_tol=r_tol))
    w = _mode_spectra(angles, float(s.delta), n_modes)
    return SpectrumWindow(epsilon, cluster_values(w[np.abs(w) < epsilon], c_tol))
