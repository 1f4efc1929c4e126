"""Finite-matrix mechanics for families of Hermitian operators.

This module carries the proof machinery of the obstruction check at matrix
level: the bounded transform x -> x / sqrt(1 + x^2), the piecewise-linear
shift deformations that move a spectral level to zero, window eigenvalue
counts, the shifted-invertibility cover, and spectral flow along discretized
paths.  Everything is a pure function of its inputs; matrix functions are
applied through eigendecompositions so that they act exactly on spectra.
"""

from __future__ import annotations

import gc
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BoundaryAmbiguityError,
    EndpointDegeneracyError,
    RefinementRequiredError,
    ValidationError,
    _check_int,
    _check_real,
)

# Hermitian deviation max|A - A*| tolerated before rejecting; accepted inputs
# are symmetrized to (A + A*)/2.
H_TOL = 1e-10
# Smallest-singular-value threshold for "invertible" in cover building.
INV_TOL = 1e-8
# Width of the boundary guard around +-epsilon in window counts.
B_TOL = 1e-8
# Singular values within a decade of INV_TOL are flagged as indeterminate and
# conservatively treated as not invertible.
AMBIGUITY_DECADE = 10.0


def require_hermitian(matrix, h_tol: float = H_TOL, what: str = "matrix") -> np.ndarray:
    """Validate Hermitian-ness within h_tol and return the symmetrized copy."""
    h_tol = _check_real("h_tol", h_tol, positive=False)
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"{what} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValidationError(f"{what} has non-finite entries")
    dev = float(np.abs(m - m.conj().T).max()) if m.size else 0.0
    if dev > h_tol:
        raise ValidationError(
            f"{what} is not Hermitian: max|A - A*| = {dev:.3e} exceeds h_tol = {h_tol:.3e}"
        )
    return (m + m.conj().T) / 2.0


def _matrix_from_json(rows, what: str) -> np.ndarray:
    """Decode a square complex matrix stored as rows of [re, im] pairs."""
    try:
        a = np.asarray(rows)
    except ValueError as exc:
        raise ValidationError(f"{what} must be rows of [re, im] pairs: {exc}") from None
    if a.dtype.kind not in "iuf" or a.ndim != 3 or a.shape[0] != a.shape[1] or a.shape[2] != 2:
        raise ValidationError(
            f"{what} must be n x n rows of numeric [re, im] pairs, got shape {a.shape} "
            f"of dtype {a.dtype}"
        )
    if not np.isfinite(a).all():
        raise ValidationError(f"{what} has non-finite entries")
    m = np.empty(a.shape[:2], dtype=complex)
    # copy the parts: re + 1j * im would drop the sign of a zero imaginary part
    m.real, m.imag = a[..., 0], a[..., 1]
    return m


def _load_json(path, what: str):
    """Parse a JSON file; text that is not UTF-8 or not JSON is a ValidationError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValidationError(f"malformed {what} in {path}: {exc}") from None


def _matrix_to_json(matrix: np.ndarray) -> list:
    """Rows of [re, im] pairs, the inverse of `_matrix_from_json`."""
    return np.stack([matrix.real, matrix.imag], axis=-1).tolist()


def _bounded_values(x):
    """The bounded transform x / sqrt(1 + x^2) applied to numbers elementwise."""
    return x / np.sqrt(1.0 + x * x)


def _spectral_matrix(basis: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Hermitian u diag(values) u* from orthonormal columns u, symmetrized, over any leading axes."""
    out = (basis * values[..., None, :]) @ basis.conj().swapaxes(-1, -2)
    return (out + out.conj().swapaxes(-1, -2)) / 2.0


def bounded_transform(matrix, *, h_tol: float = H_TOL) -> np.ndarray:
    """Compress a Hermitian matrix through x -> x / sqrt(1 + x^2).

    The output has the same eigenvectors, eigenvalues strictly inside
    (-1, 1), and exactly the same kernel.
    """
    m = require_hermitian(matrix, h_tol)
    w, v = np.linalg.eigh(m)
    return _spectral_matrix(v, _bounded_values(w))


def shift_levels(k: int, epsilon: float) -> list[float]:
    """The k+1 equispaced shift levels j * epsilon / (k + 1), j = 0..k."""
    k = _check_int("shift count k", k, 0)
    epsilon = _check_real("window radius", epsilon)
    return [j * epsilon / (k + 1) for j in range(k + 1)]


def _shift_map(x: np.ndarray, a: float) -> np.ndarray:
    """Piecewise-linear map: identity outside [-1, 1], zero exactly at a.

    Below a it is (x - a)/(1 + a), above (x - a)/(1 - a); both branches glue
    continuously to the identity at -1 and +1.
    """
    inside = np.abs(x) < 1.0
    lower = (x - a) / (1.0 + a)
    upper = (x - a) / (1.0 - a)
    return np.where(inside, np.where(x <= a, lower, upper), x)


def shift_deform(matrix, j: int, k: int, epsilon: float, *, h_tol: float = H_TOL) -> np.ndarray:
    """Apply the j-th shift deformation to a Hermitian contraction.

    The kernel of the result is the eigenspace of the input at the level
    j * epsilon / (k + 1).
    """
    eps = _check_real("epsilon", epsilon, positive=None)
    if not 0.0 < eps < 1.0:
        raise ValidationError(f"epsilon must lie in (0, 1), got {epsilon}")
    j, k = _check_int("shift index j", j, 0), _check_int("shift count k", k, 0)
    if j > k:
        raise ValidationError(f"shift index must satisfy 0 <= j <= k, got j={j}, k={k}")
    m = require_hermitian(matrix, h_tol)
    w, v = np.linalg.eigh(m)
    if w.size and float(np.abs(w).max()) > 1.0 + h_tol:
        raise ValidationError(
            f"operator norm {float(np.abs(w).max()):.6g} exceeds 1; "
            "apply bounded_transform first"
        )
    return _spectral_matrix(v, _shift_map(w, j * eps / (k + 1)))


def count_in_window(eigenvalues, epsilon: float, *, b_tol: float = B_TOL, label: str = "") -> int:
    """Count the values of a 1-d spectrum strictly inside (-epsilon, epsilon).

    Raises BoundaryAmbiguityError when a value sits within b_tol of either
    edge: the open-interval count could flip under perturbation, so the
    caller must move epsilon instead of trusting a side.  A nonempty `label`
    names the spectrum in that error.
    """
    epsilon = _check_real("window radius", epsilon)
    b_tol = _check_real("b_tol", b_tol, positive=False)
    w = np.asarray(eigenvalues, dtype=float)
    if w.ndim != 1:
        raise ValidationError(f"spectrum must be 1-d, got shape {w.shape}")
    if w.size:
        edge_dist = np.abs(np.abs(w) - epsilon)
        nearest = int(np.argmin(edge_dist))
        if edge_dist[nearest] <= b_tol:
            where = f" at {label}" if label else ""
            raise BoundaryAmbiguityError(
                f"eigenvalue {w[nearest]:.17g}{where} lies within {b_tol:.1e} of the "
                f"window edge +-{epsilon:.17g}; perturb epsilon"
            )
    return int(np.count_nonzero(np.abs(w) < epsilon))


def spectral_count(matrix, epsilon: float, *, h_tol: float = H_TOL, b_tol: float = B_TOL) -> int:
    """Number of eigenvalues, with multiplicity, strictly inside (-eps, eps)."""
    m = require_hermitian(matrix, h_tol)
    return count_in_window(np.linalg.eigvalsh(m), epsilon, b_tol=b_tol)


@dataclass
class FamilyPoint:
    """One parameter sample: an id and its operator."""

    id: str
    op: np.ndarray


class SampledFamily:
    """A finite sampled family of Hermitian matrices, read only through its operators."""

    def __init__(self, dim: int, points: Sequence[FamilyPoint], *, h_tol: float = H_TOL):
        self.dim = _check_int("family 'dim'", dim, 1)
        self.points: list[FamilyPoint] = []
        self._by_id: dict[str, FamilyPoint] = {}
        for p in points:
            if not p.id:
                raise ValidationError("point ids must be non-empty strings")
            if p.id in self._by_id:
                raise ValidationError(f"duplicate point id {p.id!r}")
            op = require_hermitian(p.op, h_tol, what=f"operator at {p.id!r}")
            if op.shape != (dim, dim):
                raise ValidationError(
                    f"operator at {p.id!r} has shape {op.shape}, expected {(dim, dim)}"
                )
            clean = FamilyPoint(p.id, op)
            self.points.append(clean)
            self._by_id[p.id] = clean

    @property
    def ids(self) -> list[str]:
        return [p.id for p in self.points]

    def point(self, point_id: str) -> FamilyPoint:
        try:
            return self._by_id[point_id]
        except KeyError:
            raise ValidationError(f"unknown point id {point_id!r}") from None

    @classmethod
    def from_json(cls, obj: dict, *, h_tol: float = H_TOL) -> "SampledFamily":
        """Decode `{"dim", "points": [{"id", "matrix"}]}`; other keys are ignored."""
        if not isinstance(obj, dict) or "dim" not in obj or "points" not in obj:
            raise ValidationError("family JSON must be an object with 'dim' and 'points'")
        if not isinstance(obj["points"], list):
            raise ValidationError("family 'points' must be a list")
        points = []
        for entry in obj["points"]:
            if not isinstance(entry, dict) or "id" not in entry or "matrix" not in entry:
                raise ValidationError("each family point needs 'id' and 'matrix'")
            op = _matrix_from_json(entry["matrix"], f"matrix at {entry['id']!r}")
            points.append(FamilyPoint(str(entry["id"]), op))
        return cls(obj["dim"], points, h_tol=h_tol)

    @classmethod
    def load(cls, path, *, h_tol: float = H_TOL) -> "SampledFamily":
        # The decoded document is an acyclic tree of lists, dicts, floats and
        # strings that reference counting frees; the cyclic collector would
        # only re-walk it, about a third of a large load.  The pause spans
        # from_json too, which allocates while the whole document is alive.
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return cls.from_json(_load_json(path, "family JSON"), h_tol=h_tol)
        finally:
            if was_enabled:
                gc.enable()

    def to_json(self) -> dict:
        points = [{"id": p.id, "matrix": _matrix_to_json(p.op)} for p in self.points]
        return {"dim": self.dim, "points": points}


@dataclass(frozen=True)
class PathSpec:
    """An ordered walk through family points; closed paths add the wrap step."""

    ids: tuple[str, ...]
    closed: bool = False

    def __post_init__(self) -> None:
        ids = tuple(str(i) for i in self.ids)
        object.__setattr__(self, "ids", ids)
        if not ids:
            raise ValidationError("path must visit at least one point")
        for a, b in zip(ids, ids[1:]):
            if a == b:
                raise ValidationError(f"consecutive path ids must differ, got {a!r} twice")
        if self.closed and len(ids) > 1 and ids[0] == ids[-1]:
            raise ValidationError(
                "closed paths must not repeat the first id; the wrap step is implicit"
            )

    def steps(self) -> list[tuple[str, str]]:
        pairs = list(zip(self.ids, self.ids[1:]))
        # a one-point closed path is the constant loop: no steps at all
        if self.closed and len(self.ids) > 1:
            pairs.append((self.ids[-1], self.ids[0]))
        return pairs


@dataclass
class CoverReport:
    """Which points each shifted operator covers, and whether the union is all."""

    k: int
    epsilon: float
    sets: list[list[str]]
    covered: bool
    uncovered_ids: list[str]
    indeterminate: list[dict]

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "epsilon": self.epsilon,
            "sets": {f"U_{j}": list(ids) for j, ids in enumerate(self.sets)},
            "covered": self.covered,
            "uncovered_ids": list(self.uncovered_ids),
            "indeterminate": list(self.indeterminate),
        }


def _safely_invertible(sigma, inv_tol: float):
    """Smallest singular values above the ambiguity band around inv_tol."""
    return sigma > inv_tol * AMBIGUITY_DECADE


def build_cover(fam: SampledFamily, k: int, epsilon: float, *, inv_tol: float = INV_TOL) -> CoverReport:
    """Cover the family by invertibility of the k+1 shifted operators.

    Point b joins U_j when A_b - a_j I is safely invertible, measured by its
    smallest singular value; for Hermitian A_b that value is the distance
    from a_j to the spectrum, so one eigendecomposition per point suffices.
    Singular values within a decade of inv_tol are flagged indeterminate and
    conservatively kept out of U_j.  When every point has at most k window
    eigenvalues, pigeonhole over the k+1 levels guarantees a full cover.
    A point has at most dim window eigenvalues, so k = dim already covers
    every point and a larger k is refused before any level is built.
    """
    k = _check_int("shift count k", k, 0)
    if k > fam.dim:
        raise ValidationError(f"shift count k = {k} exceeds the family dimension {fam.dim}")
    inv_tol = _check_real("inv_tol", inv_tol, positive=False)
    epsilon = _check_real("window radius", epsilon)
    ops = np.array([p.op for p in fam.points], dtype=complex).reshape(-1, fam.dim, fam.dim)
    spectra = np.linalg.eigvalsh(ops)
    # sigma_min of A - a_j I for every point (rows) and shift level (columns)
    sigma = np.stack([np.abs(spectra - a).min(axis=1) for a in shift_levels(k, epsilon)], axis=1)
    inside = _safely_invertible(sigma, inv_tol)
    ids = np.asarray(fam.ids, dtype=object)
    uncovered = ids[~inside.any(axis=1)].tolist()
    indeterminate = [
        {"id": ids[p], "shift_index": int(j), "sigma_min": float(sigma[p, j])}
        for p, j in np.argwhere(~inside & (sigma >= inv_tol / AMBIGUITY_DECADE))
    ]
    sets = [ids[column].tolist() for column in inside.T]
    return CoverReport(k, epsilon, sets, covered=not uncovered, uncovered_ids=uncovered, indeterminate=indeterminate)


def _check_step(a: str, b: str, norm: float, eta: float) -> None:
    """Reject a path step whose operator change of norm `norm` could hide a crossing."""
    if norm >= eta:
        raise RefinementRequiredError(
            f"step {a!r} -> {b!r} moves the operator by {norm:.6g} >= eta = {eta:.6g}; "
            "refine the path"
        )


def _endpoint_flow(ends: tuple[str, str], spectra: np.ndarray, eta: float) -> int:
    """n_minus(first) - n_minus(last) from the (2, n) spectra of the path ends, each gapped by eta."""
    for which, point_id, w in zip(("first", "last"), ends, spectra):
        if float(np.abs(w).min()) <= eta:
            raise EndpointDegeneracyError(
                f"{which} path point {point_id!r} has an eigenvalue within eta = {eta:.6g} "
                "of zero; the endpoint count is ill-defined"
            )
    n_minus = np.count_nonzero(spectra < 0.0, axis=1)
    return int(n_minus[0] - n_minus[1])


def spectral_flow(fam: SampledFamily, path: PathSpec, eta: float) -> int:
    """Net number of eigenvalues crossing zero upward along the path.

    Every step must move the operator by less than eta in norm, so no
    crossing can hide inside a step; the flow of such a path is then the
    endpoint count n_minus(first) - n_minus(last), read off the two endpoint
    spectra, and it is 0 for a closed path.  An open path also needs
    endpoints with no spectrum in [-eta, eta], so that their counts are
    stable.
    """
    ops = {i: fam.point(i).op for i in path.ids}
    eta = _check_real("crossing guard eta", eta)
    for a, b in path.steps():
        delta = ops[b] - ops[a]
        # Frobenius dominates the 2-norm: only steps it does not pass pay for the exact 2-norm
        if np.linalg.norm(delta) >= eta:
            _check_step(a, b, float(np.linalg.norm(delta, ord=2)), eta)
    if path.closed:
        return 0
    ends = (path.ids[0], path.ids[-1])
    return _endpoint_flow(ends, np.linalg.eigvalsh(np.stack([ops[i] for i in ends])), eta)
