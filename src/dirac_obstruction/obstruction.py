"""End-to-end obstruction check over a torus grid of twist holonomies.

The sampled base is the maximal torus of diagonal holonomies: window spectra
depend only on the eigenvalue angles, so every spectral phenomenon of the
full unitary family already shows up on the torus, while the generator
product is still computed in the full exterior algebra.  The check runs the
two sides against each other: a nonvanishing product of all k generators on
the cohomology side, and the grid maximum of window eigenvalue counts plus a
kernel witness on the spectral side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .circle_dirac import (
    I_TOL,
    HolonomySpec,
    SpinStructure,
    _mode_spectra,
    dense_operator,
    kernel_dim,
    mode_blocks,
)
from .cohomology import AlgebraContext, format_class, obstruction_product
from .errors import ValidationError
from .fredholm import (
    B_TOL,
    INV_TOL,
    FamilyPoint,
    PathSpec,
    SampledFamily,
    _bounded_values,
    _cover_from_spectra,
    _flow,
    count_in_window,
)

MAX_GRID_POINTS = 10**6


def bounded_scalar(x: float) -> float:
    """Scalar form of the bounded transform, x / sqrt(1 + x^2)."""
    return float(_bounded_values(x))


@dataclass(frozen=True)
class TorusGridSpec:
    """Sampling plan: resolution**k diagonal holonomies with angles i/m."""

    k: int
    resolution: int
    spin: SpinStructure = field(default_factory=SpinStructure)
    truncation: int = 4
    diagonal_only: bool = True

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValidationError(f"rank must be positive, got k={self.k}")
        if self.resolution < 2:
            raise ValidationError(f"grid resolution must be >= 2, got {self.resolution}")
        if self.truncation < 1:
            raise ValidationError(f"truncation order must be >= 1, got {self.truncation}")
        if self.resolution**self.k > MAX_GRID_POINTS:
            raise ValidationError(
                f"grid of {self.resolution}**{self.k} points exceeds the "
                f"{MAX_GRID_POINTS} point limit; lower the resolution or rank"
            )

    @property
    def dim(self) -> int:
        return self.k * (2 * self.truncation + 1)


def point_id(index: Sequence[int]) -> str:
    return "_".join(str(i) for i in index)


def parse_point_id(text: str, spec: TorusGridSpec) -> tuple[int, ...]:
    try:
        idx = tuple(int(tok) for tok in text.split("_"))
    except ValueError:
        raise ValidationError(f"malformed grid point id {text!r}") from None
    if len(idx) != spec.k or any(not 0 <= i < spec.resolution for i in idx):
        raise ValidationError(f"grid point id {text!r} outside the {spec.resolution}**{spec.k} grid")
    return idx


def _grid_indices(spec: TorusGridSpec) -> np.ndarray:
    # (P, k) rows in lexicographic order, first coordinate slowest; witness
    # ties resolve to the first maximum seen
    return np.indices((spec.resolution,) * spec.k).reshape(spec.k, -1).T


def _diagonal_logs(angles: np.ndarray) -> np.ndarray:
    """(..., k, k) diagonal angle matrices from (..., k) rows of angles."""
    return angles[..., None, :] * np.eye(angles.shape[-1])


def _grid_logs(spec: TorusGridSpec, indices: np.ndarray) -> np.ndarray:
    """Hermitian angle matrices of every grid point's holonomy, (P, k, k)."""
    angles = indices / spec.resolution
    if spec.diagonal_only:
        return _diagonal_logs(angles)
    # conjugated logs u diag(theta) u* with the same eigen-angles; the Haar
    # unitaries come from one batched QR and one generator per grid, so runs
    # are reproducible
    rng = np.random.default_rng([spec.k, spec.resolution, spec.truncation])
    shape = (len(angles), spec.k, spec.k)
    q, r = np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    u = q * (d / np.abs(d))[:, None, :]
    logs = (u * angles[:, None, :]) @ u.conj().swapaxes(-1, -2)
    return (logs + logs.conj().swapaxes(-1, -2)) / 2.0


def tautological_family(spec: TorusGridSpec) -> SampledFamily:
    """Truncated operators over the whole grid, with wrap-around adjacency."""
    indices = _grid_indices(spec)
    blocks = mode_blocks(_grid_logs(spec, indices), float(spec.spin.delta), spec.truncation)
    rows = [tuple(idx) for idx in indices.tolist()]
    points = [
        FamilyPoint(point_id(idx), op, coords)
        for idx, op, coords in zip(rows, dense_operator(blocks), indices / spec.resolution)
    ]
    edges: list[tuple[str, str]] = []
    for idx in rows:
        for axis in range(spec.k):
            # for m = 2 the wrap edge from 1 is the edge already added from 0
            if spec.resolution == 2 and idx[axis] == 1:
                continue
            neighbor = idx[:axis] + ((idx[axis] + 1) % spec.resolution,) + idx[axis + 1 :]
            edges.append((point_id(idx), point_id(neighbor)))
    return SampledFamily(spec.dim, points, edges)


@dataclass
class EpsilonReport:
    """Grid outcome for one window radius."""

    epsilon: float
    effective_epsilon: float
    max_count: int
    witness_id: str
    witness_coords: list[float]
    witness_kernel_dim: int
    cover_ok: bool | None
    passed: bool

    def to_json(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "effective_epsilon": self.effective_epsilon,
            "max_count": self.max_count,
            "witness_id": self.witness_id,
            "witness_coords": self.witness_coords,
            "witness_kernel_dim": self.witness_kernel_dim,
            "cover_ok": self.cover_ok,
            "passed": self.passed,
        }


@dataclass
class ObstructionVerdict:
    """Joint verdict: nonzero generator product versus grid spectral counts."""

    k: int
    resolution: int
    truncation: int
    spin_delta: str
    bounded: bool
    cohomology_product: str
    cohomology_product_nonzero: bool
    reports: list[EpsilonReport]
    passed: bool

    @property
    def witness(self) -> EpsilonReport:
        """Report of the smallest window radius, the sharpest witness."""
        return min(self.reports, key=lambda r: r.epsilon)

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "resolution": self.resolution,
            "truncation": self.truncation,
            "spin_delta": self.spin_delta,
            "bounded": self.bounded,
            "cohomology_product": self.cohomology_product,
            "cohomology_product_nonzero": self.cohomology_product_nonzero,
            "per_epsilon": [r.to_json() for r in self.reports],
            "passed": self.passed,
        }

    def summary_table(self) -> str:
        header = ("epsilon", "max_count", "witness", "kernel_dim", "cover", "verdict")
        rows = [header]
        for r in self.reports:
            rows.append(
                (
                    f"{r.epsilon:.17g}",
                    str(r.max_count),
                    r.witness_id,
                    str(r.witness_kernel_dim),
                    "-" if r.cover_ok is None else ("ok" if r.cover_ok else "FAIL"),
                    "pass" if r.passed else "FAIL",
                )
            )
        widths = [max(len(row[c]) for row in rows) for c in range(len(header))]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
        return "\n".join(lines) + "\n"


def verify_contrapositive(
    spec: TorusGridSpec,
    epsilon_list: Sequence[float],
    *,
    bounded: bool = False,
    cover_check: bool = True,
    b_tol: float = B_TOL,
    inv_tol: float = INV_TOL,
    i_tol: float = I_TOL,
) -> ObstructionVerdict:
    """Check that a nonzero k-fold generator product coexists with count >= k.

    For every window radius the grid maximum of the window eigenvalue count
    must reach k; a maximum of k-1 or less on a grid containing the true
    witness would contradict the nonvanishing product.  Failure on a grid
    that misses the witness is a sampling caveat, and the verdict reports it
    as such through the per-radius entries.
    """
    eps_list = [float(e) for e in epsilon_list]
    if not eps_list:
        raise ValidationError("need at least one window radius")
    if not all(0.0 < e < math.inf for e in eps_list):
        raise ValidationError(f"window radii must be positive and finite, got {eps_list}")

    ctx = AlgebraContext(spec.k)
    product = obstruction_product(ctx, list(range(1, spec.k + 1)))
    nonzero = not product.is_zero()

    # one eigensolve of the k x k logs: the mode blocks share each log's
    # eigenbasis, so every radius, guard and cover reads their ladders
    indices = _grid_indices(spec)
    angles = np.linalg.eigvalsh(_grid_logs(spec, indices))
    spectra = _mode_spectra(angles, float(spec.spin.delta), spec.truncation)
    if bounded:
        spectra = _bounded_values(spectra)

    reports: list[EpsilonReport] = []
    for eps in eps_list:
        effective = bounded_scalar(eps) if bounded else eps
        counts = count_in_window(spectra, effective, b_tol=b_tol, label=lambda r: f"grid point {point_id(indices[r])}")
        best = int(np.argmax(counts))  # ties resolve to the first maximum in grid order
        max_count = int(counts[best])
        witness_angles = (indices[best] / spec.resolution).tolist()
        wit_kernel = kernel_dim(
            HolonomySpec(spec.k, angles=witness_angles), spec.spin, i_tol=i_tol
        )
        cover_ok: bool | None = None
        if cover_check:
            _, inside = _cover_from_spectra(spectra, max_count, effective, inv_tol)
            cover_ok = bool(inside.any(axis=1).all())
        reports.append(
            EpsilonReport(
                epsilon=eps,
                effective_epsilon=effective,
                max_count=max_count,
                witness_id=point_id(indices[best]),
                witness_coords=witness_angles,
                witness_kernel_dim=wit_kernel,
                cover_ok=cover_ok,
                passed=max_count >= spec.k,
            )
        )

    return ObstructionVerdict(
        k=spec.k,
        resolution=spec.resolution,
        truncation=spec.truncation,
        spin_delta=spec.spin.to_json(),
        bounded=bounded,
        cohomology_product=format_class(product),
        cohomology_product_nonzero=nonzero,
        reports=reports,
        passed=nonzero and all(r.passed for r in reports),
    )


def coordinate_loop(spec: TorusGridSpec, axis: int, base: Sequence[int]) -> PathSpec:
    """Closed grid loop winding once around the given axis from `base`."""
    if not 0 <= axis < spec.k:
        raise ValidationError(f"axis must lie in 0..{spec.k - 1}, got {axis}")
    base_idx = tuple(int(i) for i in base)
    if len(base_idx) != spec.k or any(not 0 <= i < spec.resolution for i in base_idx):
        raise ValidationError(f"base index {base_idx} outside the grid")
    ids = []
    for t in range(spec.resolution):
        idx = base_idx[:axis] + ((base_idx[axis] + t) % spec.resolution,) + base_idx[axis + 1 :]
        ids.append(point_id(idx))
    return PathSpec(tuple(ids), closed=True)


def c1_pairing(spec: TorusGridSpec, loop: PathSpec, *, eta: float | None = None) -> int:
    """Spectral flow of the truncated family along a grid loop.

    The loop is lifted to the angle covering line: every traversed edge moves
    one coordinate by +-1/m continuously, so a loop that winds around the
    torus ends at angles shifted by whole integers and the lifted operator
    path is open even though the base loop is closed.  Winding once upward
    around a coordinate yields flow +1.
    """
    if not spec.diagonal_only:
        raise ValidationError("loop pairing needs the diagonal grid; conjugated samples are not continuous in the grid")
    m = spec.resolution
    seq = [parse_point_id(i, spec) for i in loop.ids]
    if loop.closed and len(seq) > 1:
        seq.append(seq[0])
    lifted = [np.array([i / m for i in seq[0]], dtype=float)]
    for prev, nxt in zip(seq, seq[1:]):
        diffs = [(b - a) % m for a, b in zip(prev, nxt)]
        moving = [ax for ax, d in enumerate(diffs) if d != 0]
        if len(moving) != 1 or diffs[moving[0]] not in (1, m - 1):
            raise ValidationError(f"{prev} -> {nxt} is not a grid edge")
        axis = moving[0]
        # for m = 2 both directions look alike; the upward lift is the convention
        step = 1.0 / m if diffs[axis] == 1 else -1.0 / m
        nxt_lifted = lifted[-1].copy()
        nxt_lifted[axis] += step
        lifted.append(nxt_lifted)

    # each lifted sample stays a (2N+1, k, k) stack of mode blocks
    blocks = mode_blocks(_diagonal_logs(np.array(lifted)), float(spec.spin.delta), spec.truncation)
    ids = tuple(f"s{i}" for i in range(len(blocks)))
    if eta is None:
        eta = 3.0 * math.pi / m  # 1.5x the exact grid step norm 2*pi/m
    return _flow(dict(zip(ids, blocks)), PathSpec(ids), eta)
