"""End-to-end obstruction check over a torus grid of twist holonomies.

The sampled base is the maximal torus of diagonal holonomies: window spectra
of the unperturbed family depend only on the eigenvalue angles, so each of
its spectral phenomena shows up on the torus (a perturbed family's need not:
for k >= 2, c1 ^ ... ^ ck restricts to zero there), while the generator
product is still computed in the full exterior algebra.  The check runs the
two sides against each other: a nonvanishing product of all k generators on
the cohomology side, and the grid maximum of window eigenvalue counts plus a
kernel witness on the spectral side.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .circle_dirac import (
    I_TOL,
    HolonomySpec,
    SpinStructure,
    _block_truncation,
    _check_ladder,
    _ladder_bracket,
    _mode_spectra,
    kernel_dim,
)
from .cohomology import AlgebraContext, format_class, obstruction_product
from .errors import ValidationError, _check_int, _check_real
from .fredholm import (
    B_TOL,
    INV_TOL,
    FamilyPoint,
    PathSpec,
    SampledFamily,
    _bounded_values,
    _check_step,
    _endpoint_flow,
    _safely_invertible,
    _spectral_matrix,
    count_in_window,
    shift_levels,
)

MAX_GRID_POINTS = 10**6
# Most targets x angles one ladder read holds; both the radii and the angles of a read are tiled to it.
READ_BUDGET = 2**14


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
        for name, low in (("k", 1), ("resolution", 2), ("truncation", 1)):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), low))
        if not isinstance(self.spin, SpinStructure):
            raise ValidationError(f"spin must be a SpinStructure, got {self.spin!r}")
        # a truthy string such as "no" would otherwise pick the conjugated grid
        if not isinstance(self.diagonal_only, (bool, np.bool_)):
            raise ValidationError(f"diagonal_only must be a bool, got {self.diagonal_only!r}")
        object.__setattr__(self, "diagonal_only", bool(self.diagonal_only))
        # m >= 2, so a rank past the cap's bit length exceeds the cap without
        # computing the power, whose digits grow with k
        if self.k > MAX_GRID_POINTS.bit_length() or self.resolution**self.k > MAX_GRID_POINTS:
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
    if point_id(idx) != text:
        # only the ids `point_id` writes name grid points: no zero padding,
        # sign, space or non-ASCII digit that int() would also read
        raise ValidationError(f"malformed grid point id {text!r}")
    if len(idx) != spec.k or any(not 0 <= i < spec.resolution for i in idx):
        raise ValidationError(f"grid point id {text!r} outside the {spec.resolution}**{spec.k} grid")
    return idx


def _grid_logs(spec: TorusGridSpec) -> np.ndarray:
    """Hermitian angle matrices of every grid point's holonomy, (P, k, k), first coordinate slowest."""
    angles = np.indices((spec.resolution,) * spec.k).reshape(spec.k, -1).T / spec.resolution
    if spec.diagonal_only:
        return angles[..., None, :] * np.eye(spec.k)
    # conjugated logs u diag(theta) u* with the same eigen-angles; the Haar
    # unitaries come from one batched QR and one generator per grid, so runs
    # are reproducible
    rng = np.random.default_rng([spec.k, spec.resolution, spec.truncation])
    shape = (len(angles), spec.k, spec.k)
    q, r = np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return _spectral_matrix(q * (d / np.abs(d))[:, None, :], angles)


class _ProductGrid:
    """The diagonal grid, read per angle: its points are all k-tuples of the m planted angles i/m.

    The planted angles are the floats `eigvalsh` returns for the grid's
    logs, so no log is diagonalised.  A point's count sums its angles'
    counts, and a point is flagged (near an edge, or not safely invertible
    at a level) when one of its angles is, so no array over the m**k points
    is built.
    """

    def __init__(self, spec: TorusGridSpec) -> None:
        self.k = spec.k
        self.table = np.arange(spec.resolution) / spec.resolution

    def max_point(self, counts: np.ndarray) -> tuple[int, tuple[int, ...]]:
        # every coordinate must be a maximising angle; k copies of the first
        # argmax are the first such point in grid order
        i = int(np.argmax(counts))
        return self.k * int(counts[i]), (i,) * self.k

    def first_flagged(self, flags: np.ndarray) -> tuple[tuple[int, ...], np.ndarray] | None:
        # grid order runs the last coordinate fastest, so the first point with a
        # flagged angle a is (0, ..., 0, a), or (0, ..., 0) when angle 0 is flagged
        if not flags.any():
            return None
        point = (0,) * (self.k - 1) + (int(np.argmax(flags)),)
        return point, self.table[list(point)]

    def covered(self, safe: np.ndarray) -> bool:
        """Whether every point clears some level, from the (levels, m) per-angle flags.

        A point clears the levels in the AND of its angles' level masks.  AND
        is idempotent, so the masks of all points are the distinct per-angle
        masks closed under AND k - 1 times.  A level that every angle clears
        covers every point, and k = 1 needs no closure.
        """
        masks = safe.T
        if self.k == 1 or safe.all(axis=1).any():
            return bool(masks.any(axis=1).all())
        distinct = closed = np.unique(masks, axis=0)
        for _ in range(self.k - 1):
            closed = np.unique((closed[:, None] & distinct).reshape(-1, len(safe)), axis=0)
        return bool(closed.any(axis=1).all())


class _GatheredGrid:
    """The conjugated grid, read per point: each point's k eigen-angles from one eigensolve of its log.

    The table holds the angles angle-major, so a reshape to (k, P) lines up
    each point's k angles in a column, in lexicographic grid order.
    """

    def __init__(self, spec: TorusGridSpec) -> None:
        self.k = spec.k
        self.shape = (spec.resolution,) * spec.k
        self.table = np.linalg.eigvalsh(_grid_logs(spec)).T.ravel()

    def point(self, row: int) -> tuple[int, ...]:
        return tuple(int(i) for i in np.unravel_index(row, self.shape))

    def max_point(self, counts: np.ndarray) -> tuple[int, tuple[int, ...]]:
        sums = counts.reshape(self.k, -1).sum(axis=0)
        row = int(np.argmax(sums))  # ties resolve to the first maximum in grid order
        return int(sums[row]), self.point(row)

    def first_flagged(self, flags: np.ndarray) -> tuple[tuple[int, ...], np.ndarray] | None:
        per_point = flags.reshape(self.k, -1).any(axis=0)
        if not per_point.any():
            return None
        row = int(np.argmax(per_point))
        return self.point(row), self.table.reshape(self.k, -1)[:, row]

    def covered(self, safe: np.ndarray) -> bool:
        """Whether every point clears some level, from the (levels, k*P) per-angle flags."""
        return bool(safe.reshape(len(safe), self.k, -1).all(axis=1).any(axis=0).all())


def tautological_family(spec: TorusGridSpec) -> SampledFamily:
    """Truncated operators at every grid point, ids in lexicographic grid order.

    The family holds no adjacency: `c1_pairing` checks grid edges itself.
    """
    ops = _block_truncation(_grid_logs(spec), float(spec.spin.delta), spec.truncation)
    ids = np.ndindex((spec.resolution,) * spec.k)  # the grid order of `_grid_logs`
    return SampledFamily(spec.dim, [FamilyPoint(point_id(idx), op) for idx, op in zip(ids, ops)])


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
        return asdict(self)


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
        return {("per_epsilon" if key == "reports" else key): value for key, value in asdict(self).items()}

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


def _window_counts(angles: np.ndarray, delta: float, n_modes: int, epsilon, bounded: bool):
    """Window counts and the nearest value to an edge +-epsilon, per radius and angle of a table.

    `epsilon` is one radius or a column of R radii, whose shape leads the
    results: a 1-d table gives (R, n) arrays from one read of the 2R edges.
    Every ladder ascends, so one read at both edges gives an angle's count
    as the rank of +epsilon (values below it) minus that of the float above
    -epsilon (values at or below -epsilon), and its value nearest to either
    edge is one of the rungs around them.  Summed and minimised over a
    point's angles, both equal what `count_in_window` reads off the point's
    full k(2N+1) spectrum.
    """
    eps = np.reshape(epsilon, np.shape(epsilon) + np.ndim(angles) * (1,))
    edges = np.stack([np.nextafter(-eps, math.inf), eps])
    rank, lower, upper = _ladder_bracket(angles, delta, n_modes, edges, bounded=bounded)
    edge_dist = np.minimum(np.abs(np.abs(lower) - eps), np.abs(np.abs(upper) - eps))
    return rank[1] - rank[0], edge_dist.min(axis=0)


def _level_distance(angles: np.ndarray, delta: float, n_modes: int, levels: Sequence[float], bounded: bool) -> np.ndarray:
    """Distance from each of the `levels` to the ladder of each angle of a table, levels first.

    The levels may be several radii's shift levels end to end; row j
    answers level j alone.  Minimised over a point's angles this is
    sigma_min of its operator shifted by the level, attained at a rung
    around the level; lower < level <= upper, so the two differences are
    the absolute values `np.abs(spectra - level)` would hold.
    """
    levels = np.reshape(levels, (-1,) + np.ndim(angles) * (1,))
    _, lower, upper = _ladder_bracket(angles, delta, n_modes, levels, bounded=bounded)
    return np.minimum(levels - lower, upper - levels)


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
    eps_list = [_check_real("window radius", e) for e in epsilon_list]
    if not eps_list:
        raise ValidationError("need at least one window radius")
    b_tol = _check_real("b_tol", b_tol, positive=False)
    inv_tol = _check_real("inv_tol", inv_tol, positive=False)
    i_tol = _check_real("i_tol", i_tol, positive=False)
    _check_ladder(spec.resolution**spec.k * spec.dim)

    ctx = AlgebraContext(spec.k)
    product = obstruction_product(ctx, list(range(1, spec.k + 1)))
    nonzero = not product.is_zero()

    # the mode blocks share each log's eigenbasis, so the call reads the
    # ladders of the grid's eigen-angles twice per block of radii, at their
    # window edges and at their shift levels end to end.  A read holds at
    # most READ_BUDGET targets x angles, which keeps its temporaries
    # cache-sized: a block packs the consecutive radii whose targets fit
    # against the whole table, and a radius whose targets alone overfill the
    # budget is read by itself in angle slices.  The grid reduces each
    # radius's per-angle values to its maximum count, first point near an
    # edge and cover: the diagonal grid off its m planted angles alone, the
    # conjugated grid over each point's k angles
    grid = _ProductGrid(spec) if spec.diagonal_only else _GatheredGrid(spec)
    table, delta, n_modes = grid.table, float(spec.spin.delta), spec.truncation

    def blocks(targets: Sequence[int]) -> list[slice]:
        runs, start, total = [], 0, 0
        for i, t in enumerate(targets):
            if i > start and (total + t) * len(table) > READ_BUDGET:
                runs.append(slice(start, i))
                start, total = i, 0
            total += t
        return runs + [slice(start, len(targets))]

    def chunks(targets: int) -> list[slice]:
        step = max(1, READ_BUDGET // targets)
        return [slice(i, i + step) for i in range(0, len(table), step)]

    effective = [bounded_scalar(eps) if bounded else eps for eps in eps_list]
    reports: list[EpsilonReport] = []
    for block in blocks([2] * len(eps_list)):
        radii = effective[block]
        per_angle, edge_per_angle = np.empty((len(radii), len(table)), np.int64), np.empty((len(radii), len(table)))
        for c in chunks(2 * len(radii)):
            per_angle[:, c], edge_per_angle[:, c] = _window_counts(table[c], delta, n_modes, radii, bounded)
        maxima = []
        # rows are indexed, not iterated: a row view left in a loop variable
        # would keep this block's arrays alive through the next block's reads
        for row, eps in enumerate(radii):
            flagged = grid.first_flagged(edge_per_angle[row] <= b_tol)
            if flagged is not None:
                # the first offending point's own ladder raises with the usual message
                point, angles = flagged
                ladder = _mode_spectra(np.sort(angles), delta, n_modes)
                count_in_window(
                    _bounded_values(ladder) if bounded else ladder,
                    eps,
                    b_tol=b_tol,
                    label=f"grid point {point_id(point)}",
                )
            maxima.append(grid.max_point(per_angle[row]))
        covers: list[bool | None] = [None] * len(radii)
        if cover_check:
            # a point clears a level when every one of its angles does:
            # min_j sigma_j > tol exactly when every sigma_j > tol.  The
            # radii's levels are read end to end, split back per radius
            levels = [shift_levels(max_count, eps) for (max_count, _), eps in zip(maxima, radii)]
            for run in blocks([len(lv) for lv in levels]):
                targets = [a for lv in levels[run] for a in lv]
                safe = np.empty((len(targets), len(table)), bool)
                for c in chunks(len(targets)):
                    safe[:, c] = _safely_invertible(_level_distance(table[c], delta, n_modes, targets, bounded), inv_tol)
                ends = np.cumsum([len(lv) for lv in levels[run]])[:-1]
                covers[run] = [grid.covered(rows) for rows in np.split(safe, ends)]
        for eps, effective_eps, (max_count, best), cover_ok in zip(eps_list[block], radii, maxima, covers):
            witness_angles = [i / spec.resolution for i in best]
            reports.append(
                EpsilonReport(
                    epsilon=eps,
                    effective_epsilon=effective_eps,
                    max_count=max_count,
                    witness_id=point_id(best),
                    witness_coords=witness_angles,
                    witness_kernel_dim=kernel_dim(HolonomySpec(spec.k, angles=witness_angles), spec.spin, i_tol=i_tol),
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
    axis = _check_int("axis", axis, 0)
    if axis >= spec.k:
        raise ValidationError(f"axis must lie in 0..{spec.k - 1}, got {axis}")
    base_idx = tuple(_check_int("base index", i, 0) for i in base)
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
    around a coordinate yields flow +1, and a closed loop that winds around
    no coordinate lifts to a closed path of flow 0.  The flow is read off the
    lifted ladders 2*pi*(n + delta + theta) of the samples s0, s1, ..., with
    no matrix, under the step and endpoint guards of `spectral_flow` (`flow`).
    """
    if not spec.diagonal_only:
        raise ValidationError("loop pairing needs the diagonal grid; conjugated samples are not continuous in the grid")
    m = spec.resolution
    seq = [parse_point_id(i, spec) for i in loop.ids]
    if loop.closed and len(seq) > 1:
        seq.append(seq[0])
    moves = np.zeros((len(seq), spec.k))
    moves[0] = np.array(seq[0]) / m
    for row, (prev, nxt) in enumerate(zip(seq, seq[1:]), 1):
        diffs = [(b - a) % m for a, b in zip(prev, nxt)]
        moving = [ax for ax, d in enumerate(diffs) if d != 0]
        if len(moving) != 1 or diffs[moving[0]] not in (1, m - 1):
            raise ValidationError(f"{prev} -> {nxt} is not a grid edge")
        # for m = 2 both directions look alike; the upward lift is the convention
        moves[row, moving[0]] = 1.0 / m if diffs[moving[0]] == 1 else -1.0 / m
    _check_ladder(len(moves) * spec.dim, remedy="lower the truncation order or shorten the loop")
    if eta is None:
        eta = 3.0 * math.pi / m  # 1.5x the exact grid step norm 2*pi/m
    eta = _check_real("crossing guard eta", eta)
    # a step's diagonal difference has 2-norm max|delta rung|; the rungs of
    # every angle but the moving one repeat bit for bit, so the moving
    # angle's (S-1, 2N+1) rungs give the norm and no (S, k(2N+1)) ladder is built
    lifted, delta = np.cumsum(moves, axis=0), float(spec.spin.delta)
    rows, axes = np.nonzero(moves[1:])  # one moving angle per step
    steps = _mode_spectra(lifted[rows + 1, axes][:, None], delta, spec.truncation)
    steps -= _mode_spectra(lifted[rows, axes][:, None], delta, spec.truncation)
    for i, norm in enumerate(np.abs(steps, out=steps).max(axis=1)):
        _check_step(f"s{i}", f"s{i + 1}", float(norm), eta)
    if loop.closed and not np.round(lifted[-1] - lifted[0]).any():
        return 0
    ends = _mode_spectra(lifted[[0, -1]], delta, spec.truncation)
    return _endpoint_flow(("s0", f"s{len(lifted) - 1}"), ends, eta)
