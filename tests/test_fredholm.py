"""Bounded transform, shift deformations, covers, and spectral flow."""

import gc
import json
import math

import numpy as np
import pytest
import scipy.linalg

from dirac_obstruction import (
    AlgebraContext,
    BoundaryAmbiguityError,
    CohomologyClass,
    EndpointDegeneracyError,
    FamilyPoint,
    HolonomySpec,
    PathSpec,
    RefinementRequiredError,
    SampledFamily,
    SpectrumWindow,
    SpinStructure,
    TorusGridSpec,
    ValidationError,
    analytic_spectrum,
    bounded_transform,
    build_cover,
    c1_pairing,
    character_coefficient,
    cluster_values,
    coordinate_loop,
    count_in_window,
    fourier_truncation,
    generator,
    holonomy_angles,
    holonomy_log,
    kernel_dim,
    obstruction_product,
    require_hermitian,
    shift_deform,
    shift_levels,
    spectral_count,
    spectral_flow,
    truncation_from_angles,
    truncation_spectrum,
    verify_contrapositive,
)
from dirac_obstruction.obstruction import _grid_logs


def random_hermitian(rng, n, scale=1.0):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (z + z.conj().T) / 2.0


def planted_hermitian(rng, eigenvalues):
    """Hermitian matrix with exactly the given spectrum."""
    n = len(eigenvalues)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(z)
    return (q * np.asarray(eigenvalues, dtype=float)[None, :]) @ q.conj().T


# ---------------------------------------------------------------- hermitian gate


def test_require_hermitian_symmetrizes_small_noise():
    a = np.array([[1.0, 1e-12j], [0.0, 2.0]])
    out = require_hermitian(a)
    assert np.max(np.abs(out - out.conj().T)) == 0.0


def test_require_hermitian_rejects_large_deviation():
    with pytest.raises(ValidationError, match="Hermitian"):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError, match="square"):
        require_hermitian(np.zeros((2, 3)))


def test_require_hermitian_rejects_non_finite():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="non-finite"):
            require_hermitian(np.array([[bad, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValidationError, match="non-finite"):
            SampledFamily(1, [FamilyPoint("a", np.array([[complex(0.0, bad)]]))])


# ---------------------------------------------------------------- bounded transform


def test_bounded_transform_fixed_points():
    out = bounded_transform(np.diag([0.0, 1.0, -1.0]))
    r = 1.0 / math.sqrt(2.0)
    assert np.allclose(np.sort(np.linalg.eigvalsh(out)), [-r, 0.0, r], atol=1e-14)


def test_bounded_transform_against_matrix_square_root():
    # independent route: A (I + A^2)^{-1/2} via scipy's matrix square root
    rng = np.random.default_rng(21)
    a = random_hermitian(rng, 6, scale=3.0)
    direct = bounded_transform(a)
    root = scipy.linalg.sqrtm(np.eye(6) + a @ a)
    alt = a @ np.linalg.inv(root)
    assert np.max(np.abs(direct - alt)) < 1e-10


def test_bounded_transform_norm_and_kernel():
    rng = np.random.default_rng(22)
    a = planted_hermitian(rng, [0.0, 0.0, 2.0, -7.0])
    out = bounded_transform(a)
    assert np.linalg.norm(out, ord=2) < 1.0
    w = np.sort(np.abs(np.linalg.eigvalsh(out)))
    assert w[0] < 1e-12 and w[1] < 1e-12 and w[2] > 0.5


def test_bounded_transform_preserves_eigenvalue_order():
    rng = np.random.default_rng(23)
    a = random_hermitian(rng, 8, scale=5.0)
    w_in = np.linalg.eigvalsh(a)
    w_out = np.linalg.eigvalsh(bounded_transform(a))
    phi = w_in / np.sqrt(1.0 + w_in**2)
    assert np.max(np.abs(np.sort(phi) - w_out)) < 1e-12


# ---------------------------------------------------------------- shift deformations


def test_shift_levels_spacing():
    assert shift_levels(2, 0.9) == [0.0, 0.3, 0.6]
    assert shift_levels(0, 0.5) == [0.0]
    with pytest.raises(ValidationError):
        shift_levels(-1, 0.5)
    with pytest.raises(ValidationError):
        shift_levels(2, 0.0)


WINDOW_ENTRY_POINTS = {
    "shift_levels": lambda eps: shift_levels(2, eps),
    "count_in_window": lambda eps: count_in_window([0.1, 0.2], eps),
    "spectral_count": lambda eps: spectral_count(np.diag([0.1, 5.0]), eps),
    "build_cover": lambda eps: build_cover(family_of([np.diag([0.1, 5.0])]), 1, eps),
    "SpectrumWindow": lambda eps: SpectrumWindow(eps),
    "analytic_spectrum": lambda eps: analytic_spectrum(HolonomySpec.identity(1), SpinStructure(), eps),
    "truncation_spectrum": lambda eps: truncation_spectrum(HolonomySpec.identity(1), SpinStructure(), 2, eps),
}


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, 0.0, -1.0], ids=["nan", "inf", "zero", "negative"])
@pytest.mark.parametrize("entry", sorted(WINDOW_ENTRY_POINTS))
def test_window_radius_must_be_positive_and_finite(entry, epsilon):
    # nan compares false both ways, so only 0 < epsilon < inf rejects it
    with pytest.raises(ValidationError, match="window radius must be positive and finite"):
        WINDOW_ENTRY_POINTS[entry](epsilon)


TOLERANCE_ENTRY_POINTS = {
    "verify_b_tol": ("b_tol", lambda tol: verify_contrapositive(TorusGridSpec(1, 4), [math.pi], b_tol=tol)),
    "verify_inv_tol": ("inv_tol", lambda tol: verify_contrapositive(TorusGridSpec(1, 4), [1.0], inv_tol=tol)),
    "verify_i_tol": ("i_tol", lambda tol: verify_contrapositive(TorusGridSpec(1, 4), [1.0], i_tol=tol)),
    "count_in_window": ("b_tol", lambda tol: count_in_window([1.0], 1.0, b_tol=tol)),
    "build_cover": ("inv_tol", lambda tol: build_cover(family_of([np.diag([0.1, 5.0])]), 1, 1.0, inv_tol=tol)),
    "kernel_dim": ("i_tol", lambda tol: kernel_dim(HolonomySpec.identity(1), SpinStructure(), i_tol=tol)),
    "require_hermitian": ("h_tol", lambda tol: require_hermitian([[0, 1], [0, 0]], tol)),
    "SampledFamily": ("h_tol", lambda tol: SampledFamily(2, [FamilyPoint("a", np.array([[0, 1], [0, 0]]))], h_tol=tol)),
    "cluster_values": ("c_tol", lambda tol: cluster_values([0, 1, 2], c_tol=tol)),
    "analytic_spectrum": (
        "c_tol",
        lambda tol: analytic_spectrum(HolonomySpec.from_angles(["1/4", "3/4"]), SpinStructure(0), 7.0, c_tol=tol),
    ),
    "holonomy_u_tol": ("u_tol", lambda tol: holonomy_angles(HolonomySpec.from_matrix([[0, -1], [1, 0]]), u_tol=tol)),
    "holonomy_r_tol": ("r_tol", lambda tol: holonomy_angles(HolonomySpec.from_matrix([[0, -1], [1, 0]]), r_tol=tol)),
}


@pytest.mark.parametrize("value", [math.nan, -1.0, math.inf], ids=["nan", "negative", "inf"])
@pytest.mark.parametrize("entry", sorted(TOLERANCE_ENTRY_POINTS))
def test_tolerances_must_be_non_negative_and_finite(entry, value):
    # a nan, negative or infinite tolerance would silently weaken its guard:
    # b_tol = nan flags no edge, inv_tol = nan clears no level and reads as a
    # verified negative, h_tol = nan accepts any matrix, c_tol = nan merges
    # every value into one cluster
    name, call = TOLERANCE_ENTRY_POINTS[entry]
    with pytest.raises(ValidationError, match=f"{name} must be non-negative and finite, got"):
        call(value)


_ANGLE = HolonomySpec.from_angles([0.25])
_LOOP_GRID = TorusGridSpec(3, 4)

INTEGER_ENTRY_POINTS = {
    "fourier_truncation": ("truncation order", lambda n: fourier_truncation(_ANGLE, SpinStructure(), n)),
    "truncation_from_angles": ("truncation order", lambda n: truncation_from_angles([0.25], 0.5, n)),
    "truncation_spectrum": ("truncation order", lambda n: truncation_spectrum(_ANGLE, SpinStructure(), n, 40.0)),
    "AlgebraContext": ("k", lambda n: AlgebraContext(n)),
    "degree": ("generator index", lambda n: AlgebraContext(3).degree(n)),
    "generator": ("generator index", lambda n: generator(AlgebraContext(3), n)),
    "obstruction_product": ("generator index", lambda n: obstruction_product(AlgebraContext(3), [n])),
    "CohomologyClass": ("generator index", lambda n: CohomologyClass(AlgebraContext(3), {(n,): 1})),
    "character_coefficient": ("expansion index", character_coefficient),
    "shift_levels": ("shift count k", lambda n: shift_levels(n, 1.0)),
    "shift_deform_j": ("shift index j", lambda n: shift_deform(np.diag([0.1, 0.5]), n, 2, 0.4)),
    "shift_deform_k": ("shift count k", lambda n: shift_deform(np.diag([0.1, 0.5]), 0, n, 0.4)),
    "build_cover": ("shift count k", lambda n: build_cover(family_of([np.diag([0.1, 5.0])]), n, 0.3)),
    "SampledFamily": ("family 'dim'", lambda n: SampledFamily(n, [])),
    "coordinate_loop_axis": ("axis", lambda n: coordinate_loop(_LOOP_GRID, n, (0, 0, 0))),
    "coordinate_loop_base": ("base index", lambda n: coordinate_loop(_LOOP_GRID, 0, (n, 0, 0))),
    "SpectrumWindow": ("multiplicity", lambda n: SpectrumWindow(1.0, [(0.5, n)])),
}
NOT_INTEGERS = {"1.5": 1.5, "2.0": 2.0, "True": True, "np.True_": np.bool_(True), "'3'": "3"}


@pytest.mark.parametrize(
    "entry, value",
    # AlgebraContext already refused every non-integer but a bool
    [(e, v) for e in sorted(INTEGER_ENTRY_POINTS) for v in NOT_INTEGERS if e != "AlgebraContext" or v == "True"],
)
def test_integer_arguments_refuse_bools_floats_and_strings(entry, value):
    # each of these was accepted (and rounded, truncated or read as 1) or
    # failed with a TypeError; a truncation order of 2.5 built a half-shifted ladder
    name, call = INTEGER_ENTRY_POINTS[entry]
    with pytest.raises(ValidationError, match=f"{name} must be an integer >= "):
        call(NOT_INTEGERS[value])


def test_integer_arguments_accept_numpy_integers():
    assert AlgebraContext(np.int64(3)) == AlgebraContext(3)
    assert type(AlgebraContext(np.int64(3)).k) is int
    h = HolonomySpec(np.int64(2), angles=[0.25, 0.5])
    assert type(h.k) is int and h.to_json() == HolonomySpec(2, angles=[0.25, 0.5]).to_json()


def test_crossing_guard_must_be_finite():
    # an infinite eta passes every step: a closed path read 0 and an open
    # one failed its endpoint gap
    spec = TorusGridSpec(1, 8, truncation=2)
    fam, path = ladder_family(8)
    message = "crossing guard eta must be positive and finite, got inf"
    for closed in (False, True):
        with pytest.raises(ValidationError, match=message):
            spectral_flow(fam, PathSpec(path.ids, closed=closed), math.inf)
    with pytest.raises(ValidationError, match=message):
        c1_pairing(spec, coordinate_loop(spec, 0, (0,)), eta=math.inf)


def test_zeroth_shift_is_identity_map():
    rng = np.random.default_rng(31)
    a = bounded_transform(random_hermitian(rng, 5, scale=2.0))
    assert np.max(np.abs(shift_deform(a, 0, 2, 0.5) - a)) < 1e-12


def test_shift_moves_planted_level_to_kernel():
    rng = np.random.default_rng(32)
    k, eps = 2, 0.9
    for j in range(k + 1):
        a_j = j * eps / (k + 1)
        mat = planted_hermitian(rng, [a_j, a_j, 0.8, -0.4])
        out = shift_deform(mat, j, k, eps)
        w = np.sort(np.abs(np.linalg.eigvalsh(out)))
        assert w[0] < 1e-12 and w[1] < 1e-12 and w[2] > 1e-3


def test_shift_matches_scalar_map_on_spectra():
    # independent scalar oracle, written out branch by branch
    def g(x, a):
        if abs(x) >= 1.0:
            return x
        if x <= a:
            return (x - a) / (1.0 + a)
        return (x - a) / (1.0 - a)

    rng = np.random.default_rng(33)
    k, eps = 3, 0.6
    w_in = np.array([-1.0, -0.35, 0.0, 0.15, 0.45, 1.0])
    mat = planted_hermitian(rng, w_in)
    for j in range(k + 1):
        a_j = j * eps / (k + 1)
        expected = np.sort([g(x, a_j) for x in w_in])
        got = np.sort(np.linalg.eigvalsh(shift_deform(mat, j, k, eps)))
        assert np.max(np.abs(got - expected)) < 1e-10


def test_shift_fixes_window_edges():
    rng = np.random.default_rng(34)
    mat = planted_hermitian(rng, [-1.0, 1.0, 0.2])
    out = shift_deform(mat, 1, 1, 0.5)
    w = np.sort(np.linalg.eigvalsh(out))
    assert abs(w[0] + 1.0) < 1e-12 and abs(w[-1] - 1.0) < 1e-12


def test_shift_deform_validation():
    eye = np.eye(2)
    with pytest.raises(ValidationError):
        shift_deform(eye, 0, 1, 1.5)
    with pytest.raises(ValidationError):
        shift_deform(eye, 3, 2, 0.5)
    with pytest.raises(ValidationError, match="bounded_transform"):
        shift_deform(2.0 * eye, 0, 1, 0.5)


@pytest.mark.parametrize(
    "build",
    [
        lambda rng: bounded_transform(random_hermitian(rng, 7, scale=3.0)),
        lambda rng: shift_deform(bounded_transform(random_hermitian(rng, 7, scale=3.0)), 1, 3, 0.4),
        lambda rng: holonomy_log(HolonomySpec.from_matrix(np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))[0])),
        lambda rng: _grid_logs(TorusGridSpec(k=3, resolution=4, truncation=2, diagonal_only=False)),
    ],
    ids=["bounded_transform", "shift_deform", "holonomy_log", "conjugated_grid_logs"],
)
def test_spectral_matrices_are_exactly_hermitian(build):
    # each u diag(values) u* is symmetrized, so it equals its conjugate
    # transpose bit for bit, not just to a tolerance
    for seed in range(5):
        out = build(np.random.default_rng(seed))
        assert np.array_equal(out, out.conj().swapaxes(-1, -2))


# ---------------------------------------------------------------- window counts


def test_spectral_count_basic():
    mat = np.diag([-2.0, -0.5, 0.0, 0.7, 3.0])
    assert spectral_count(mat, 1.0) == 3
    assert spectral_count(mat, 0.1) == 1
    assert spectral_count(np.diag([0.5, -0.5]), 0.4) == 0
    assert spectral_count(np.diag([0.0, 0.1, 0.9]), 0.5) == 2


def test_spectral_count_triple_kernel_ladder():
    # three exact zero modes of the antiperiodic twist by -I
    op = truncation_from_angles([0.5, 0.5, 0.5], 0.5, 2)
    assert spectral_count(op, 1.0) == 3


def test_count_boundary_ambiguity_raises():
    with pytest.raises(BoundaryAmbiguityError, match="window edge"):
        count_in_window([0.5, 1.0 - 1e-9], 1.0)
    with pytest.raises(BoundaryAmbiguityError, match="at point p"):
        count_in_window([-1.0 - 1e-9], 1.0, label="point p")
    # comfortably away from the edge: fine
    assert count_in_window([0.5, 0.99], 1.0) == 2
    assert count_in_window([], 1.0) == 0


def test_count_in_window_per_row_of_a_stack():
    stack = np.array([[0.5, 2.0], [0.1, -0.2], [3.0, 4.0]])
    assert count_in_window(stack, 1.0).tolist() == [1, 2, 0]
    # the error names the first offending row in C order
    stack[1, 1] = -1.0
    stack[2, 0] = 1.0
    with pytest.raises(BoundaryAmbiguityError, match="-1 at row 1 lies"):
        count_in_window(stack, 1.0, label=lambda row: f"row {row}")


# ---------------------------------------------------------------- families


def family_of(mats, ids=None):
    dim = mats[0].shape[0]
    ids = ids or [f"p{i}" for i in range(len(mats))]
    return SampledFamily(dim, [FamilyPoint(i, m) for i, m in zip(ids, mats)])


def test_family_validation():
    eye = np.eye(2)
    with pytest.raises(ValidationError, match="duplicate"):
        family_of([eye, eye], ids=["a", "a"])
    with pytest.raises(ValidationError, match="shape"):
        SampledFamily(3, [FamilyPoint("a", eye)])


def test_family_json_round_trip(tmp_path):
    rng = np.random.default_rng(41)
    fam = SampledFamily(
        2,
        [
            FamilyPoint("a", random_hermitian(rng, 2)),
            FamilyPoint("b", random_hermitian(rng, 2)),
        ],
    )
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(fam.to_json()))
    again = SampledFamily.load(path)
    assert again.ids == ["a", "b"]
    assert np.max(np.abs(again.point("a").op - fam.point("a").op)) < 1e-15


def test_family_json_holds_dim_ids_and_matrices_only():
    doc = family_of([np.diag([1.0, -2.0]), np.eye(2)], ids=["a", "b"]).to_json()
    assert sorted(doc) == ["dim", "points"]
    assert [sorted(entry) for entry in doc["points"]] == [["id", "matrix"], ["id", "matrix"]]


def test_family_json_rejects_non_finite_and_malformed_matrices():
    for rows, message in (
        ([[[math.nan, 0.0]]], "non-finite"),
        ([[[1.0, -math.inf]]], "non-finite"),
        ([["oops"]], "pairs"),
        ([[[1.0, 0.0, 0.0]]], "pairs"),
        ([[[1.0, 0.0]], [[1.0, 0.0]]], "pairs"),
        ([[[1.0, 0.0], [2.0]]], "pairs"),
    ):
        with pytest.raises(ValidationError, match=message):
            SampledFamily.from_json({"dim": 1, "points": [{"id": "a", "matrix": rows}]})


def test_family_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError, match="malformed"):
        SampledFamily.load(path)
    path.write_text(json.dumps({"dim": 2}))
    with pytest.raises(ValidationError):
        SampledFamily.load(path)


def test_family_load_runs_no_cyclic_collection(tmp_path):
    # the decoded document is acyclic: the collector would only re-walk it
    rng = np.random.default_rng(43)
    fam = family_of([random_hermitian(rng, 8) for _ in range(300)])
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(fam.to_json()))
    starts = []

    def on_gc(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(on_gc)
    try:
        again = SampledFamily.load(path)
    finally:
        gc.callbacks.remove(on_gc)
    assert starts == []
    assert again.ids == fam.ids
    written = np.stack([p.op for p in fam.points])
    loaded = np.stack([p.op for p in again.points])
    assert loaded.tobytes() == written.tobytes()


_ONE_BY_ONE = '{"id": "%s", "matrix": [[[1.0, 0.0]]]}'


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"dim": 1, "points": [%s]}' % (_ONE_BY_ONE % "a"), None),
        ("{not json", "malformed"),
        ('{"dim": 2, "points": [{"id": "a", "matrix": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}]}', "not Hermitian"),
        ('{"dim": 1, "points": [%s, %s]}' % (_ONE_BY_ONE % "a", _ONE_BY_ONE % "a"), "duplicate"),
    ],
    ids=["ok", "malformed", "non_hermitian", "duplicate_id"],
)
@pytest.mark.parametrize("enabled", [True, False], ids=["gc_on", "gc_off"])
def test_family_load_restores_collector_state(tmp_path, text, message, enabled):
    path = tmp_path / "fam.json"
    path.write_text(text)
    (gc.enable if enabled else gc.disable)()
    try:
        if message is None:
            assert SampledFamily.load(path).ids == ["a"]
        else:
            with pytest.raises(ValidationError, match=message):
                SampledFamily.load(path)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_path_spec_rules():
    p = PathSpec(("a", "b", "c"), closed=True)
    assert p.steps() == [("a", "b"), ("b", "c"), ("c", "a")]
    assert PathSpec(("a",)).steps() == []
    # one-point closed path: the constant loop, no steps
    assert PathSpec(("a",), closed=True).steps() == []
    with pytest.raises(ValidationError):
        PathSpec(("a", "a"))
    with pytest.raises(ValidationError):
        PathSpec(("a", "b", "a"), closed=True)
    with pytest.raises(ValidationError):
        PathSpec(())


# ---------------------------------------------------------------- covers


def test_cover_constant_invertible_family():
    fam = family_of([np.eye(3) * 2.0] * 4)
    report = build_cover(fam, 2, 0.9)
    assert report.covered and not report.uncovered_ids and not report.indeterminate
    # an operator with no spectrum near any level lands in every set
    assert all(len(s) == 4 for s in report.sets)


def test_cover_membership_by_shifted_invertibility():
    # spectrum = the first k levels: only the last level stays invertible
    k, eps = 2, 0.9
    levels = shift_levels(k, eps)
    fam = family_of([np.diag(levels[:k] + [5.0]).astype(complex)])
    report = build_cover(fam, k, eps)
    assert report.covered
    assert report.sets[k] == ["p0"]
    assert report.sets[0] == [] and report.sets[1] == []


def test_cover_all_levels_blocked_is_uncovered():
    # spectrum hits every level: hypothesis count <= k is violated, no cover
    k, eps = 2, 0.9
    fam = family_of([np.diag(shift_levels(k, eps)).astype(complex)])
    report = build_cover(fam, k, eps)
    assert not report.covered
    assert report.uncovered_ids == ["p0"]
    assert report.to_json()["sets"] == {"U_0": [], "U_1": [], "U_2": []}


def test_cover_flags_borderline_invertibility():
    # distance 5e-8 to the level sits inside the indeterminate decade around 1e-8
    k, eps = 0, 0.5
    fam = family_of([np.diag([5e-8, 5e-8]).astype(complex)])
    report = build_cover(fam, k, eps)
    assert not report.covered
    assert report.indeterminate and report.indeterminate[0]["id"] == "p0"
    assert report.indeterminate[0]["shift_index"] == 0
    # widening inv_tol resolves the same family as confidently not invertible
    confident = build_cover(fam, k, eps, inv_tol=1e-5)
    assert not confident.covered and not confident.indeterminate


def test_cover_indeterminate_order_is_point_major():
    # every point sits 5e-8 from both levels 0 and 0.25: inside the band
    w = [5e-8, 0.25 + 5e-8, 3.0]
    fam = family_of([np.diag(w), np.diag(w)])
    report = build_cover(fam, 1, 0.5)
    assert not report.covered
    order = [(e["id"], e["shift_index"]) for e in report.indeterminate]
    assert order == [("p0", 0), ("p0", 1), ("p1", 0), ("p1", 1)]


def test_cover_refuses_more_shifts_than_the_dimension(monkeypatch):
    fam = family_of([np.diag([0.0, 0.3, 2.0]).astype(complex)])
    # k = dim is the largest useful count: pigeonhole already covers every point
    assert build_cover(fam, 3, 1.0).covered
    # the refusal comes before any of the k+1 levels is built
    monkeypatch.setattr("dirac_obstruction.fredholm.shift_levels", lambda k, eps: pytest.fail("levels built"))
    with pytest.raises(ValidationError, match=r"k = 1000000000 exceeds the family dimension 3"):
        build_cover(fam, 10**9, 1.0)
    with pytest.raises(ValidationError, match=r"k = 4 exceeds the family dimension 3"):
        build_cover(fam, 4, 1.0)


# ---------------------------------------------------------------- spectral flow


def ladder_family(n_steps, n_modes=4, lo=0.0, hi=1.0):
    """Lifted one-angle path: raw angles from lo to hi, antiperiodic spin."""
    angles = np.linspace(lo, hi, n_steps + 1)
    pts = [FamilyPoint(f"s{i}", truncation_from_angles([t], 0.5, n_modes)) for i, t in enumerate(angles)]
    return SampledFamily(2 * n_modes + 1, pts), PathSpec(tuple(p.id for p in pts))


def analytic_negative_count(t, n_modes):
    # inertia oracle for the one-angle ladder at raw angle t, delta = 1/2
    return sum(1 for n in range(-n_modes, n_modes + 1) if n + 0.5 + t < 0)


def test_flow_constant_path_is_zero():
    fam = family_of([np.diag([1.0, -2.0])] * 3, ids=["a", "b", "c"])
    assert spectral_flow(fam, PathSpec(("a", "b", "c")), eta=0.5) == 0
    assert spectral_flow(fam, PathSpec(("a", "b"), closed=True), eta=0.5) == 0


def test_flow_single_crossing_ladder():
    fam, path = ladder_family(16)
    assert analytic_negative_count(0.0, 4) - analytic_negative_count(1.0, 4) == 1
    assert spectral_flow(fam, path, eta=2.0 * math.pi / 16 * 1.5) == 1


def test_flow_reversal_antisymmetry():
    fam, path = ladder_family(16)
    back = PathSpec(tuple(reversed(path.ids)))
    eta = 2.0 * math.pi / 16 * 1.5
    assert spectral_flow(fam, back, eta) == -spectral_flow(fam, path, eta)


def test_flow_additivity_over_concatenation():
    fam, path = ladder_family(16)
    eta = 2.0 * math.pi / 16 * 1.5
    # split at s4 (angle 1/4), safely away from the crossing at angle 1/2
    first = PathSpec(path.ids[:5])
    second = PathSpec(path.ids[4:])
    total = spectral_flow(fam, path, eta)
    assert total == spectral_flow(fam, first, eta) + spectral_flow(fam, second, eta)


def test_flow_matches_inertia_oracle_on_partial_paths():
    fam, path = ladder_family(8, lo=0.0, hi=0.75)
    eta = 2.0 * math.pi * 0.75 / 8 * 1.5
    expected = analytic_negative_count(0.0, 4) - analytic_negative_count(0.75, 4)
    assert spectral_flow(fam, path, eta) == expected


def test_flow_refinement_required_names_the_step():
    fam, path = ladder_family(4)
    with pytest.raises(RefinementRequiredError, match="'s0' -> 's1'"):
        spectral_flow(fam, path, eta=0.1)


def test_flow_endpoint_degeneracy_guard():
    # ending exactly on the kernel point theta = 1/2 is ill-posed
    fam, path = ladder_family(8, lo=0.0, hi=0.5)
    with pytest.raises(EndpointDegeneracyError, match="last"):
        spectral_flow(fam, path, eta=2.0 * math.pi * 0.5 / 8 * 1.5)


def test_flow_closed_matrix_loop_telescopes_to_zero():
    # a genuinely closed loop in matrix space always nets zero crossings
    base = np.diag([1.0, -1.0])
    bump = np.diag([0.3, 0.0])
    fam = family_of([base, base + bump, base + 2 * bump, base + bump], ids=["a", "b", "c", "d"])
    assert spectral_flow(fam, PathSpec(("a", "b", "c", "d"), closed=True), eta=0.7) == 0


def test_flow_diagonalises_only_the_open_path_endpoints(monkeypatch):
    fam, path = ladder_family(16)
    eta = 2.0 * math.pi / 16 * 1.5
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    assert spectral_flow(fam, path, eta) == 1
    assert shapes == [(2, 9, 9)]
    shapes.clear()
    assert spectral_flow(fam, PathSpec(path.ids[:5], closed=True), eta=2.0) == 0
    assert shapes == []


def test_flow_validation():
    fam, path = ladder_family(8)
    with pytest.raises(ValidationError):
        spectral_flow(fam, path, eta=0.0)
    with pytest.raises(ValidationError, match="unknown point"):
        spectral_flow(fam, PathSpec(("s0", "nope")), eta=1.0)
