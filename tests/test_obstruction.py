"""Grid orchestration: tautological family, verdicts, and loop pairing."""

import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dirac_obstruction import (
    BoundaryAmbiguityError,
    FamilyPoint,
    PathSpec,
    SampledFamily,
    SpinStructure,
    TorusGridSpec,
    ValidationError,
    bounded_scalar,
    bounded_transform,
    build_cover,
    c1_pairing,
    coordinate_loop,
    count_in_window,
    shift_levels,
    spectral_count,
    spectral_flow,
    tautological_family,
    truncation_from_angles,
    verify_contrapositive,
)
from dirac_obstruction import circle_dirac, obstruction
from dirac_obstruction.circle_dirac import _block_truncation, _ladder_bracket, _mode_spectra
from dirac_obstruction.fredholm import AMBIGUITY_DECADE, B_TOL, INV_TOL, _bounded_values
from dirac_obstruction.obstruction import (
    MAX_GRID_POINTS,
    READ_BUDGET,
    _grid_logs,
    _level_distance,
    _window_counts,
    parse_point_id,
    point_id,
)

HALF = SpinStructure(Fraction(1, 2))
ZERO = SpinStructure(Fraction(0))


def test_grid_spec_validation():
    with pytest.raises(ValidationError):
        TorusGridSpec(k=0, resolution=4)
    with pytest.raises(ValidationError):
        TorusGridSpec(k=1, resolution=1)
    with pytest.raises(ValidationError):
        TorusGridSpec(k=1, resolution=4, truncation=0)
    with pytest.raises(ValidationError, match="point limit"):
        TorusGridSpec(k=3, resolution=101)
    with pytest.raises(ValidationError, match="point limit"):
        TorusGridSpec(k=MAX_GRID_POINTS.bit_length() + 1, resolution=2)
    assert TorusGridSpec(np.int64(2), np.int32(4), truncation=np.uint8(3)) == TorusGridSpec(2, 4, truncation=3)


@pytest.mark.parametrize(
    "name, value",
    [
        ("k", 1.5),
        ("k", True),
        ("k", 2.0),
        ("resolution", 4.5),
        ("resolution", np.float64(4.0)),
        ("resolution", False),
        ("truncation", 2.5),
        ("truncation", "3"),
        ("truncation", np.bool_(True)),
    ],
)
def test_grid_spec_fields_must_be_integers(name, value):
    fields = {"k": 2, "resolution": 4, "truncation": 3, name: value}
    with pytest.raises(ValidationError, match=f"{name} must be an integer"):
        TorusGridSpec(**fields)


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("spin", "1/2", "spin must be a SpinStructure"),
        ("spin", 0, "spin must be a SpinStructure"),
        ("spin", Fraction(1, 2), "spin must be a SpinStructure"),
        ("diagonal_only", "no", "diagonal_only must be a bool"),
        ("diagonal_only", 0, "diagonal_only must be a bool"),
        ("diagonal_only", None, "diagonal_only must be a bool"),
    ],
)
def test_grid_spec_spin_and_grid_choice_are_typed(name, value, message):
    # a string spin used to fail later with AttributeError, and a truthy
    # string such as "no" used to pick the conjugated grid
    with pytest.raises(ValidationError, match=message):
        TorusGridSpec(1, 4, **{name: value})
    spec = TorusGridSpec(1, 4, ZERO, diagonal_only=np.False_)
    assert spec.diagonal_only is False and spec == TorusGridSpec(1, 4, ZERO, diagonal_only=False)


def test_point_id_round_trip():
    spec = TorusGridSpec(k=3, resolution=8)
    assert point_id((4, 0, 7)) == "4_0_7"
    assert parse_point_id("4_0_7", spec) == (4, 0, 7)
    with pytest.raises(ValidationError):
        parse_point_id("4_0", spec)
    with pytest.raises(ValidationError):
        parse_point_id("4_0_8", spec)
    with pytest.raises(ValidationError):
        parse_point_id("a_b_c", spec)
    # int() reads each of these as 4_0_7, but no grid point has that id
    for text in ("04_0_7", " 4_0_7", "+4_0_7", "4_0_\uff17"):
        with pytest.raises(ValidationError, match="malformed grid point id"):
            parse_point_id(text, spec)


def test_tautological_family_smallest_grid():
    spec = TorusGridSpec(k=1, resolution=2, truncation=1)
    fam = tautological_family(spec)
    assert fam.ids == ["0", "1"]
    assert fam.dim == 3
    w = np.linalg.eigvalsh(fam.point("1").op)
    assert np.allclose(w, [0.0, 2 * math.pi, 4 * math.pi], atol=1e-12)


def test_tautological_family_square_grid():
    spec = TorusGridSpec(k=2, resolution=4, truncation=1)
    fam = tautological_family(spec)
    assert len(fam.points) == 16
    assert fam.dim == 2 * 3
    # the half-twist-in-both-angles point carries a two-dimensional kernel
    assert spectral_count(fam.point("2_2").op, 1.0) == 2


def test_grid_traversal_is_lexicographic():
    spec = TorusGridSpec(k=2, resolution=2, truncation=1)
    fam = tautological_family(spec)
    assert fam.ids == ["0_0", "0_1", "1_0", "1_1"]


def test_verify_passes_on_grid_containing_the_witness():
    spec = TorusGridSpec(k=1, resolution=8, truncation=4)
    verdict = verify_contrapositive(spec, [1.0, 0.1])
    assert verdict.passed
    assert verdict.cohomology_product_nonzero
    assert verdict.cohomology_product == "1 * c1"
    assert [r.passed for r in verdict.reports] == [True, True]
    sharp = verdict.witness
    assert sharp.epsilon == 0.1
    assert sharp.witness_id == "4"
    assert sharp.witness_kernel_dim == 1
    assert all(r.cover_ok for r in verdict.reports)


def test_verify_periodic_spin_witness_at_origin():
    spec = TorusGridSpec(k=1, resolution=8, spin=ZERO, truncation=4)
    verdict = verify_contrapositive(spec, [0.1])
    assert verdict.passed
    assert verdict.witness.witness_id == "0"
    assert verdict.witness.witness_kernel_dim == 1


def test_verify_reports_honest_failure_on_punctured_grid():
    # resolution 3 misses the antiperiodic kernel angle 1/2 entirely
    spec = TorusGridSpec(k=1, resolution=3, truncation=4)
    verdict = verify_contrapositive(spec, [0.1])
    assert not verdict.passed
    assert verdict.cohomology_product_nonzero
    assert verdict.reports[0].max_count == 0


def test_verify_punctured_two_angle_grid_is_a_sampling_caveat():
    # the true witness (1/2, 1/2) is not a grid point at resolution 3; the
    # verdict records the sampling miss honestly as a failing count
    spec = TorusGridSpec(k=2, resolution=3, truncation=4)
    verdict = verify_contrapositive(spec, [0.1])
    assert not verdict.passed
    assert verdict.reports[0].max_count < 2


def test_verify_two_angle_grid():
    spec = TorusGridSpec(k=2, resolution=4, truncation=2)
    verdict = verify_contrapositive(spec, [1.0, 0.1])
    assert verdict.passed
    assert verdict.witness.witness_id == "2_2"
    assert verdict.witness.witness_kernel_dim == 2
    assert all(r.cover_ok for r in verdict.reports)


def test_verify_bounded_option_maps_the_window():
    spec = TorusGridSpec(k=1, resolution=8, truncation=4)
    raw = verify_contrapositive(spec, [0.5], cover_check=False)
    bounded = verify_contrapositive(spec, [0.5], bounded=True, cover_check=False)
    assert bounded.bounded
    assert bounded.reports[0].effective_epsilon == bounded_scalar(0.5)
    # the transform is a spectral homeomorphism: same counts, same witness
    assert bounded.reports[0].max_count == raw.reports[0].max_count
    assert bounded.reports[0].witness_id == raw.reports[0].witness_id
    assert bounded.passed


def test_verify_conjugated_sampling_matches_diagonal_counts():
    diag_spec = TorusGridSpec(k=2, resolution=2, truncation=2)
    conj_spec = TorusGridSpec(k=2, resolution=2, truncation=2, diagonal_only=False)
    a = verify_contrapositive(diag_spec, [1.0], cover_check=False)
    b = verify_contrapositive(conj_spec, [1.0], cover_check=False)
    assert a.reports[0].max_count == b.reports[0].max_count
    assert a.reports[0].witness_id == b.reports[0].witness_id
    assert a.passed == b.passed


@pytest.mark.parametrize("spin", [ZERO, HALF], ids=["delta_0", "delta_half"])
def test_conjugated_grid_blocks_have_planted_spectra(spin):
    # every conjugated log u diag(idx/m) u* is built from its planted angles,
    # so it is Hermitian with eigen-angles idx/m, and its mode blocks have the
    # closed-form spectrum
    spec = TorusGridSpec(k=3, resolution=6, spin=spin, truncation=2, diagonal_only=False)
    indices = np.indices((6, 6, 6)).reshape(3, -1).T
    logs = _grid_logs(spec)
    assert logs.shape == (216, 3, 3)
    assert np.array_equal(logs, logs.conj().swapaxes(-1, -2))
    np.testing.assert_allclose(np.linalg.eigvalsh(logs), np.sort(indices / 6, axis=-1), rtol=0, atol=1e-12)
    # the off-diagonal entries show that the grid really is conjugated
    assert np.abs(logs[..., 0, 1]).max() > 0.1
    assert _grid_logs(spec).tobytes() == logs.tobytes()
    ops = _block_truncation(logs, float(spin.delta), spec.truncation)
    modes = np.arange(-2, 3)[None, :, None]
    closed = 2 * np.pi * (modes + float(spin.delta) + indices[:, None, :] / 6)
    np.testing.assert_allclose(np.linalg.eigvalsh(ops), np.sort(closed.reshape(216, -1), axis=-1), rtol=0, atol=1e-12)


@pytest.mark.parametrize("diagonal_only", [True, False])
def test_verify_diagonalises_each_grid_log_once(monkeypatch, diagonal_only):
    # the mode blocks share each log's eigenbasis, so one eigensolve of the
    # (P, k, k) logs yields every mode's spectrum; the diagonal grid's
    # angles are its planted i/m, read with no eigensolve at all
    spec = TorusGridSpec(k=2, resolution=4, truncation=3, diagonal_only=diagonal_only)
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    verdict = verify_contrapositive(spec, [2.0, 0.7, 0.05])
    assert verdict.passed
    assert shapes == ([] if diagonal_only else [(16, 2, 2)])


@pytest.mark.parametrize("diagonal_only", [True, False])
def test_verify_builds_no_grid_ladder(monkeypatch, diagonal_only):
    # counts, guard and cover read the rungs around each target; only a
    # boundary error builds a ladder, that of the one offending point
    rows = []

    def spy(angles, *args):
        rows.append(int(np.prod(np.shape(angles)[:-1])))
        return _mode_spectra(angles, *args)

    monkeypatch.setattr(circle_dirac, "_mode_spectra", spy)
    monkeypatch.setattr(obstruction, "_mode_spectra", spy)
    spec = TorusGridSpec(k=2, resolution=4, truncation=3, diagonal_only=diagonal_only)
    for bounded in (False, True):
        assert verify_contrapositive(spec, [2.0, 0.7, 0.05], bounded=bounded).passed
    assert rows == []
    with pytest.raises(BoundaryAmbiguityError, match="at grid point 0_0 "):
        verify_contrapositive(spec, [math.pi])
    assert rows == [1]


def test_verify_reads_each_table_angle_once_per_target(monkeypatch):
    # per block of radii one read at their window edges and one at their
    # cover levels end to end, each covering every entry of the angle table
    # once per target: the diagonal grid's m planted angles, or the
    # conjugated grid's k*P eigen-angles, never once per point and angle.
    # No read holds more than READ_BUDGET targets x angles
    seen = {}

    def spy(angles, delta, n_modes, targets, **kwargs):
        assert np.size(targets) * np.size(angles) <= READ_BUDGET
        key = tuple(np.ravel(targets))
        seen[key] = seen.get(key, 0) + np.size(angles)
        return _ladder_bracket(angles, delta, n_modes, targets, **kwargs)

    def edges(radii):
        return tuple(np.nextafter(-np.array(radii), math.inf)) + tuple(radii)

    def levels(max_count, radii):
        return tuple(a for r in radii for a in shift_levels(max_count, r))

    monkeypatch.setattr(obstruction, "_ladder_bracket", spy)
    # every radius has max_count 3 on the k = 3 grid, whose table fits the
    # budget many times: the radii share one read per stage
    radii = [0.7, 0.35, 2.0, 0.05]
    for diagonal_only, entries in ((True, 6), (False, 3 * 6**3)):
        spec = TorusGridSpec(k=3, resolution=6, truncation=3, diagonal_only=diagonal_only)
        for batch in ([0.7], radii):
            for cover_check, reads in ((True, [edges(batch), levels(3, batch)]), (False, [edges(batch)])):
                seen.clear()
                assert verify_contrapositive(spec, batch, cover_check=cover_check).passed
                assert list(seen) == reads
                assert set(seen.values()) == {entries}
    # a table whose two edges alone overfill the budget is read one radius
    # at a time, in angle slices; k = 1 puts one rung in every window here
    spec = TorusGridSpec(k=1, resolution=2**13 + 1, truncation=3)
    seen.clear()
    assert verify_contrapositive(spec, radii).passed
    assert list(seen) == [read for r in radii for read in (edges([r]), levels(1, [r]))]
    assert set(seen.values()) == {2**13 + 1}


@pytest.mark.parametrize(
    "spec",
    [
        TorusGridSpec(3, 24, truncation=4),  # every radius in one read
        TorusGridSpec(2, 1000, ZERO, truncation=3),  # 8 radii per edge read
        TorusGridSpec(1, 3000, truncation=6),  # 2 radii per edge read; many levels read alone, sliced
        TorusGridSpec(1, 9000, ZERO, truncation=2),  # one radius per read, sliced
        TorusGridSpec(2, 40, truncation=3, diagonal_only=False),  # 2 radii per edge read
        TorusGridSpec(3, 12, ZERO, truncation=2, diagonal_only=False),  # one radius per read
    ],
    ids=lambda spec: f"{'diag' if spec.diagonal_only else 'conj'}_k{spec.k}_m{spec.resolution}",
)
def test_verify_batched_radii_match_one_radius_calls(spec):
    # reading radii together changes no report: each equals the report of a
    # call with that radius alone, over lists that span several blocks.  The
    # wide inv_tol fails some covers, so a level row split back to the wrong
    # radius shows
    rng = np.random.default_rng([spec.k, spec.resolution, spec.diagonal_only])
    radii = (10 ** rng.uniform(-2.5, 1.3, size=19)).tolist()
    for bounded in (False, True):
        for cover_check, inv_tol in ((False, INV_TOL), (True, INV_TOL), (True, 3e-3)):
            options = {"bounded": bounded, "cover_check": cover_check, "inv_tol": inv_tol}
            verdict = verify_contrapositive(spec, radii, **options)
            alone = [verify_contrapositive(spec, [r], **options).reports[0] for r in radii]
            assert verdict.reports == alone
            assert verdict.passed == all(r.passed for r in alone)
            if inv_tol > INV_TOL:
                assert {r.cover_ok for r in alone} == {True, False}


@pytest.mark.parametrize("spec", [TorusGridSpec(2, 6), TorusGridSpec(1, 2**13 + 1, truncation=2)], ids=["one_read", "per_radius"])
def test_verify_first_radius_on_a_rung_raises(spec):
    # radii on rungs of different angles flag different points; whether the
    # radii share a read or not, the first in input order raises its own message
    m, delta = spec.resolution, float(spec.spin.delta)
    on_rung = [abs(2 * math.pi * (-1 + delta + i / m)) for i in (1, m // 3)]
    messages = []
    for r in on_rung:
        with pytest.raises(BoundaryAmbiguityError, match="at grid point ") as alone:
            verify_contrapositive(spec, [r])
        messages.append(str(alone.value))
    assert messages[0] != messages[1]
    for first, second in (on_rung, on_rung[::-1]):
        with pytest.raises(BoundaryAmbiguityError) as batched:
            verify_contrapositive(spec, [0.05, first, 0.3, second])
        assert str(batched.value) == messages[on_rung.index(first)]


def test_verify_memory_does_not_grow_with_the_radii():
    # each stage reads one tile of radii x angles at a time, so 200 radii peak
    # like 10 do; the reports themselves take about 300 bytes a radius
    spec = TorusGridSpec(1, 2**12)
    radii = (10 ** np.random.default_rng(3).uniform(-2, 1, size=200)).tolist()
    verify_contrapositive(spec, radii[:2])
    peaks = {}
    for count in (10, 200):
        tracemalloc.start()
        try:
            assert verify_contrapositive(spec, radii[:count]).passed
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[200] < 1.25 * peaks[10]


def test_pairing_builds_no_matrix(monkeypatch):
    # every lifted operator is diagonal in one basis, so the flow is read off
    # the lifted ladders: no block, eigensolve or matrix norm
    calls = []

    def spy(owner, name):
        real = getattr(owner, name)

        def record(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, record)

    for owner, name in ((np.linalg, "eigvalsh"), (np.linalg, "norm"), (obstruction, "_block_truncation")):
        spy(owner, name)
    spec = TorusGridSpec(k=2, resolution=8, truncation=3)
    assert c1_pairing(spec, coordinate_loop(spec, 1, (0, 0))) == 1
    assert calls == []


def _edge_angles(rng, points, k):
    # random eigen-angles mixed with the values at the ends of [0, 1) that
    # an eigensolver returns: exact zeros, 1 - ulp and round-off negatives
    special = np.array([0.0, -0.0, 1.0 - 2.0**-53, -1e-17, -2.0**-52, 0.5, 1e-17])
    angles = rng.random((points, k))
    pick = rng.random((points, k)) < 0.4
    angles[pick] = rng.choice(special, size=int(pick.sum()))
    return np.sort(angles, axis=1)


@pytest.mark.parametrize("bounded", [False, True], ids=["raw", "bounded"])
@pytest.mark.parametrize("n_modes", [1, 2, 4, 7])
@pytest.mark.parametrize("delta", [0.0, 0.5], ids=["delta_0", "delta_half"])
def test_ladder_brackets_match_the_full_ladder(delta, n_modes, bounded):
    # counts, edge distances, sigma and ranks read off the two rungs around
    # each target equal those of the whole ladder, compared with ==
    rng = np.random.default_rng([n_modes, int(2 * delta), bounded])
    angles = _edge_angles(rng, 80, 3)
    spectra = _mode_spectra(angles, delta, n_modes)
    per_angle = _mode_spectra(angles[..., None], delta, n_modes)  # (P, k, 2N+1)
    if bounded:
        spectra, per_angle = _bounded_values(spectra), _bounded_values(per_angle)
    # radii inside one mode, above pi, above 2 pi N and past the truncation,
    # and radii that sit exactly on a rung of some point
    on_rung = np.abs(_mode_spectra(angles[:4], delta, n_modes)).ravel()
    radii = [0.05, 0.7, 2.0, 4.0, 2 * math.pi * n_modes + 0.5, 2 * math.pi * (n_modes + 2), 1e3]
    radii += rng.choice(on_rung[on_rung > 0], size=8).tolist()
    hits = 0
    for eps in radii:
        effective = bounded_scalar(eps) if bounded else eps
        # the readers return one value per angle; a point reduces over its k angles
        each_count, each_edge = _window_counts(angles.T, delta, n_modes, effective, bounded)
        counts, edge = each_count.sum(axis=0), each_edge.min(axis=0)
        assert np.array_equal(counts, np.count_nonzero(np.abs(spectra) < effective, axis=1))
        assert np.array_equal(edge, np.abs(np.abs(spectra) - effective).min(axis=1))
        for b_tol in (B_TOL, 0.0):
            try:
                full = [count_in_window(row, effective, b_tol=b_tol) for row in spectra]
            except BoundaryAmbiguityError:
                full = None
            assert (edge <= b_tol).any() == (full is None)
            assert full is None or np.array_equal(counts, full)
        hits += bool((edge == 0.0).any())
        levels = shift_levels(3, effective) + [effective, -effective]
        levels += rng.choice(spectra.ravel(), size=3).tolist()
        # one read at every level; a read just above a level counts the rungs at or below it
        for level, sigma in zip(levels, _level_distance(angles.T, delta, n_modes, levels, bounded).min(axis=1)):
            assert np.array_equal(sigma, np.abs(spectra - level).min(axis=1))
            for target, below in ((level, np.less), (np.nextafter(level, math.inf), np.less_equal)):
                rank, lower, upper = _ladder_bracket(angles, delta, n_modes, target, bounded=bounded)
                assert np.array_equal(rank, below(per_angle, level).sum(axis=-1))
                padded = np.concatenate([np.full((80, 3, 1), -np.inf), per_angle, np.full((80, 3, 1), np.inf)], axis=-1)
                assert np.array_equal(lower, np.take_along_axis(padded, rank[..., None], -1)[..., 0])
                assert np.array_equal(upper, np.take_along_axis(padded, rank[..., None] + 1, -1)[..., 0])
    assert hits > 0


def test_ladder_bracket_bisects_a_guess_that_misses():
    # high on a deep bounded ladder the target's preimage is too coarse to
    # guess the rank within one rung; the bracket then bisects.  Rounding
    # there also puts some rungs out of order, so the rank equals the full
    # count wherever the comparison with the target is monotone, and the two
    # rungs always straddle the target
    n_modes = 2 * 10**5
    angles = np.array([0.0, 0.25, 1.0 - 2.0**-53])
    missed = 0
    for delta in (0.0, 0.5):
        ladder = _bounded_values(_mode_spectra(angles[:, None], delta, n_modes))
        padded = np.concatenate([np.full((3, 1), -np.inf), ladder, np.full((3, 1), np.inf)], axis=-1)
        for x in (3e5, 6e5, 9e5, 1.2e6):
            target = bounded_scalar(x)
            preimage = target / math.sqrt(1.0 - target * target)
            guess = np.clip(np.ceil(preimage / (2 * math.pi) - delta - angles), -n_modes, n_modes + 1) + n_modes
            for read_at, below in ((target, np.less), (np.nextafter(target, math.inf), np.less_equal)):
                rank, lower, upper = _ladder_bracket(angles, delta, n_modes, read_at, bounded=True)
                assert below(lower, target).all() and not below(upper, target).any()
                assert np.array_equal(lower, padded[np.arange(3), rank])
                assert np.array_equal(upper, padded[np.arange(3), rank + 1])
                monotone = (np.diff(below(ladder, target).astype(int), axis=-1) <= 0).all(axis=-1)
                full = below(ladder, target).sum(axis=-1)
                assert np.array_equal(rank[monotone], full[monotone])
                missed += int((np.abs(guess - full)[monotone] > 1).sum())
        # a column of targets bisects each (target, angle) entry as a read at that target alone
        targets = [bounded_scalar(x) for x in (3e5, 6e5, 9e5, 1.2e6)]
        column = _ladder_bracket(angles, delta, n_modes, np.reshape(targets, (-1, 1)), bounded=True)
        for row, target in enumerate(targets):
            for got, alone in zip(column, _ladder_bracket(angles, delta, n_modes, target, bounded=True)):
                assert np.array_equal(got[row], alone)
    assert missed > 0


def test_verify_rejects_bad_radii():
    spec = TorusGridSpec(k=1, resolution=4)
    with pytest.raises(ValidationError):
        verify_contrapositive(spec, [])
    with pytest.raises(ValidationError):
        verify_contrapositive(spec, [0.5, -1.0])
    # float() would read these as 1.0; the error names the offending radius
    for bad in (True, np.True_, "1", b"1", None, 1 + 0j):
        with pytest.raises(ValidationError, match=re.escape(f"window radius must be a real number, got {bad!r}")):
            verify_contrapositive(spec, [0.5, bad])
    reals = verify_contrapositive(spec, [np.float32(0.5), np.int64(1), 2, Fraction(1, 4)]).to_json()
    assert reals == verify_contrapositive(spec, [0.5, 1.0, 2.0, 0.25]).to_json()


@pytest.mark.parametrize("bounded", [False, True])
@pytest.mark.parametrize("diagonal_only", [True, False])
def test_verify_matches_dense_family_reference(diagonal_only, bounded):
    # the grid reads counts and cover off one batched eigensolve; the dense
    # tautological family, point by point, is the reference
    spec = TorusGridSpec(k=2, resolution=5, truncation=2, diagonal_only=diagonal_only)
    family = tautological_family(spec)
    if bounded:
        points = [FamilyPoint(p.id, bounded_transform(p.op)) for p in family.points]
        family = SampledFamily(family.dim, points)
    verdict = verify_contrapositive(spec, [2.0, 0.7, 0.05], bounded=bounded)
    for report in verdict.reports:
        eps = report.effective_epsilon
        counts = [spectral_count(p.op, eps) for p in family.points]
        assert report.max_count == max(counts)
        assert report.witness_id == family.ids[counts.index(max(counts))]
        dense = build_cover(family, report.max_count, eps)
        assert report.cover_ok is dense.covered


def _full_ladder_reading(spec, eps, bounded, inv_tol=INV_TOL):
    """One radius read off every point's whole k(2N+1) ladder, point by point.

    Returns the id of the first point with a value within B_TOL of an edge,
    or the max count, its first point and whether the max_count + 1 levels
    cover the grid.  Rungs use the package's expression 2*pi*((n + delta) +
    theta), so every comparison sees the same floats.
    """
    m, k = spec.resolution, spec.k
    points = np.indices((m,) * k).reshape(k, -1).T
    shifts = np.arange(-spec.truncation, spec.truncation + 1) + float(spec.spin.delta)
    ladders = (2.0 * math.pi * (shifts[:, None] + points[:, None, :] / m)).reshape(len(points), -1)
    if bounded:
        ladders = _bounded_values(ladders)
    eff = bounded_scalar(eps) if bounded else eps
    near = (np.abs(np.abs(ladders) - eff) <= B_TOL).any(axis=1)
    if near.any():
        return point_id(points[np.argmax(near)])
    counts = (np.abs(ladders) < eff).sum(axis=1)
    best = int(np.argmax(counts))
    sigma = np.stack([np.abs(ladders - a).min(axis=1) for a in shift_levels(int(counts[best]), eff)])
    return int(counts[best]), point_id(points[best]), bool((sigma > inv_tol * AMBIGUITY_DECADE).any(axis=0).all())


def test_product_reading_matches_full_ladders():
    # the diagonal verdict is read off the m per-angle values; every point's
    # whole ladder is the reference, on small grids, radii on rungs and
    # ambiguity bands wide enough that a level blocks several angles
    pinned = [
        # both levels lie within the ambiguity band of the kernel: cover fails
        (TorusGridSpec(2, 4, ZERO), 1e-7, False, INV_TOL, (2, "0_0", False)),
        (TorusGridSpec(3, 4, ZERO), 1e-7, False, INV_TOL, (3, "0_0_0", False)),
        # every angle clears a level, but no level clears both angles of some point
        (TorusGridSpec(2, 3, ZERO, truncation=1), 2.0, False, 0.1, (2, "0_0", False)),
        # every two angles clear a common level, but some three do not
        (TorusGridSpec(3, 3, ZERO, truncation=1), 5.0, False, 0.1, (6, "1_1_1", False)),
        # -pi/3 is a rung of angle 2/6 but not of angle 0
        (TorusGridSpec(3, 6, HALF), 1.0471975511965976, False, INV_TOL, "0_0_2"),
        # angles 1/4, 1/2 and 3/4 each hold one value in (-2, 2)
        (TorusGridSpec(2, 4, HALF, truncation=2), 2.0, False, INV_TOL, (2, "1_1", True)),
    ]
    rng = np.random.default_rng(2024)
    cases = [case[:4] for case in pinned]
    for _ in range(300):
        k = int(rng.integers(1, 5))
        m = int(rng.integers(2, (40, 12, 7, 5)[k - 1] + 1))
        spin = (ZERO, HALF)[rng.integers(2)]
        spec = TorusGridSpec(k, m, spin, truncation=int(rng.integers(1, 7)))
        rung = abs(2 * math.pi * (int(rng.integers(-2, 3)) + float(spin.delta) + int(rng.integers(m)) / m))
        eps = rung + float(rng.choice([-1e-9, 0.0, 1e-9])) if rng.random() < 0.5 else float(rng.uniform(0.01, 8))
        inv_tol = INV_TOL if rng.random() < 0.5 else float(10 ** rng.uniform(-3, -0.7))
        cases.append((spec, eps if eps > 0 else 1e-7, bool(rng.integers(2)), inv_tol))
    outcomes = set()
    for spec, eps, bounded, inv_tol in cases:
        expected = _full_ladder_reading(spec, eps, bounded, inv_tol)
        if isinstance(expected, str):
            with pytest.raises(BoundaryAmbiguityError, match=f"at grid point {expected} "):
                verify_contrapositive(spec, [eps], bounded=bounded, inv_tol=inv_tol)
            outcomes.add("boundary")
            continue
        report = verify_contrapositive(spec, [eps], bounded=bounded, inv_tol=inv_tol).reports[0]
        assert (report.max_count, report.witness_id, report.cover_ok) == expected, (spec, eps, bounded, inv_tol)
        outcomes.add(("cover", spec.k > 1, report.cover_ok))
    assert {"boundary", ("cover", True, False), ("cover", True, True)} <= outcomes
    for spec, eps, bounded, inv_tol, expected in pinned:
        assert _full_ladder_reading(spec, eps, bounded, inv_tol) == expected


def test_diagonal_verify_allocates_nothing_per_point(monkeypatch):
    # the 10**6-point diagonal grid is read off its 10 planted angles: no
    # (P, k, k) logs, no per-point gather
    spec = TorusGridSpec(6, 10)
    verify_contrapositive(TorusGridSpec(2, 4), [1.0])
    tracemalloc.start()
    try:
        verdict = verify_contrapositive(spec, [1, 0.1, 0.01])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.passed and peak < 2**20

    def refuse(spec):
        raise AssertionError("the diagonal grid needs no per-point log")

    monkeypatch.setattr(obstruction, "_grid_logs", refuse)
    assert verify_contrapositive(spec, [1, 0.1, 0.01]).to_json() == verdict.to_json()


def test_verdict_serialization_and_table():
    spec = TorusGridSpec(k=1, resolution=8)
    verdict = verify_contrapositive(spec, [1.0, 0.1])
    doc = verdict.to_json()
    assert doc["passed"] is True
    assert doc["spin_delta"] == "1/2"
    assert len(doc["per_epsilon"]) == 2
    assert list(doc) == [
        "k",
        "resolution",
        "truncation",
        "spin_delta",
        "bounded",
        "cohomology_product",
        "cohomology_product_nonzero",
        "per_epsilon",
        "passed",
    ]
    assert doc["per_epsilon"][0] == verdict.reports[0].to_json()
    table = verdict.summary_table()
    lines = table.strip().split("\n")
    assert lines[0].split()[:2] == ["epsilon", "max_count"]
    assert len(lines) == 3
    assert "pass" in lines[1]


def test_coordinate_loop_ids():
    spec = TorusGridSpec(k=2, resolution=4)
    loop = coordinate_loop(spec, 0, (0, 1))
    assert loop.ids == ("0_1", "1_1", "2_1", "3_1")
    assert loop.closed
    with pytest.raises(ValidationError):
        coordinate_loop(spec, 2, (0, 0))
    with pytest.raises(ValidationError):
        coordinate_loop(spec, 0, (0, 9))


def test_pairing_constant_loop_is_zero():
    spec = TorusGridSpec(k=1, resolution=16, truncation=2)
    assert c1_pairing(spec, PathSpec(("3",), closed=True)) == 0


def test_pairing_generator_loop_is_one():
    spec = TorusGridSpec(k=1, resolution=16, truncation=2)
    assert c1_pairing(spec, coordinate_loop(spec, 0, (0,))) == 1


def test_pairing_reversed_loop_is_minus_one():
    spec = TorusGridSpec(k=1, resolution=16, truncation=2)
    forward = coordinate_loop(spec, 0, (0,))
    backward = PathSpec(tuple(reversed(forward.ids)), closed=True)
    assert c1_pairing(spec, backward) == -1


def test_pairing_invariant_under_grid_refinement():
    coarse = TorusGridSpec(k=1, resolution=16, truncation=2)
    fine = TorusGridSpec(k=1, resolution=32, truncation=2)
    assert c1_pairing(coarse, coordinate_loop(coarse, 0, (0,))) == 1
    assert c1_pairing(fine, coordinate_loop(fine, 0, (0,))) == 1


def test_pairing_second_axis_with_first_fixed():
    # block decoupling: the loop in one angle does not see the other
    spec = TorusGridSpec(k=2, resolution=16, truncation=2)
    loop = coordinate_loop(spec, 1, (4, 0))
    assert c1_pairing(spec, loop) == 1


def _outcome(fn):
    try:
        return ("ok", fn())
    except Exception as exc:  # the comparison covers the error type and message
        return (type(exc).__name__, str(exc))


def test_pairing_matches_dense_flow_on_lifted_family():
    # reference: the lifted path as dense truncation_from_angles matrices,
    # with the lifted angle advanced one grid step at a time; eta at the
    # exact step norm 2*pi/m and its float neighbours pins the step guard.
    # A winding loop lifts to an open path; a contractible closed loop (one
    # point, or there and back) lifts to a closed one
    m = 8
    step_norm = 2.0 * math.pi / m
    etas = [(None, 3.0 * math.pi / m), (0.05, 0.05), (0.0, 0.0)]
    etas += [(e, e) for e in (step_norm, np.nextafter(step_norm, 0.0), np.nextafter(step_norm, np.inf))]
    seen = set()
    for spin in (ZERO, HALF):
        spec = TorusGridSpec(k=2, resolution=m, spin=spin, truncation=3)
        for axis in range(spec.k):
            for base in np.ndindex(m, m):
                loop = coordinate_loop(spec, axis, base)
                back = PathSpec(tuple(reversed(loop.ids)), closed=True)
                paths = [(loop, 1, m + 1, False), (back, -1, m + 1, False), (PathSpec(loop.ids), 1, m, False)]
                paths += [(PathSpec(loop.ids[:1], closed=True), 1, 1, True)]
                paths += [(PathSpec(loop.ids[:2], closed=True), 1, 2, True)]
                for path, step, count, closed in paths:
                    angles = np.array(parse_point_id(path.ids[0], spec), dtype=float) / m
                    points = []
                    for i in range(count):
                        op = truncation_from_angles(angles, spin.delta, spec.truncation)
                        points.append(FamilyPoint(f"s{i}", op))
                        angles = angles.copy()
                        angles[axis] += step / m
                    fam = SampledFamily(spec.dim, points)
                    lifted = PathSpec(tuple(p.id for p in points), closed=closed)
                    for eta, dense_eta in etas:
                        got = _outcome(lambda: c1_pairing(spec, path, eta=eta))
                        assert got == _outcome(lambda: spectral_flow(fam, lifted, dense_eta))
                        seen.add(got[0] if got[0] != "ok" else got)
    assert seen == {
        ("ok", 1),
        ("ok", -1),
        ("ok", 0),
        "EndpointDegeneracyError",
        "RefinementRequiredError",
        "ValidationError",
    }


def test_pairing_ladder_budget_raises_before_allocating(fresh_python):
    # a (S, 2N+1) ladder of 10**9 values would need gigabytes; under a 1 GB
    # address-space limit a missing budget check fails with a MemoryError
    script = (
        "from dirac_obstruction import TorusGridSpec, ValidationError, c1_pairing, coordinate_loop\n"
        "spec = TorusGridSpec(k=1, resolution=4, truncation=10**8)\n"
        "try:\n"
        "    c1_pairing(spec, coordinate_loop(spec, 0, (0,)))\n"
        "except ValidationError as exc:\n"
        "    print(exc)\n"
    )
    result = fresh_python(script, address_space=2**30)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == (
        "truncated spectrum of 1000000005 ladder values exceeds the 100000000 value limit; "
        "lower the truncation order or shorten the loop\n"
    )


def test_pairing_rejects_non_edges_and_conjugated_grids():
    spec = TorusGridSpec(k=1, resolution=16, truncation=2)
    with pytest.raises(ValidationError, match="not a grid edge"):
        c1_pairing(spec, PathSpec(("0", "2")))
    conj = TorusGridSpec(k=1, resolution=16, truncation=2, diagonal_only=False)
    with pytest.raises(ValidationError, match="diagonal"):
        c1_pairing(conj, coordinate_loop(conj, 0, (0,)))
