"""Grid orchestration: tautological family, verdicts, and loop pairing."""

import math
from fractions import Fraction

import numpy as np
import pytest

from dirac_obstruction import (
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
    spectral_count,
    spectral_flow,
    tautological_family,
    truncation_from_angles,
    verify_contrapositive,
)
from dirac_obstruction.circle_dirac import mode_blocks
from dirac_obstruction.obstruction import _grid_indices, _grid_logs, parse_point_id, point_id

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


def test_tautological_family_smallest_grid():
    spec = TorusGridSpec(k=1, resolution=2, truncation=1)
    fam = tautological_family(spec)
    assert fam.ids == ["0", "1"]
    assert fam.dim == 3
    # the two wrap directions coincide on two points: one deduplicated edge
    assert fam.edges == [("0", "1")]
    w = np.linalg.eigvalsh(fam.point("1").op)
    assert np.allclose(w, [0.0, 2 * math.pi, 4 * math.pi], atol=1e-12)
    # on the 2 x 2 grid every axis keeps only the edge leaving coordinate 0
    square = tautological_family(TorusGridSpec(k=2, resolution=2, truncation=1))
    assert square.edges == [("0_0", "1_0"), ("0_0", "0_1"), ("0_1", "1_1"), ("1_0", "1_1")]


def test_tautological_family_square_grid():
    spec = TorusGridSpec(k=2, resolution=4, truncation=1)
    fam = tautological_family(spec)
    assert len(fam.points) == 16
    assert fam.dim == 2 * 3
    # 2 axes x 16 points, wrap included, no duplicates on m >= 3
    assert len(fam.edges) == 32
    assert ("0_3", "0_0") in fam.edges
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
    indices = _grid_indices(spec)
    logs = _grid_logs(spec, indices)
    assert logs.shape == (216, 3, 3)
    assert np.array_equal(logs, logs.conj().swapaxes(-1, -2))
    np.testing.assert_allclose(np.linalg.eigvalsh(logs), np.sort(indices / 6, axis=-1), rtol=0, atol=1e-12)
    # the off-diagonal entries show that the grid really is conjugated
    assert np.abs(logs[..., 0, 1]).max() > 0.1
    assert _grid_logs(spec, indices).tobytes() == logs.tobytes()
    blocks = mode_blocks(logs, float(spin.delta), spec.truncation)
    modes = np.arange(-2, 3)[None, :, None]
    closed = 2 * np.pi * (modes + float(spin.delta) + indices[:, None, :] / 6)
    np.testing.assert_allclose(np.linalg.eigvalsh(blocks), np.sort(closed, axis=-1), rtol=0, atol=1e-12)


@pytest.mark.parametrize("diagonal_only", [True, False])
def test_verify_diagonalises_each_grid_log_once(monkeypatch, diagonal_only):
    # the mode blocks share each log's eigenbasis, so one eigensolve of the
    # (P, k, k) logs yields every mode's spectrum
    spec = TorusGridSpec(k=2, resolution=4, truncation=3, diagonal_only=diagonal_only)
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    verdict = verify_contrapositive(spec, [2.0, 0.7, 0.05])
    assert verdict.passed
    assert shapes == [(16, 2, 2)]


def test_verify_rejects_bad_radii():
    spec = TorusGridSpec(k=1, resolution=4)
    with pytest.raises(ValidationError):
        verify_contrapositive(spec, [])
    with pytest.raises(ValidationError):
        verify_contrapositive(spec, [0.5, -1.0])


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


def test_verdict_serialization_and_table():
    spec = TorusGridSpec(k=1, resolution=8)
    verdict = verify_contrapositive(spec, [1.0, 0.1])
    doc = verdict.to_json()
    assert doc["passed"] is True
    assert doc["spin_delta"] == "1/2"
    assert len(doc["per_epsilon"]) == 2
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
    # with the lifted angle advanced one grid step at a time
    spec = TorusGridSpec(k=2, resolution=8, truncation=3)
    m = spec.resolution
    seen = set()
    for axis in range(spec.k):
        for base in np.ndindex(m, m):
            loop = coordinate_loop(spec, axis, base)
            back = PathSpec(tuple(reversed(loop.ids)), closed=True)
            for path, step, count in ((loop, 1, m + 1), (back, -1, m + 1), (PathSpec(loop.ids), 1, m)):
                angles = np.array(parse_point_id(path.ids[0], spec), dtype=float) / m
                points = []
                for i in range(count):
                    points.append(FamilyPoint(f"s{i}", truncation_from_angles(angles, HALF.delta, spec.truncation)))
                    angles = angles.copy()
                    angles[axis] += step / m
                fam = SampledFamily(spec.dim, points)
                lifted = PathSpec(tuple(p.id for p in points))
                for eta, dense_eta in ((None, 3.0 * math.pi / m), (0.05, 0.05)):
                    got = _outcome(lambda: c1_pairing(spec, path, eta=eta))
                    assert got == _outcome(lambda: spectral_flow(fam, lifted, dense_eta))
                    seen.add(got[0] if got[0] != "ok" else got)
    assert seen == {("ok", 1), ("ok", -1), "EndpointDegeneracyError", "RefinementRequiredError"}


def test_pairing_rejects_non_edges_and_conjugated_grids():
    spec = TorusGridSpec(k=1, resolution=16, truncation=2)
    with pytest.raises(ValidationError, match="not a grid edge"):
        c1_pairing(spec, PathSpec(("0", "2")))
    conj = TorusGridSpec(k=1, resolution=16, truncation=2, diagonal_only=False)
    with pytest.raises(ValidationError, match="diagonal"):
        c1_pairing(conj, coordinate_loop(conj, 0, (0,)))
