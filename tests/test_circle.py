"""Circle Dirac spectra: analytic law, truncation exactness, kernel counting."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from dirac_obstruction import (
    HolonomySpec,
    SpectrumWindow,
    SpinStructure,
    ValidationError,
    analytic_spectrum,
    cluster_values,
    fourier_truncation,
    holonomy_angles,
    holonomy_log,
    kernel_dim,
    truncation_from_angles,
    truncation_spectrum,
)
from dirac_obstruction.circle_dirac import _block_truncation

HALF = SpinStructure(Fraction(1, 2))
ZERO = SpinStructure(Fraction(0))

TWO_PI = 2.0 * math.pi


def random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))[None, :]


# ---------------------------------------------------------------- spin / angles


def test_spin_structure_accepts_only_the_two_values():
    assert SpinStructure.parse("1/2").delta == Fraction(1, 2)
    assert SpinStructure.parse("0").delta == 0
    assert SpinStructure.parse(0.5).delta == Fraction(1, 2)
    assert SpinStructure().to_json() == "1/2"
    with pytest.raises(ValidationError):
        SpinStructure(Fraction(1, 3))
    with pytest.raises(ValidationError):
        SpinStructure.parse("0.3")


def test_angles_normalize_to_unit_interval():
    h = HolonomySpec.from_angles(["1/2", 0.25, Fraction(3, 4), -0.25, 1.75])
    assert h.angles == [0.5, 0.25, 0.75, 0.75, 0.75]


def test_holonomy_requires_exactly_one_form():
    with pytest.raises(ValidationError):
        HolonomySpec(2)
    with pytest.raises(ValidationError):
        HolonomySpec(2, matrix=np.eye(2), angles=[0, 0])
    with pytest.raises(ValidationError):
        HolonomySpec(2, angles=[0.1])


def test_identity_and_minus_identity_angles():
    assert holonomy_angles(HolonomySpec.identity(3)) == [0.0, 0.0, 0.0]
    assert holonomy_angles(HolonomySpec.from_matrix(-np.eye(2))) == [0.5, 0.5]


def test_angles_recovered_from_conjugated_matrix():
    # construct-then-recover: plant angles, conjugate, read them back
    rng = np.random.default_rng(7)
    planted = np.sort(rng.uniform(0.0, 1.0, size=5))
    u = random_unitary(rng, 5)
    mat = (u * np.exp(2j * math.pi * planted)[None, :]) @ u.conj().T
    got = holonomy_angles(HolonomySpec.from_matrix(mat))
    assert np.max(np.abs(np.array(got) - planted)) < 1e-10


def test_non_unitary_matrix_rejected():
    with pytest.raises(ValidationError, match="unitary"):
        holonomy_angles(HolonomySpec.from_matrix(np.diag([1.0, 2.0])))


@pytest.mark.parametrize(
    "planted",
    [
        None,  # four angles drawn in (0.05, 0.95) from seed 11
        [0.5, 0.5, 0.5],  # -I
        [0.2, 0.5, 0.5],  # diag(e^{i pi}, e^{i pi}, e^{0.4 i pi})
        [0.3, 0.3 + 1e-12, 0.3 + 2e-12, 0.7],
        np.sort(np.random.default_rng(8).uniform(0.0, 1.0, size=8)),
    ],
    ids=["seed11", "minus_identity", "repeated_pair", "cluster_1e-12", "rank8"],
)
def test_holonomy_log_is_hermitian_principal_branch(planted):
    rng = np.random.default_rng(11)
    if planted is None:
        planted = rng.uniform(0.05, 0.95, size=4)
    planted = np.asarray(planted, dtype=float)
    u = random_unitary(rng, len(planted))
    mat = (u * np.exp(2j * math.pi * planted)[None, :]) @ u.conj().T
    log = holonomy_log(HolonomySpec.from_matrix(mat))
    assert np.max(np.abs(log - log.conj().T)) < 1e-12
    # exponentiating the scaled log reproduces the unitary: principal branch
    w, v = np.linalg.eigh(log)
    assert np.all((w > -1e-12) & (w < 1.0))
    back = (v * np.exp(2j * math.pi * w)[None, :]) @ v.conj().T
    assert np.max(np.abs(back - mat)) < 1e-9
    got = holonomy_angles(HolonomySpec.from_matrix(mat))
    assert np.max(np.abs(np.array(got) - np.sort(planted))) < 1e-12


# ---------------------------------------------------------------- analytic law


def test_window_single_zero_mode():
    window = analytic_spectrum(HolonomySpec.from_angles(["1/2"]), HALF, 1.0)
    assert window.eigenvalues == [(0.0, 1)]


def test_window_empty_for_untwisted_antiperiodic():
    window = analytic_spectrum(HolonomySpec.from_angles([0]), HALF, 1.0)
    assert window.eigenvalues == []
    assert window.total_multiplicity == 0


def test_window_symmetric_pair():
    # untwisted delta=1/2 ladder: +-pi inside radius 7, +-3pi outside
    window = analytic_spectrum(HolonomySpec.from_angles([0]), HALF, 7.0)
    values = window.values()
    assert len(values) == 2
    assert abs(values[0] + math.pi) < 1e-12
    assert abs(values[1] - math.pi) < 1e-12


def test_window_double_zero_mode_periodic():
    window = analytic_spectrum(HolonomySpec.identity(2), ZERO, 1.0)
    assert window.eigenvalues == [(0.0, 2)]


def test_window_multiplicity_clustering():
    h = HolonomySpec.from_angles([Fraction(1, 3), Fraction(1, 3), Fraction(2, 3)])
    window = analytic_spectrum(h, ZERO, 3.0)
    assert [m for _, m in window.eigenvalues] == [1, 2]
    assert abs(window.eigenvalues[0][0] + TWO_PI / 3) < 1e-12
    assert abs(window.eigenvalues[1][0] - TWO_PI / 3) < 1e-12


def test_window_rejects_bad_epsilon():
    with pytest.raises(ValidationError):
        analytic_spectrum(HolonomySpec.identity(1), HALF, 0.0)


def test_cluster_values_merges_within_tolerance():
    got = cluster_values([2.0, 1.0, 1.0 + 1e-9], 1e-8)
    assert got[0][1] == 2 and got[1] == (2.0, 1)
    assert abs(got[0][0] - (1.0 + 5e-10)) < 1e-12
    # a gap exactly at the tolerance still merges; strictly larger splits
    assert cluster_values([0.0, 1e-8], 1e-8) == [(5e-9, 2)]
    assert cluster_values([0.0, 2e-8], 1e-8) == [(0.0, 1), (2e-8, 1)]


# ---------------------------------------------------------------- kernel count


def test_kernel_from_minus_identity_antiperiodic():
    for k in range(1, 5):
        assert kernel_dim(HolonomySpec.from_matrix(-np.eye(k)), HALF) == k


def test_kernel_from_identity_periodic():
    for k in range(1, 5):
        assert kernel_dim(HolonomySpec.identity(k), ZERO) == k


def test_kernel_empty_for_mismatched_spin():
    assert kernel_dim(HolonomySpec.from_matrix(np.eye(3)), HALF) == 0
    assert kernel_dim(HolonomySpec.from_matrix(-np.eye(3)), ZERO) == 0


def test_kernel_counts_only_integral_angle_sums():
    h = HolonomySpec.from_angles([Fraction(1, 2), Fraction(1, 4), Fraction(1, 2)])
    assert kernel_dim(h, HALF) == 2
    assert kernel_dim(h, ZERO) == 0


def test_kernel_integrality_tolerance():
    assert kernel_dim(HolonomySpec.from_angles([1e-9]), ZERO) == 1
    assert kernel_dim(HolonomySpec.from_angles([1e-7]), ZERO) == 0
    assert kernel_dim(HolonomySpec.from_angles([1e-7]), ZERO, i_tol=1e-6) == 1


def test_kernel_never_exceeds_rank():
    rng = np.random.default_rng(3)
    for _ in range(20):
        k = int(rng.integers(1, 6))
        h = HolonomySpec.from_angles(list(rng.uniform(0, 1, size=k)))
        for spin in (HALF, ZERO):
            assert 0 <= kernel_dim(h, spin) <= k


# ---------------------------------------------------------------- truncation


def test_truncation_matrix_ladder_periodic():
    got = np.linalg.eigvalsh(fourier_truncation(HolonomySpec.identity(1), ZERO, 1))
    assert np.allclose(got, [-TWO_PI, 0.0, TWO_PI], atol=1e-12)


def test_truncation_matrix_ladder_shifted():
    got = np.linalg.eigvalsh(fourier_truncation(HolonomySpec.from_angles(["1/2"]), HALF, 1))
    assert np.allclose(got, [0.0, TWO_PI, 2 * TWO_PI], atol=1e-12)


def test_truncation_block_structure():
    rng = np.random.default_rng(13)
    h = HolonomySpec.from_matrix(random_unitary(rng, 2))
    mat = fourier_truncation(h, HALF, 2)
    assert mat.shape == (10, 10)
    assert np.max(np.abs(mat - mat.conj().T)) < 1e-12
    # off-block entries vanish: modes do not couple for a flat twist
    off = mat.copy()
    for b in range(5):
        off[2 * b : 2 * b + 2, 2 * b : 2 * b + 2] = 0.0
    assert np.max(np.abs(off)) == 0.0
    # the mode blocks differ by exact multiples of the quantum
    assert np.allclose(mat[2:4, 2:4] - mat[0:2, 0:2], TWO_PI * np.eye(2), atol=1e-12)


def test_truncation_matches_analytic_inside_window():
    rng = np.random.default_rng(42)
    for _ in range(10):
        k = int(rng.integers(1, 9))
        u = random_unitary(rng, k)
        h = HolonomySpec.from_matrix(u)
        for spin in (HALF, ZERO):
            exact = analytic_spectrum(h, spin, math.pi)
            trunc = truncation_spectrum(h, spin, 4, math.pi)
            a, t = exact.values(), trunc.values()
            assert len(a) == len(t)
            if a:
                assert np.max(np.abs(np.array(a) - np.array(t))) < 1e-9


def test_truncation_spectrum_conjugation_invariant():
    rng = np.random.default_rng(5)
    angles = [0.1, 0.4, 0.9]
    u = random_unitary(rng, 3)
    mat = (u * np.exp(2j * math.pi * np.array(angles))[None, :]) @ u.conj().T
    via_matrix = truncation_spectrum(HolonomySpec.from_matrix(mat), HALF, 3, 5.0)
    via_angles = truncation_spectrum(HolonomySpec.from_angles(angles), HALF, 3, 5.0)
    assert [m for _, m in via_matrix.eigenvalues] == [m for _, m in via_angles.eigenvalues]
    assert np.max(np.abs(np.array(via_matrix.values()) - np.array(via_angles.values()))) < 1e-9


def test_raw_angle_truncation_shifts_ladder():
    # angle 1 is the angle-0 ladder moved up one quantum, not the same matrix
    at0 = truncation_from_angles([0.0], 0.5, 2)
    at1 = truncation_from_angles([1.0], 0.5, 2)
    assert np.allclose(np.linalg.eigvalsh(at1) - np.linalg.eigvalsh(at0), TWO_PI, atol=1e-12)
    inside = fourier_truncation(HolonomySpec.from_angles([0.25]), HALF, 2)
    assert np.allclose(truncation_from_angles([0.25], 0.5, 2), inside)


def test_block_truncation_of_a_stack_matches_each_point():
    # one (P, k, k) stack of diagonal logs builds, bit for bit, each point's
    # own truncation, signed zeros and angles outside [0, 1) included
    rng = np.random.default_rng(29)
    angles = rng.uniform(-2.0, 2.0, size=(12, 3))
    angles[:2] = [[0.0, 0.0, 0.0], [-0.0, 1.0, 0.5]]
    logs = np.zeros((12, 3, 3))
    logs[:, [0, 1, 2], [0, 1, 2]] = angles
    for delta in (0.0, 0.5):
        for n_modes in (1, 3):
            ops = _block_truncation(logs, delta, n_modes)
            assert ops.shape == (12, 3 * (2 * n_modes + 1), 3 * (2 * n_modes + 1))
            for row, op in zip(angles, ops):
                assert op.tobytes() == truncation_from_angles(row, delta, n_modes).tobytes()


def test_truncation_rejects_bad_order():
    with pytest.raises(ValidationError):
        fourier_truncation(HolonomySpec.identity(1), HALF, 0)
    with pytest.raises(ValidationError):
        truncation_from_angles([0.1], 0.5, 0)


# ---------------------------------------------------------------- serialization


def test_holonomy_json_round_trip_angles():
    h = HolonomySpec.from_angles(["1/3", 0.5])
    again = HolonomySpec.from_json(json.loads(json.dumps(h.to_json())))
    assert again.k == 2 and again.angles == h.angles


def test_holonomy_json_round_trip_matrix():
    rng = np.random.default_rng(9)
    u = random_unitary(rng, 3)
    again = HolonomySpec.from_json(json.loads(json.dumps(HolonomySpec.from_matrix(u).to_json())))
    assert np.max(np.abs(again.matrix - u)) < 1e-15


def test_holonomy_json_keeps_signed_zeros_and_rejects_non_finite():
    m = np.array([[complex(-0.0, -0.0), complex(1.0, 0.0)], [complex(1.0, -0.0), complex(0.0, -0.0)]])
    text = json.dumps(HolonomySpec.from_matrix(m).to_json())
    again = HolonomySpec.from_json(json.loads(text))
    assert json.dumps(again.to_json()) == text
    assert np.array_equal(np.signbit(again.matrix.real), np.signbit(m.real))
    assert np.array_equal(np.signbit(again.matrix.imag), np.signbit(m.imag))
    for bad in ([[[math.nan, 0.0]]], [[[1.0, math.inf]]]):
        with pytest.raises(ValidationError, match="non-finite"):
            HolonomySpec.from_json({"k": 1, "matrix": bad})
    with pytest.raises(ValidationError, match="not unitary"):
        kernel_dim(HolonomySpec.from_matrix(np.array([[math.nan]])), HALF)


def test_angles_reject_non_finite_and_malformed_values():
    for bad in (math.nan, math.inf, "nan", "abc", "1e400", "1/0", None, [0.5]):
        with pytest.raises(ValidationError, match="finite number"):
            HolonomySpec.from_angles([bad])


def test_holonomy_json_rejects_malformed():
    with pytest.raises(ValidationError):
        HolonomySpec.from_json({"k": 2})
    with pytest.raises(ValidationError):
        HolonomySpec.from_json({"k": 2, "angles": [0.1], "matrix": []})
    with pytest.raises(ValidationError):
        HolonomySpec.from_json({"k": "two", "angles": [0.1, 0.2]})
    with pytest.raises(ValidationError):
        HolonomySpec.from_json({"k": 1, "matrix": [["oops"]]})


def test_spectrum_window_validation_and_csv():
    window = SpectrumWindow(1.0, [(-0.5, 1), (0.0, 2)])
    assert window.total_multiplicity == 3
    assert window.values() == [-0.5, 0.0, 0.0]
    assert window.to_csv() == "value,multiplicity\n-0.5,1\n0,2\n"
    with pytest.raises(ValidationError):
        SpectrumWindow(1.0, [(1.0, 1)])
    with pytest.raises(ValidationError):
        SpectrumWindow(1.0, [(0.5, 1), (0.2, 1)])
    with pytest.raises(ValidationError):
        SpectrumWindow(-1.0, [])
