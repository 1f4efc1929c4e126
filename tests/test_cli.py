"""Command-line behavior: formats, exit codes, determinism."""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from dirac_obstruction import FamilyPoint, HolonomySpec, SampledFamily, truncation_from_angles
from dirac_obstruction import cli
from dirac_obstruction.cli import main

DATA = Path(__file__).resolve().parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def ladder_file():
    """Lifted one-angle ladder, raw angles 0..1 in 16 steps, N = 2."""
    return str(DATA / "ladder.json")


def test_shipped_families_are_what_they_claim():
    angles = np.linspace(0.0, 1.0, 17)
    pts = [FamilyPoint(f"s{i}", truncation_from_angles([t], 0.5, 2)) for i, t in enumerate(angles)]
    assert json.loads((DATA / "ladder.json").read_text()) == SampledFamily(5, pts).to_json()
    planted = SampledFamily.load(DATA / "planted.json")
    assert planted.ids == ["p0"]
    assert np.linalg.eigvalsh(planted.point("p0").op).tolist() == [0.0, 0.3, 2.0]


@pytest.mark.parametrize(
    "argv, what",
    [
        (["spectrum", "{path}", "--epsilon", "1"], "JSON"),
        (["kernel-dim", "{path}"], "JSON"),
        (["cover", "{path}", "--k", "1", "--epsilon", "1"], "family JSON"),
        (["flow", "{path}", "--path", "p0", "--eta", "1"], "family JSON"),
    ],
    ids=["spectrum", "kernel_dim", "cover", "flow"],
)
def test_non_utf8_file_exits_two(capsys, tmp_path, argv, what):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(capsys, *[a.format(path=path) for a in argv])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: malformed {what} in {path}: 'utf-8' codec can't decode byte 0xff")


# ---------------------------------------------------------------- spectrum


def test_spectrum_single_zero_row(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--angles", "0.5", "--delta", "1/2", "--epsilon", "1")
    assert code == 0
    assert out == "value,multiplicity\n0,1\n"


def test_spectrum_header_only(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--angles", "0", "--delta", "1/2", "--epsilon", "1")
    assert code == 0
    assert out == "value,multiplicity\n"


def test_spectrum_accepts_rational_angles(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--angles", "1/3,2/3", "--delta", "0", "--epsilon", "3")
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 2
    values = [float(r.split(",")[0]) for r in rows]
    assert abs(values[0] + 2 * math.pi / 3) < 1e-12
    assert abs(values[1] - 2 * math.pi / 3) < 1e-12


def test_spectrum_truncation_agrees_with_analytic(capsys):
    base = ["--angles", "0.3,0.8", "--delta", "1/2", "--epsilon", "3"]
    code_a, out_a, _ = run_cli(capsys, "spectrum", *base)
    code_t, out_t, _ = run_cli(capsys, "spectrum", *base, "--truncation", "4")
    assert code_a == code_t == 0
    rows_a = [r.split(",") for r in out_a.strip().split("\n")[1:]]
    rows_t = [r.split(",") for r in out_t.strip().split("\n")[1:]]
    assert [m for _, m in rows_a] == [m for _, m in rows_t]
    for (va, _), (vt, _) in zip(rows_a, rows_t):
        assert abs(float(va) - float(vt)) < 1e-9


def test_spectrum_from_holonomy_file(capsys, tmp_path):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"k": 1, "angles": [0.5]}))
    code, out, _ = run_cli(capsys, "spectrum", str(path), "--epsilon", "1")
    assert code == 0 and out.strip().split("\n")[1] == "0,1"


def test_spectrum_rejects_malformed_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    code, _, err = run_cli(capsys, "spectrum", str(path), "--epsilon", "1")
    assert code == 2
    assert "error:" in err and "malformed" in err


def test_spectrum_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "spectrum", str(tmp_path / "absent.json"), "--epsilon", "1")
    assert code == 2 and "error:" in err


def test_spectrum_needs_exactly_one_input(capsys, tmp_path):
    code, _, err = run_cli(capsys, "spectrum", "--epsilon", "1")
    assert code == 2 and "exactly one" in err
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"k": 1, "angles": [0.5]}))
    code, _, err = run_cli(capsys, "spectrum", str(path), "--angles", "0.5", "--epsilon", "1")
    assert code == 2 and "exactly one" in err


def test_spectrum_output_file(capsys, tmp_path):
    out_path = tmp_path / "spec.csv"
    code, out, _ = run_cli(
        capsys, "spectrum", "--angles", "0.5", "--epsilon", "1", "--output", str(out_path)
    )
    assert code == 0 and out == ""
    assert out_path.read_text() == "value,multiplicity\n0,1\n"


# ---------------------------------------------------------------- kernel-dim


def test_kernel_dim_counts_zero_modes(capsys):
    code, out, _ = run_cli(capsys, "kernel-dim", "--angles", "0.5,0.5,0.25", "--delta", "1/2")
    assert code == 0 and out == "2\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel-dim", "--angles", "0.5", "--delta", "1/3"],
        ["kernel-dim", "--angles", "0.5", "--delta", "abc"],
        ["kernel-dim", "--angles", "0.5", "--delta", "1/0"],
        ["verify", "--k", "1", "--resolution", "4", "--epsilons", "1", "--delta", "x"],
    ],
    ids=["1_3", "abc", "1_0", "verify_x"],
)
def test_kernel_dim_rejects_bad_delta(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: spin phase exponent must be 0 or 1/2, got ")


# ---------------------------------------------------------------- cohomology


def test_cohomology_nonzero_product(capsys):
    code, out, _ = run_cli(capsys, "cohomology", "--k", "3", "--indices", "1,2,3")
    assert code == 0
    doc = json.loads(out)
    assert doc["nonzero"] is True
    assert doc["class"] == "1 * c1^c2^c3"


def test_cohomology_zero_beyond_rank(capsys):
    code, out, _ = run_cli(capsys, "cohomology", "--k", "2", "--indices", "1,2,3")
    assert code == 0
    doc = json.loads(out)
    assert doc["nonzero"] is False and doc["class"] == "0"


def test_cohomology_rejects_non_ascending(capsys):
    code, _, err = run_cli(capsys, "cohomology", "--k", "3", "--indices", "1,1")
    assert code == 2 and "ascending" in err


def test_cohomology_deterministic_bytes(capsys):
    _, first, _ = run_cli(capsys, "cohomology", "--k", "4", "--indices", "2,3")
    _, second, _ = run_cli(capsys, "cohomology", "--k", "4", "--indices", "2,3")
    assert first == second
    assert first.index('"class"') < first.index('"indices"') < first.index('"k"')


# ---------------------------------------------------------------- cover


def write_family(tmp_path, mats, name="fam.json"):
    dim = mats[0].shape[0]
    fam = SampledFamily(dim, [FamilyPoint(f"p{i}", m) for i, m in enumerate(mats)])
    path = tmp_path / name
    path.write_text(json.dumps(fam.to_json()))
    return str(path)


def test_cover_constant_family_exit_zero(capsys, tmp_path):
    path = write_family(tmp_path, [np.eye(2, dtype=complex) * 2.0] * 3)
    code, out, _ = run_cli(capsys, "cover", path, "--k", "1", "--epsilon", "0.9")
    assert code == 0
    doc = json.loads(out)
    assert doc["covered"] is True
    assert doc["tolerances"] == {"inv_tol": 1e-8, "h_tol": 1e-10}


def test_cover_all_shifts_point_exit_three(capsys, tmp_path):
    levels = [0.0, 0.3, 0.6]
    path = write_family(tmp_path, [np.diag(levels).astype(complex)])
    code, out, _ = run_cli(capsys, "cover", path, "--k", "2", "--epsilon", "0.9")
    assert code == 3
    doc = json.loads(out)
    assert doc["covered"] is False and doc["uncovered_ids"] == ["p0"]


def test_cover_borderline_exit_two(capsys, tmp_path):
    path = write_family(tmp_path, [np.diag([5e-8, 5e-8]).astype(complex)])
    code, out, err = run_cli(capsys, "cover", path, "--k", "0", "--epsilon", "0.5")
    assert code == 2
    assert "borderline" in err
    assert json.loads(out)["indeterminate"]


def test_cover_tolerance_override_echoed(capsys, tmp_path):
    path = write_family(tmp_path, [np.eye(2, dtype=complex)])
    code, out, _ = run_cli(capsys, "cover", path, "--k", "0", "--epsilon", "0.5", "--inv-tol", "1e-6")
    assert code == 0
    assert json.loads(out)["tolerances"]["inv_tol"] == 1e-6


def test_cover_k_beyond_dimension_exits_two(capsys):
    # one past the dimension: a huge k would size k+1 levels if the refusal regressed
    path = str(DATA / "planted.json")
    code, out, err = run_cli(capsys, "cover", path, "--k", "4", "--epsilon", "1")
    assert (code, out) == (2, "")
    assert err == "error: shift count k = 4 exceeds the family dimension 3\n"


def test_cover_rejects_negative_tolerance():
    with pytest.raises(SystemExit) as exc:
        main(["cover", "whatever.json", "--k", "0", "--epsilon", "0.5", "--inv-tol", "-1"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel-dim", "--angles", "0.5", "--i-tol", "nan"],
        ["verify", "--k", "1", "--resolution", "4", "--epsilons", "1", "--b-tol", "nan"],
        ["spectrum", "--angles", "0.5", "--epsilon", "nan"],
        ["spectrum", "--angles", "0.5", "--epsilon", "inf"],
    ],
)
def test_positive_flags_reject_non_finite(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("radii", ["nan", "1,nan", "1e400"])
def test_verify_rejects_non_finite_radii(capsys, radii):
    code, out, err = run_cli(capsys, "verify", "--k", "1", "--resolution", "4", "--epsilons", radii)
    assert code == 2
    assert out == ""
    assert "positive and finite" in err


@pytest.mark.parametrize("angles", ["nan", "0.5,abc", "1e400", "1/0"])
def test_malformed_angles_exit_two(capsys, angles):
    code, _, err = run_cli(capsys, "kernel-dim", "--angles", angles)
    assert code == 2
    assert "angle must be a finite number" in err


@pytest.mark.parametrize(
    "doc",
    [
        '{"k": 1, "angles": [NaN]}',
        '{"k": 1, "matrix": [[[NaN, 0]]]}',
        '{"k": 1, "matrix": [[[1, Infinity]]]}',
        '{"k": 1, "angles": 5}',
        '{"k": 1, "angles": "0.5"}',
        '{"k": true, "angles": [0.5]}',
    ],
)
def test_non_finite_holonomy_file_exit_two(capsys, tmp_path, doc):
    path = tmp_path / "h.json"
    path.write_text(doc)
    code, _, err = run_cli(capsys, "kernel-dim", str(path))
    assert code == 2
    assert err.startswith("error: ")


def _family_doc(first_point: str, extra: str = "") -> str:
    return '{"dim": 1, "points": [%s, {"id": "b", "matrix": [[[1, 0]]]}]%s}' % (first_point, extra)


@pytest.mark.parametrize(
    "doc, message",
    [
        pytest.param(
            _family_doc('{"id": "a", "matrix": [[[%s, 0]]]}' % bad), "matrix at 'a' has non-finite entries", id=bad
        )
        for bad in ("NaN", "Infinity", "-Infinity")
    ]
    + [
        pytest.param('{"dim": 1, "points": [5]}', "each family point needs 'id' and 'matrix'", id="point_5"),
        pytest.param('{"dim": 1, "points": 5}', "family 'points' must be a list", id="points_5"),
        pytest.param(
            _family_doc('{"id": "a", "matrix": [[[1, 0]]]}').replace('"dim": 1', '"dim": true'),
            "family 'dim' must be an integer",
            id="dim_true",
        ),
    ],
)
def test_non_finite_family_file_exit_two(capsys, tmp_path, doc, message):
    path = tmp_path / "fam.json"
    path.write_text(doc)
    for argv in (["cover", str(path), "--k", "1", "--epsilon", "0.5"], ["flow", str(path), "--path", "a,b", "--eta", "10"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert message in err


@pytest.mark.parametrize(
    "name, argvs",
    [
        (
            "planted.json",
            [
                ["cover", "--k", "1", "--epsilon", "0.5"],
                ["cover", "--k", "2", "--epsilon", "1"],
                ["flow", "--path", "p0", "--eta", "0.5"],
                ["flow", "--path", "p0", "--eta", "0.1"],
            ],
        ),
        (
            "ladder.json",
            [
                ["cover", "--k", "1", "--epsilon", "0.5"],
                ["cover", "--k", "0", "--epsilon", "2"],
                ["flow", "--path", ",".join(f"s{i}" for i in range(17)), "--eta", "0.6"],
                ["flow", "--path", "s0,s1,s2", "--closed", "--eta", "0.6"],
                ["flow", "--path", "s0,s8,s16", "--eta", "0.6"],
            ],
        ),
    ],
    ids=["planted", "ladder"],
)
def test_legacy_edges_and_coords_keys_are_ignored(capsys, tmp_path, name, argvs):
    # families written by older versions carry point coordinates and an edge
    # list; both are ignored, well-formed or not, so every command prints
    # exactly what it prints without them
    doc = json.loads((DATA / name).read_text())
    ids = [p["id"] for p in doc["points"]]
    legacy = {
        "well_formed": {
            "dim": doc["dim"],
            "points": [{**p, "coords": [float(i)]} for i, p in enumerate(doc["points"])],
            "edges": [list(e) for e in zip(ids, ids[1:])],
        },
        "malformed": {"dim": doc["dim"], "points": [{**p, "coords": "xy"} for p in doc["points"]], "edges": 5},
    }
    for label, legacy_doc in legacy.items():
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(legacy_doc))
        for argv in argvs:
            expected = run_cli(capsys, argv[0], str(DATA / name), *argv[1:])
            assert run_cli(capsys, argv[0], str(path), *argv[1:]) == expected, (label, argv)


# ---------------------------------------------------------------- verify


def test_verify_passes_and_prints_table_then_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--k", "1", "--resolution", "8", "--delta", "1/2",
        "--truncation", "4", "--epsilons", "1,0.1",
    )
    assert code == 0
    table, json_part = out.split("{", 1)
    assert table.startswith("epsilon")
    doc = json.loads("{" + json_part)
    assert doc["passed"] is True
    assert doc["per_epsilon"][1]["witness_id"] == "4"


def test_verify_resolution_one_rejected(capsys):
    code, _, err = run_cli(capsys, "verify", "--k", "1", "--resolution", "1", "--epsilons", "1")
    assert code == 2 and "resolution" in err


def test_verify_huge_rank_refused_without_computing_the_grid_size(fresh_python):
    # 3**100000000 is a bigint that takes minutes to compute; the cap check
    # must refuse the rank before computing it
    argv = ["verify", "--k", "100000000", "--resolution", "3", "--epsilons", "1"]
    script = f"import sys\nfrom dirac_obstruction.cli import main\nsys.exit(main({argv!r}))\n"
    result = fresh_python(script, timeout=20)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == (
        "error: grid of 3**100000000 points exceeds the 1000000 point limit; lower the resolution or rank\n"
    )


def test_verify_deterministic_output(capsys):
    argv = ["verify", "--k", "1", "--resolution", "4", "--truncation", "2", "--epsilons", "1,0.25"]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_verify_json_to_file(capsys, tmp_path):
    out_path = tmp_path / "verdict.json"
    code, out, _ = run_cli(
        capsys, "verify", "--k", "1", "--resolution", "8", "--epsilons", "0.1",
        "--output", str(out_path),
    )
    assert code == 0
    assert out.startswith("epsilon") and "{" not in out
    doc = json.loads(out_path.read_text())
    assert doc["passed"] is True and doc["tolerances"]["b_tol"] == 1e-8


def test_verify_failing_grid_exit_three(capsys):
    # resolution 3 misses the kernel angle: verified negative on this grid
    code, out, _ = run_cli(capsys, "verify", "--k", "1", "--resolution", "3", "--epsilons", "0.1")
    assert code == 3
    assert "FAIL" in out


def test_verify_cover_fail_from_a_wide_inv_tol_names_the_radius(capsys):
    # the kernel rung at 0 sits within 10*inv_tol = 1 of both levels 0 and 1
    # of epsilon 2, so the cover fails for the tolerance and not the count
    code, out, err = run_cli(
        capsys, "verify", "--k", "1", "--resolution", "3", "--delta", "0", "--truncation", "1",
        "--epsilons", "5,2", "--inv-tol", "0.1", "--output", os.devnull,
    )
    assert code == 2
    assert out.splitlines()[1:] == [
        "5        2          1        0           ok     pass",
        "2        1          0        1           FAIL   pass",
    ]
    assert err == (
        "error: cover cross-check failed despite passing counts; at epsilon 2.0 the shift-level "
        "spacing 1.0 is at most 20*inv_tol (inv_tol = 0.1), so one eigenvalue can block two levels\n"
    )


def test_verify_cover_fail_with_a_narrow_inv_tol_names_no_radius(capsys, monkeypatch):
    real = cli.verify_contrapositive

    def failing_cover(*args, **kwargs):
        verdict = real(*args, **kwargs)
        for report in verdict.reports:
            report.cover_ok = False
        return verdict

    monkeypatch.setattr(cli, "verify_contrapositive", failing_cover)
    code, _, err = run_cli(capsys, "verify", "--k", "1", "--resolution", "8", "--epsilons", "0.1", "--output", os.devnull)
    assert (code, err) == (2, "error: cover cross-check failed despite passing counts\n")


def test_verify_boundary_eigenvalue_names_first_grid_point(capsys):
    # angle 1/4 puts 2*pi*(-1 + 1/2 + 1/4) = -pi/2 exactly on the window edge
    code, out, err = run_cli(
        capsys, "verify", "--k", "1", "--resolution", "4", "--truncation", "2",
        "--epsilons", "1.5707963267948966",
    )
    assert code == 2
    assert out == ""
    assert "at grid point 1 lies within" in err


def test_verify_boundary_error_golden_stderr(capsys):
    # exact stderr bytes: the guard names the first offending grid point in
    # grid order and prints the eigenvalue's bits from the mode ladder
    code, out, err = run_cli(capsys, "verify", "--k", "3", "--resolution", "6", "--epsilons", "1.0471975511965976")
    assert (code, out) == (2, "")
    assert err == (
        "error: eigenvalue -1.0471975511965979 at grid point 0_0_2 lies within 1.0e-08 of the "
        "window edge +-1.0471975511965976; perturb epsilon\n"
    )


# stdout and --output bytes of `verify --k 2 --resolution 6 --conjugated
# --bounded --epsilons 2,0.7,0.05`; the Haar draws must not move any count,
# witness or cover decision
CONJUGATED_TABLE = (
    "epsilon               max_count  witness  kernel_dim  cover  verdict\n"
    "2                     2          2_2      0           ok     pass\n"
    "0.69999999999999996   2          3_3      2           ok     pass\n"
    "0.050000000000000003  2          3_3      2           ok     pass\n"
)
CONJUGATED_JSON = """\
{
  "bounded": true,
  "cohomology_product": "1 * c1^c2",
  "cohomology_product_nonzero": true,
  "k": 2,
  "passed": true,
  "per_epsilon": [
    {
      "cover_ok": true,
      "effective_epsilon": 0.8944271909999159,
      "epsilon": 2.0,
      "max_count": 2,
      "passed": true,
      "witness_coords": [
        0.3333333333333333,
        0.3333333333333333
      ],
      "witness_id": "2_2",
      "witness_kernel_dim": 0
    },
    {
      "cover_ok": true,
      "effective_epsilon": 0.5734623443633283,
      "epsilon": 0.7,
      "max_count": 2,
      "passed": true,
      "witness_coords": [
        0.5,
        0.5
      ],
      "witness_id": "3_3",
      "witness_kernel_dim": 2
    },
    {
      "cover_ok": true,
      "effective_epsilon": 0.04993761694389223,
      "epsilon": 0.05,
      "max_count": 2,
      "passed": true,
      "witness_coords": [
        0.5,
        0.5
      ],
      "witness_id": "3_3",
      "witness_kernel_dim": 2
    }
  ],
  "resolution": 6,
  "spin_delta": "1/2",
  "tolerances": {
    "b_tol": 1e-08,
    "i_tol": 1e-08,
    "inv_tol": 1e-08
  },
  "truncation": 4
}
"""


def test_verify_conjugated_golden_output(capsys, tmp_path):
    out_path = tmp_path / "verdict.json"
    code, out, err = run_cli(
        capsys, "verify", "--k", "2", "--resolution", "6", "--conjugated", "--bounded",
        "--epsilons", "2,0.7,0.05", "--output", str(out_path),
    )
    assert (code, err) == (0, "")
    assert out == CONJUGATED_TABLE
    assert out_path.read_bytes() == CONJUGATED_JSON.encode()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--k", "2", "--resolution", "4", "--conjugated", "--epsilons", "1"],
        ["kernel-dim", "{holonomy}"],
        ["spectrum", "{holonomy}", "--truncation", "2", "--epsilon", "3"],
    ],
    ids=["verify_conjugated", "kernel_dim_matrix", "spectrum_truncation_matrix"],
)
def test_verify_conjugated_never_loads_scipy_linalg(fresh_python, tmp_path, argv):
    # no command needs scipy: the grid plants its eigen-angles, and holonomy
    # matrices from files are diagonalised with numpy alone
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    holonomy = tmp_path / "holonomy.json"
    holonomy.write_text(json.dumps(HolonomySpec.from_matrix(q).to_json()))
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None  # any import of scipy now raises ImportError\n"
        "from dirac_obstruction.cli import main\n"
        f"code = main({[a.format(holonomy=holonomy) for a in argv]!r})\n"
        "assert code == 0, code\n"
        "assert 'scipy.linalg' not in sys.modules\n"
    )
    result = fresh_python(script)
    assert result.returncode == 0, result.stderr


TRUNCATION_REMEDY = "lower the truncation order, resolution or rank"


@pytest.mark.parametrize(
    "argv, entries, spectrum, remedy",
    [
        (
            ["verify", "--k", "1", "--resolution", "2", "--truncation", "1000000000", "--epsilons", "1"],
            4000000002,
            "truncated spectrum",
            TRUNCATION_REMEDY,
        ),
        (
            ["spectrum", "--angles", "1/2", "--truncation", "1000000000", "--epsilon", "1"],
            2000000001,
            "truncated spectrum",
            TRUNCATION_REMEDY,
        ),
        (
            ["verify", "--k", "3", "--resolution", "100", "--truncation", "60", "--epsilons", "1"],
            363000000,
            "truncated spectrum",
            TRUNCATION_REMEDY,
        ),
        # the closed form has no truncation: its ladder grows with the radius
        (
            ["spectrum", "--angles", "1/3", "--epsilon", "1e12"],
            318309886188,
            "closed-form spectrum",
            "lower the window radius",
        ),
    ],
    ids=["verify_deep_truncation", "spectrum_deep_truncation", "verify_cap_grid_n60", "spectrum_wide_window"],
)
def test_ladder_budget_exits_two_before_allocating(fresh_python, argv, entries, spectrum, remedy):
    # under a 1 GB address-space limit a missing budget check fails with a
    # MemoryError traceback instead of quietly allocating gigabytes
    script = f"import sys\nfrom dirac_obstruction.cli import main\nsys.exit(main({argv!r}))\n"
    result = fresh_python(script, address_space=2**30)
    assert (result.returncode, result.stdout) == (2, ""), result.stderr
    assert result.stderr == (
        f"error: {spectrum} of {entries} ladder values exceeds the 100000000 value limit; {remedy}\n"
    )


def test_verify_cap_grid_fits_in_384_mb(fresh_python):
    # the diagonal 10**6-point grid reads its m planted angles per table
    # entry; a (P, k, k) stack of logs and its eigensolve would not fit
    # under this address-space limit and fail with a MemoryError
    argv = ["verify", "--k", "6", "--resolution", "10", "--epsilons", "1,0.1,0.01"]
    script = f"import sys\nfrom dirac_obstruction.cli import main\nsys.exit(main({argv!r}))\n"
    result = fresh_python(script, address_space=3 * 2**27)
    assert (result.returncode, result.stderr) == (0, "")
    # one table row per radius: count 6, cover ok, pass
    rows = [line.split() for line in result.stdout.splitlines()[1:4]]
    assert [(row[1], *row[-2:]) for row in rows] == [("6", "ok", "pass")] * 3


# ---------------------------------------------------------------- flow


def test_flow_ladder_fixture(capsys, ladder_file):
    eta = str(2.0 * math.pi / 16 * 1.5)
    ids = ",".join(f"s{i}" for i in range(17))
    code, out, _ = run_cli(capsys, "flow", ladder_file, "--path", ids, "--eta", eta)
    assert code == 0 and out == "1\n"


def test_flow_single_point_path(capsys, ladder_file):
    code, out, _ = run_cli(capsys, "flow", ladder_file, "--path", "s0", "--eta", "0.5")
    assert code == 0 and out == "0\n"


def test_flow_coarse_path_exit_two(capsys, ladder_file):
    code, _, err = run_cli(capsys, "flow", ladder_file, "--path", "s0,s8,s16", "--eta", "0.6")
    assert code == 2 and "refine" in err


def test_flow_degenerate_endpoint_exit_two(capsys, ladder_file):
    ids = ",".join(f"s{i}" for i in range(9))  # ends at angle 1/2, the crossing
    code, _, err = run_cli(capsys, "flow", ladder_file, "--path", ids, "--eta", "0.5")
    assert code == 2 and "endpoint" in err


def test_missing_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
