"""Grid verdicts and boundary errors pinned byte for byte to a recorded file.

`data/verify_golden.json` holds the verdict JSON and `summary_table()` of
every all-radii call of the sweep below, and the outcome of every call of the
edge sweep, whose radii sit on a window edge of some grid point.  After a
deliberate change of the output, rewrite the file with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
import re
from pathlib import Path

from dirac_obstruction import BoundaryAmbiguityError, SpinStructure, TorusGridSpec, verify_contrapositive

GOLDEN = Path(__file__).resolve().parent / "data" / "verify_golden.json"

SWEEP_GRIDS = [(1, 3), (1, 8), (2, 2), (2, 4), (2, 5), (2, 6), (3, 6), (3, 12), (3, 24)]
SWEEP_RADII = [2.0, 1.0, 0.7, 0.1, 0.05, 3.3, 0.3]
EDGE_GRIDS = [(1, 4), (2, 4), (2, 6), (3, 6), (3, 12)]
EDGE_RADII = [math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2, 2 * math.pi / 3, math.pi]
# the conjugated grids draw random eigenbases, so the eigenvalue printed at a
# boundary may move in its last digits; the grid point and the edge may not
BOUNDARY = re.compile(r"eigenvalue \S+ at grid point (\S+) lies within \S+ of the window edge \+-(\S+);")


def _runs(grids):
    for k, m in grids:
        for diagonal_only in (True, False):
            for bounded in (False, True):
                for delta in ("0", "1/2"):
                    grid = "diagonal" if diagonal_only else "conjugated"
                    spec = TorusGridSpec(k, m, SpinStructure.parse(delta), truncation=4, diagonal_only=diagonal_only)
                    yield f"k={k} m={m} {grid} bounded={bounded} delta={delta}", spec, bounded


def _verdict(spec, radii, bounded):
    verdict = verify_contrapositive(spec, radii, bounded=bounded)
    return {"verdict": json.dumps(verdict.to_json(), sort_keys=True), "table": verdict.summary_table()}


def _edge_outcome(spec, radius, bounded):
    try:
        return _verdict(spec, [radius], bounded)
    except BoundaryAmbiguityError as exc:
        if spec.diagonal_only:
            return {"error": str(exc)}
        point, edge = BOUNDARY.search(str(exc)).groups()
        return {"error_point": point, "error_edge": edge}


def sweep_outcomes() -> dict:
    return {key: _verdict(spec, SWEEP_RADII, bounded) for key, spec, bounded in _runs(SWEEP_GRIDS)}


def edge_outcomes() -> dict:
    return {
        f"{key} radius={radius!r}": _edge_outcome(spec, radius, bounded)
        for key, spec, bounded in _runs(EDGE_GRIDS)
        for radius in EDGE_RADII
    }


def _mismatches(got: dict, expected: dict) -> list[str]:
    assert got.keys() == expected.keys()
    return [key for key in expected if got[key] != expected[key]]


def test_verify_sweep_matches_golden():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))["sweep"]
    assert len(expected) == 72
    assert _mismatches(sweep_outcomes(), expected) == []


def test_edge_sweep_matches_golden():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))["edge"]
    assert len(expected) == 240
    # half of the edge radii hit a window edge on their grid
    assert sum("verdict" not in outcome for outcome in expected.values()) == 120
    assert _mismatches(edge_outcomes(), expected) == []


if __name__ == "__main__":
    doc = {"sweep": sweep_outcomes(), "edge": edge_outcomes()}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
