"""The benchmark's workloads: seeded inputs, one timed operation, and checks.

Every workload calls only the public API of `dirac_obstruction` with default
knobs (no `jobs=`, no tolerance overrides).  Each result is checked against a
reference this module computes without calling the package:

* grid verdicts against the closed-form spectrum 2*pi*(n + delta + theta_j)
  of the truncated operator, evaluated in numpy;
* the flow family against planted integer spectra, whose cover sets and
  spectral flow follow by counting;
* every coordinate-loop pairing against +1.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from fractions import Fraction

import numpy as np

import dirac_obstruction as dob
import dirac_obstruction.cli as dob_cli

# The package's default cover guards.  The references only accept inputs
# whose decisions clear every guard by a wide margin, so a count can never
# hinge on rounding.
INV_TOL = 1e-8
AMBIGUITY_DECADE = 10.0
REFERENCE_MARGIN = 1e-6

BASE_RADII = (1.0, 0.1, 0.01)
# Relative radius jitter drawn from the seed.  Grid eigenvalue magnitudes are
# multiples of pi/m and the cover levels are j*eps/(k+1); within +-1% of the
# base radii neither comes near a window edge or a level for m = 12 or 24.
RADIUS_JITTER = 0.01


class GridWorkload:
    """One `verify_contrapositive` call over a fixed torus grid."""

    def __init__(self, *, k: int, resolution: int, truncation: int, conjugated: bool, bounded: bool, cover: bool):
        self.k = k
        self.resolution = resolution
        self.truncation = truncation
        self.conjugated = conjugated
        self.bounded = bounded
        self.cover = cover
        self.items_per_op = resolution**k
        self._expected: dict | None = None

    def setup(self, rng: np.random.Generator, workdir: str) -> None:
        self.radii = [r * (1.0 + RADIUS_JITTER * rng.uniform(-1.0, 1.0)) for r in BASE_RADII]
        self.spec = dob.TorusGridSpec(
            k=self.k,
            resolution=self.resolution,
            truncation=self.truncation,
            diagonal_only=not self.conjugated,
        )

    def run(self):
        return dob.verify_contrapositive(self.spec, self.radii, bounded=self.bounded, cover_check=self.cover)

    def check(self, verdict) -> list[str]:
        if self._expected is None:
            self._expected = self._reference()
        exp = self._expected
        got = verdict.to_json()
        problems = []
        for key in ("k", "resolution", "truncation", "bounded", "cohomology_product", "cohomology_product_nonzero", "passed"):
            if got.get(key) != exp[key]:
                problems.append(f"{key}: got {got.get(key)!r}, expected {exp[key]!r}")
        reports = got.get("per_epsilon", [])
        if len(reports) != len(exp["per_epsilon"]):
            return problems + [f"{len(reports)} radius reports, expected {len(exp['per_epsilon'])}"]
        for rep, want in zip(reports, exp["per_epsilon"]):
            for key, value in want.items():
                have = rep.get(key)
                same = math.isclose(have, value, rel_tol=1e-12) if isinstance(value, float) else have == value
                if not same:
                    problems.append(f"radius {want['epsilon']!r} {key}: got {have!r}, expected {value!r}")
        return problems

    def _reference(self) -> dict:
        k, m, n_modes = self.k, self.resolution, self.truncation
        delta = Fraction(1, 2)
        # lexicographic point order, first coordinate slowest
        idx = np.indices((m,) * k).reshape(k, -1).T
        modes = np.arange(-n_modes, n_modes + 1)
        lam = 2.0 * math.pi * (modes[None, None, :] + float(delta) + idx[:, :, None] / m)
        lam = lam.reshape(len(idx), -1)
        per_eps = []
        for eps in self.radii:
            if self.bounded:
                vals, eff = lam / np.sqrt(1.0 + lam * lam), eps / math.sqrt(1.0 + eps * eps)
            else:
                vals, eff = lam, eps
            if np.abs(np.abs(vals) - eff).min() <= REFERENCE_MARGIN:
                raise RuntimeError(f"radius {eps!r} sits on a grid eigenvalue; the reference is unreliable")
            counts = np.count_nonzero(np.abs(vals) < eff, axis=1)
            best = int(np.argmax(counts))  # first maximum in grid order
            max_count = int(counts[best])
            witness = [int(i) for i in idx[best]]
            kernel = sum(1 for i in witness if (Fraction(i, m) + delta).denominator == 1)
            cover_ok = self._reference_cover(vals, max_count, eff) if self.cover else None
            per_eps.append(
                {
                    "epsilon": eps,
                    "effective_epsilon": eff,
                    "max_count": max_count,
                    "witness_id": "_".join(str(i) for i in witness),
                    "witness_coords": [i / m for i in witness],
                    "witness_kernel_dim": kernel,
                    "cover_ok": cover_ok,
                    "passed": max_count >= k,
                }
            )
        return {
            "k": k,
            "resolution": m,
            "truncation": n_modes,
            "bounded": self.bounded,
            "cohomology_product": "1 * " + "^".join(f"c{i}" for i in range(1, k + 1)),
            "cohomology_product_nonzero": True,
            "per_epsilon": per_eps,
            "passed": all(r["passed"] for r in per_eps),
        }

    @staticmethod
    def _reference_cover(vals: np.ndarray, k: int, eps: float) -> bool:
        levels = np.arange(k + 1) * eps / (k + 1)
        sigma = np.abs(vals[:, :, None] - levels[None, None, :]).min(axis=1)
        # exact hits are 0 here; anything else must clear the indeterminate band
        near = (sigma > 0) & (sigma < REFERENCE_MARGIN)
        if near.any():
            raise RuntimeError("a cover level sits within the indeterminate band; the reference is unreliable")
        return bool((sigma > INV_TOL * AMBIGUITY_DECADE).any(axis=1).all())

    def close(self) -> None:
        pass


# Flow family: planted eigenvalues are integer multiples of QUANTUM (exact in
# binary), so every cover and flow decision is either an exact hit or at least
# one quantum away from its threshold.
FAMILY_POINTS = 1000
FAMILY_DIM = 24
QUANTUM = 2.0**-10
COVER_K = 3
LEVEL_QUANTA = 32  # cover level j sits at j * LEVEL_QUANTA quanta
COVER_EPS = (COVER_K + 1) * LEVEL_QUANTA * QUANTUM
# Every step moves each eigenvalue by at most one quantum, so the exact step
# norm is one quantum; the Frobenius shortcut passes while at most six
# eigenvalues move (sqrt(6) < 2.5) and the exact 2-norm is needed otherwise.
FLOW_ETA = 2.5 * QUANTUM
WINDOW_QUANTA = (COVER_K + 1) * LEVEL_QUANTA
CROSS_SLOTS = 3  # at most this many eigenvalues inside the window at once
CROSS_HALF = 150  # a crossing track runs between -150 and +150 quanta
CROSS_STEPS = 2 * CROSS_HALF

LOOP_SPEC = dict(k=3, resolution=96, truncation=16)
LOOP_COUNT = 12


def _haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))[None, :]


def plant_tracks(rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Integer eigenvalue tracks (points x dim) and their spectral flow.

    Each of CROSS_SLOTS slots holds two crossing tracks one after the other;
    a crossing track climbs (or falls) from one side of the cover window to
    the other, one quantum per step, and contributes +1 (or -1) to the flow.
    The remaining tracks stay at least 200 quanta from zero.  So each point
    has at most CROSS_SLOTS eigenvalues in the window, and by pigeonhole over
    the COVER_K + 1 levels every point is covered.
    """
    steps = np.arange(FAMILY_POINTS)
    tracks = np.empty((FAMILY_POINTS, FAMILY_DIM), dtype=np.int64)
    starts = []
    for _ in range(CROSS_SLOTS):
        first = int(rng.integers(0, 100))
        starts += [first, int(rng.integers(first + CROSS_STEPS, FAMILY_POINTS - CROSS_STEPS))]
    flow = 0
    for col, start in enumerate(starts):
        ramp = np.clip(steps - start, 0, CROSS_STEPS) - CROSS_HALF
        up = bool(rng.integers(2))
        tracks[:, col] = ramp if up else -ramp
        flow += 1 if up else -1
    for col in range(len(starts), FAMILY_DIM):
        length = int(rng.integers(100, 401))
        begin = int(rng.integers(0, FAMILY_POINTS - length))
        base = int(rng.integers(600, 1001))
        slope = int(rng.choice([-1, 1]))
        sign = int(rng.choice([-1, 1]))
        tracks[:, col] = sign * (base + slope * np.clip(steps - begin, 0, length))
    if (np.abs(tracks) < WINDOW_QUANTA).sum(axis=1).max() > CROSS_SLOTS:
        raise RuntimeError("planted family has too many window eigenvalues")
    if np.abs(np.diff(tracks, axis=0)).max() > 1:
        raise RuntimeError("planted family moves an eigenvalue by more than one quantum")
    return tracks, flow


class FlowFamilyWorkload:
    """One pass over a sampled family: `cover` and `flow` through the CLI, then
    `c1_pairing` around coordinate loops of a fine grid."""

    items_per_op = 2 * FAMILY_POINTS + LOOP_COUNT * (LOOP_SPEC["resolution"] + 1)

    def setup(self, rng: np.random.Generator, workdir: str) -> None:
        self.tracks, self.flow = plant_tracks(rng)
        u = _haar_unitary(rng, FAMILY_DIM)
        lam = self.tracks * QUANTUM
        ops = (u[None, :, :] * lam[:, None, :]) @ u.conj().T
        ops = (ops + np.conj(np.swapaxes(ops, 1, 2))) / 2.0
        self.ids = [f"p{i:04d}" for i in range(FAMILY_POINTS)]
        pairs = np.stack([ops.real, ops.imag], axis=-1).tolist()
        doc = {"dim": FAMILY_DIM, "points": [{"id": i, "matrix": m} for i, m in zip(self.ids, pairs)]}
        os.makedirs(workdir, exist_ok=True)
        self.path = os.path.join(workdir, f"family-{os.getpid()}.json")
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc))
        self.cover_argv = ["cover", self.path, "--k", str(COVER_K), "--epsilon", repr(COVER_EPS)]
        self.flow_argv = ["flow", self.path, "--path", ",".join(self.ids), "--eta", repr(FLOW_ETA)]
        self.loop_spec = dob.TorusGridSpec(**LOOP_SPEC)
        # open lifted paths need endpoint spectra farther than eta = 1.5 grid
        # steps from zero, so no base coordinate lies within one step of m/2
        m = LOOP_SPEC["resolution"]
        bases = [i for i in range(m) if abs(2 * i - m) > 2]
        self.loops = [(i % LOOP_SPEC["k"], tuple(int(b) for b in rng.choice(bases, LOOP_SPEC["k"]))) for i in range(LOOP_COUNT)]

    @staticmethod
    def _cli(argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = dob_cli.main(argv)
        return code, out.getvalue()

    def run(self):
        cover = self._cli(self.cover_argv)
        flow = self._cli(self.flow_argv)
        pairings = [dob.c1_pairing(self.loop_spec, dob.coordinate_loop(self.loop_spec, axis, base)) for axis, base in self.loops]
        return cover, flow, pairings

    def check(self, result) -> list[str]:
        (cover_code, cover_out), (flow_code, flow_out), pairings = result
        problems = []
        if cover_code != 0:
            problems.append(f"cover exit code {cover_code}, expected 0")
        else:
            doc = json.loads(cover_out)
            hit = [(self.tracks == j * LEVEL_QUANTA).any(axis=1) for j in range(COVER_K + 1)]
            sets = {f"U_{j}": [i for i, h in zip(self.ids, hit[j]) if not h] for j in range(COVER_K + 1)}
            expected = {"k": COVER_K, "epsilon": COVER_EPS, "sets": sets, "covered": True, "uncovered_ids": [], "indeterminate": []}
            for key, value in expected.items():
                if doc.get(key) != value:
                    problems.append(f"cover {key} differs from the planted cover")
        if flow_code != 0 or flow_out.strip() != str(self.flow):
            problems.append(f"flow exit {flow_code} output {flow_out.strip()!r}, expected {self.flow}")
        for (axis, base), got in zip(self.loops, pairings):
            if got != 1:
                problems.append(f"c1_pairing around axis {axis} from {base} gave {got}, expected 1")
        return problems

    def close(self) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.path)


def make(name: str):
    if name == "grid_cover":
        return GridWorkload(k=3, resolution=24, truncation=4, conjugated=False, bounded=False, cover=True)
    if name == "grid_conjugated_bounded":
        return GridWorkload(k=3, resolution=12, truncation=4, conjugated=True, bounded=True, cover=False)
    if name == "flow_family":
        return FlowFamilyWorkload()
    raise ValueError(f"unknown workload {name!r}")
