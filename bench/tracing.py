"""Per-layer spans and counts, recorded around calls into the package.

`Tracer.install` replaces each traced function with a timing wrapper: at its
definition and under every alias a `dirac_obstruction` module holds, so calls
between package modules are seen too.  `Tracer.uninstall` puts the originals
back.  A target that no longer exists (a removed module, function or method)
is skipped and reports zero calls.  Wrappers record only while `enabled` is
set, so work between timed operations (reference checks) is never traced.

A span's self time is its duration minus the durations of the traced spans
it directly encloses.  The linear-algebra kernels are counted only when
called from package code.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "dirac_obstruction"


def _grid_points(tr, args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    tr.counts["obstruction.grid_points"] += spec.resolution**spec.k


def _cover(tr, args, kwargs, result):
    fam = args[0] if args else kwargs["fam"]
    points = len(fam.points)
    tr.counts["fredholm.cover.points"] += points
    tr.counts["fredholm.cover.covered"] += points - len(result.uncovered_ids)
    tr.counts["fredholm.cover.indeterminate"] += len(result.indeterminate)


def _flow_steps(tr, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tr.counts["fredholm.spectral_flow.steps"] += len(path.steps())


def _eig_elements(tr, args, kwargs, result):
    shape = np.shape(args[0] if args else kwargs["a"])
    batch = 1
    for n in shape[:-2]:
        batch *= n
    tr.counts["linalg.eigvalsh.elements"] += batch * shape[-1] * shape[-1]


def _block_diag_bytes(tr, args, kwargs, result):
    tr.counts["linalg.block_diag.bytes"] += result.nbytes


def _norm2_in_flow(tr, args, kwargs, result):
    if tr.inside("fredholm.spectral_flow"):
        tr.counts["fredholm.flow.norm2"] += 1


def _is_norm2(args, kwargs) -> bool:
    order = kwargs.get("ord", args[1] if len(args) > 1 else None)
    return order == 2 and len(np.shape(args[0] if args else kwargs["x"])) == 2


# (span name, module, attribute path, observer, kernel)
# A kernel span counts only calls made from package code.
TARGETS = [
    ("obstruction.verify_contrapositive", f"{PACKAGE}.obstruction", "verify_contrapositive", _grid_points, False),
    ("obstruction.c1_pairing", f"{PACKAGE}.obstruction", "c1_pairing", None, False),
    ("cohomology.obstruction_product", f"{PACKAGE}.cohomology", "obstruction_product", None, False),
    ("circle_dirac.truncation_blocks", f"{PACKAGE}.circle_dirac", "truncation_blocks", None, False),
    ("circle_dirac.holonomy_log", f"{PACKAGE}.circle_dirac", "holonomy_log", None, False),
    ("circle_dirac.kernel_dim", f"{PACKAGE}.circle_dirac", "kernel_dim", None, False),
    ("circle_dirac.truncation_from_angles", f"{PACKAGE}.circle_dirac", "truncation_from_angles", None, False),
    ("fredholm.count_in_window", f"{PACKAGE}.fredholm", "count_in_window", None, False),
    ("fredholm.bounded_transform", f"{PACKAGE}.fredholm", "bounded_transform", None, False),
    ("fredholm.build_cover", f"{PACKAGE}.fredholm", "build_cover", _cover, False),
    ("fredholm.sampled_family", f"{PACKAGE}.fredholm", "SampledFamily.__init__", None, False),
    ("SampledFamily.load", f"{PACKAGE}.fredholm", "SampledFamily.load", None, False),
    ("fredholm.spectral_flow", f"{PACKAGE}.fredholm", "spectral_flow", _flow_steps, False),
    ("parallel.parallel_map", f"{PACKAGE}._parallel", "parallel_map", None, False),
    ("cli.main", f"{PACKAGE}.cli", "main", None, False),
    ("linalg.eigvalsh", "numpy.linalg", "eigvalsh", _eig_elements, True),
    ("linalg.eigh", "numpy.linalg", "eigh", None, True),
    ("linalg.norm2", "numpy.linalg", "norm", _norm2_in_flow, True),
    ("linalg.schur", "scipy.linalg", "schur", None, True),
    ("linalg.block_diag", "scipy.linalg", "block_diag", _block_diag_bytes, True),
]
SELECTORS = {"linalg.norm2": _is_norm2}
# counts reported per operation; the cover and flow ratios are derived below
COUNTS = (
    "obstruction.grid_points",
    "fredholm.cover.points",
    "fredholm.cover.indeterminate",
    "fredholm.spectral_flow.steps",
    "linalg.eigvalsh.elements",
    "linalg.block_diag.bytes",
)


def _from_package(frame) -> bool:
    name = frame.f_globals.get("__name__", "")
    return name == PACKAGE or name.startswith(PACKAGE + ".")


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.observer_errors: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [name, start, child seconds]
        self._restore: list[tuple[object, str, object]] = []

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def _wrap(self, name, fn, observe, kernel):
        tracer = self
        select = SELECTORS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if (
                not tracer.enabled
                or (kernel and not _from_package(sys._getframe(1)))
                or (select is not None and not select(args, kwargs))
            ):
                return fn(*args, **kwargs)
            frame = [name, time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                elapsed = time.perf_counter() - frame[1]
                tracer.calls[name] += 1
                tracer.seconds[name] += elapsed
                tracer.self_seconds[name] += elapsed - frame[2]
                if tracer._stack:
                    tracer._stack[-1][2] += elapsed
            if observe is not None:
                try:
                    observe(tracer, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # a changed signature or result type must not fail the
                    # operation; the miss is reported with the counts
                    tracer.observer_errors[name] += 1
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for name, module_name, path, observe, kernel in TARGETS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                continue
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            if owner is None:
                continue
            raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(self._wrap(name, raw.__func__, observe, kernel)))
                continue
            wrapper = self._wrap(name, raw, observe, kernel)
            self._set(owner, attr, wrapper)
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                    continue
                for alias, value in list(vars(module).items()):
                    if value is raw:
                        self._set(module, alias, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def per_operation(self, ops: int) -> dict[str, float]:
        """Per-layer metrics averaged over `ops` traced operations."""
        out: dict[str, float] = {}
        for name, *_ in TARGETS:
            out[f"{name}.calls"] = self.calls[name] / ops
            out[f"{name}.s"] = self.seconds[name] / ops
            out[f"{name}.self_s"] = self.self_seconds[name] / ops
        for name in COUNTS:
            out[name] = self.counts[name] / ops
        points, steps = self.counts["fredholm.cover.points"], self.counts["fredholm.spectral_flow.steps"]
        out["fredholm.cover.covered_ratio"] = self.counts["fredholm.cover.covered"] / points if points else 0.0
        out["fredholm.flow.exact_norm_ratio"] = self.counts["fredholm.flow.norm2"] / steps if steps else 0.0
        return out

    def snapshot_counts(self) -> dict[str, int]:
        """Every count the trace keeps, for comparing one operation with the next."""
        out = dict(self.counts)
        out.update({f"{name}.calls": n for name, n in self.calls.items()})
        return out
