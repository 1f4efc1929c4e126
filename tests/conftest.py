import os
import subprocess
import sys
from pathlib import Path

import pytest

import dirac_obstruction

SRC = str(Path(dirac_obstruction.__file__).resolve().parents[1])


def run_python(script: str, *, address_space: int | None = None, timeout: float | None = None):
    """Run `script` in a fresh interpreter that imports this package's source, with one BLAS thread.

    With `address_space` (bytes) the script first caps its own address space,
    before it imports anything else, so an allocation past the cap fails with
    a MemoryError instead of passing unnoticed.
    """
    if address_space is not None:
        script = f"import resource\nresource.setrlimit(resource.RLIMIT_AS, ({address_space}, {address_space}))\n{script}"
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": "1",
        "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
    }
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=timeout)


@pytest.fixture
def fresh_python():
    """`run_python`, for tests whose check needs a process of its own (limits, imports)."""
    return run_python


def pytest_runtest_logreport(report):
    # one visible pass/fail line per acceptance criterion
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    status = "PASS" if report.passed else "FAIL"
    print(f"[acceptance] {status} {name}", flush=True)
