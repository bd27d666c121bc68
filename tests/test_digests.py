"""The surface bytes of four sequential runs, pinned as digests.

Each digest is the first 16 hex digits of SHA-256 over the bytes of the
final level, SolutionSurface.as_matrix().  Two runs are the benchmark's
problems (bench/workloads.py) and two are the second manufactured problem
(test_general_problem.py), whose plain-callable source takes the per-chunk
load path.  The direct solver is bitwise reproducible, but the bytes are
those of one set of numerical libraries: the digests were recorded under
RECORDED_UNDER, and where any part of it differs the test skips and names
that part.  A change that moves these bytes on purpose updates the digest
and says so in CHANGES.md.
"""

import hashlib
import platform

import numpy as np
import pytest
import scipy
import sympy

from pbemoc.characteristics import TimeGrid
from pbemoc.harness import mms_problem
from pbemoc.mesh import UNIT_SQUARE, build_structured_mesh, reference_basis
from pbemoc.stepper import run_sequential

from test_general_problem import DOMAIN, general_problem

RECORDED_UNDER = {
    "numpy": "2.4.6",
    "scipy": "1.17.1",
    "sympy": "1.14.0",
    "numpy's BLAS": "scipy-openblas 0.3.31.188.0",
    "scipy's BLAS": "scipy-openblas 0.3.30",
    "machine": "x86_64",
}

# name: (problem, order, h, M, N, T or None for the problem's, digest)
RUNS = {
    "bench-p2": ("benchmark", 2, 2.0**-3, 512, 64, 0.125, "7a0a0ddbf5fa221d"),
    "bench-p1": ("benchmark", 1, 2.0**-5, 64, 64, 1.0, "646e038a5c7565e1"),
    "second-p1": ("second", 1, 2.0**-4, 128, 64, None, "32843e38032a06a6"),
    "second-p2": ("second", 2, 2.0**-3, 64, 32, None, "2207298a9de7ba70"),
}


def _blas(module) -> str:
    blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas['version']}"


def environment() -> dict:
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "numpy's BLAS": _blas(np),
        "scipy's BLAS": _blas(scipy),
        "machine": platform.machine(),
    }


@pytest.fixture(scope="module")
def problems():
    return {"benchmark": (mms_problem(), UNIT_SQUARE), "second": (general_problem()[0], DOMAIN)}


@pytest.mark.parametrize("name", list(RUNS))
def test_surface_bytes_match_their_digest(problems, name):
    here = environment()
    differing = [f"{part} is {here[part]}, not {want}" for part, want in RECORDED_UNDER.items() if here[part] != want]
    if differing:
        pytest.skip("digests recorded under other libraries: " + "; ".join(differing))
    kind, order, h, M, N, T, digest = RUNS[name]
    problem, domain = problems[kind]
    mesh = build_structured_mesh(domain, h, order)
    tgrid = TimeGrid(problem.T if T is None else T, N)
    surface = run_sequential(problem, mesh, reference_basis(order), problem.lgrid(M), tgrid)
    assert hashlib.sha256(surface.as_matrix().tobytes()).hexdigest()[:16] == digest
