import os
import sys
from pathlib import Path

# one BLAS thread, set before numpy is first imported: OpenBLAS threading of
# the oracles' small-matrix solves costs more than it saves
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dirachl.core import BoundaryParam
from dirachl.synth import constant_potential


def rel_l2(q, other_vals) -> float:
    x = q.grid.nodes()
    num = np.sqrt(np.trapezoid(np.abs(q.samples.values - other_vals) ** 2, x))
    den = np.sqrt(np.trapezoid(np.abs(q.samples.values) ** 2, x))
    return float(num / den)


@pytest.fixture(scope="session")
def unit_potential():
    """q = 1 on [0, 1] at production resolution."""
    return constant_potential(1.0, n=2048)


@pytest.fixture(scope="session")
def alpha0():
    return BoundaryParam(0.0)


@pytest.fixture(scope="session")
def unit_resonances(unit_potential, alpha0):
    from dirachl.forward import make_psi_evaluator
    from dirachl.spectral import SearchRegion, find_resonances

    ev = make_psi_evaluator(unit_potential, alpha0)
    return find_resonances(ev, SearchRegion(-130.5, 130.5, -5.0, 0.0), tol=1e-10)
