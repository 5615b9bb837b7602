"""Shared fixtures: one grid/profile/forms set reused across modules."""

import numpy as np
import pytest

from mrt.eigcore import pin_blas_threads
from mrt.grid1d import Grid1D
from mrt.modeforms import ModeSpec, assemble_incompressible
from mrt.profiles import PhysicalParams, make_affine_profile


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    # the library pin the CLI applies: timed tests then do not pay for
    # OpenBLAS starting its threads in their first large solves, and every
    # test sees the CLI's bits
    pin_blas_threads()


@pytest.fixture(scope="session")
def cheb64():
    return Grid1D("chebyshev", 1.0, 64)


@pytest.fixture(scope="session")
def fd128():
    return Grid1D("fd2", 1.0, 128)


@pytest.fixture(scope="session")
def affine64(cheb64):
    # rho = 2 + x on (-1, 1): rho' = 1 everywhere, buoyant
    return make_affine_profile(cheb64, 2.0, 1.0)


@pytest.fixture(scope="session")
def params_std():
    return PhysicalParams(g=1.0, lambda0=1.0, mu=0.1)


@pytest.fixture(scope="session")
def forms_std(affine64, params_std):
    # unstable configuration used throughout: m = 0.2 < m_C(2, 0)
    mode = ModeSpec.from_integers(1.0, 2, 0, field_dir=3, m=0.2)
    return assemble_incompressible(mode, affine64, params_std, affine64.grid)


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)
