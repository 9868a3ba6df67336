"""Fixtures shared by several test modules."""

import functools
import tracemalloc

import pytest
import scipy.linalg

from nullsrc import DomainSpec, Shape, build_mesh, refine_uniform
from nullsrc.fem import stiffness_and_mass
from nullsrc.verify import crime_system


@pytest.fixture(scope="module")
def crime8():
    """Inverse-crime system: an 8x8 control grid on the 9x9-node unit-square
    state mesh at epsilon 1e-3 (acceptance criteria 2 and 3 run on it)."""
    return crime_system(mesh_cells=8)


@pytest.fixture(scope="session")
def pencil_eigenvalues():
    """eigenvalues(cells, refined): the ascending generalized eigenvalues of
    (K, M) on the unit square with cells x cells cells, built directly or,
    with refined=True, by refine_uniform of the cells/2 mesh (dense eigh)."""

    @functools.cache
    def eigenvalues(cells: int, refined: bool):
        if refined:
            mesh = refine_uniform(build_mesh(DomainSpec(Shape.UNIT_SQUARE, cells // 2, cells // 2)))
        else:
            mesh = build_mesh(DomainSpec(Shape.UNIT_SQUARE, cells, cells))
        K, M = stiffness_and_mass(mesh)
        return scipy.linalg.eigh(K.toarray(), M.toarray(), eigvals_only=True)

    return eigenvalues


@pytest.fixture
def transient_mb():
    """transient_mb(f) calls f() and returns its result and the peak of the
    memory Python allocated during the call (numpy buffers included), in MB
    above what the call started with (tracemalloc)."""

    def measure(f):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = f()
            return result, (tracemalloc.get_traced_memory()[1] - start) / 1e6
        finally:
            tracemalloc.stop()

    return measure
