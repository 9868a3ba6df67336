"""Fixtures shared by several test modules."""

import pytest

from nullsrc.verify import crime_system


@pytest.fixture(scope="module")
def crime8():
    """Inverse-crime system: an 8x8 control grid on the 9x9-node unit-square
    state mesh at epsilon 1e-3 (acceptance criteria 2 and 3 run on it)."""
    return crime_system(mesh_cells=8)
