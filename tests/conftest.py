import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from psqm import self_dual_phase_grid, Grid1D, PhaseGrid


@pytest.fixture(scope="session")
def pg64():
    return self_dual_phase_grid(64)


@pytest.fixture(scope="session")
def pg128():
    return self_dual_phase_grid(128)


@pytest.fixture(scope="session")
def pg256():
    return self_dual_phase_grid(256)


@pytest.fixture(scope="session")
def weyl_grid_256_10():
    """Spec-style (256, 10) configuration grid with its dual as xi axis."""
    g = Grid1D(256, 10.0)
    return PhaseGrid(g, g.dual)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
