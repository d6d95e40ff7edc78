import importlib.util
from pathlib import Path

import numpy as np
import pytest

from wcolab import GridConfig, Poly, default_config


@pytest.fixture(scope="session")
def cfg() -> GridConfig:
    return default_config()


@pytest.fixture(scope="session")
def coarse_cfg() -> GridConfig:
    # Enough for structural tests that do not chase tight tolerances.
    return GridConfig(n_theta=128, n_radial=32)


def seeded_polys(count: int, seed: int, max_degree: int = 12) -> tuple:
    """Local generator mirroring the package recipe, frozen for tests."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        degree = int(rng.integers(2, max_degree + 1))
        radius = np.sqrt(rng.uniform(0.0, 1.0, degree + 1))
        angle = rng.uniform(0.0, 2.0 * np.pi, degree + 1)
        out.append(Poly(tuple(radius * np.exp(1j * angle))))
    return tuple(out)


def sampled_quadratic_means(family, radii, circle, order):
    """The p = 2 circle means of every member from its own values on the grid: the sweep the quadratic form replaces."""
    return family.rowwise(radii, circle, order, lambda values, rows: np.mean(np.abs(values) ** 2.0, axis=-1))


def perfbench_module(name: str):
    """A module of perfbench/, loaded from its file under a name of its own, for reading only."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
