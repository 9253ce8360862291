import pytest

from quadseq.geometry import QuadGeometry


@pytest.fixture
def unit_square():
    return QuadGeometry([[0, 0], [1, 0], [1, 1], [0, 1]])


@pytest.fixture
def spec_trapezoid():
    return QuadGeometry([[0, 0], [1, 0], [1.5, 1], [0, 1]])


def make_random_quads(samples, seed=0, max_skew=0.8, max_aspect=2.0):
    """Seeded random cells, each built by the one-cell ``QuadGeometry``."""
    from quadseq.verify import random_convex_quads
    batch = random_convex_quads(samples, seed, max_skew=max_skew, max_aspect=max_aspect)
    return [QuadGeometry(v) for v in batch.vertices]


@pytest.fixture
def random_quads():
    return make_random_quads(30, seed=3)
