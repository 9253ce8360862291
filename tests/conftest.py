import numpy as np
import pytest

from quadseq.geometry import REF_CORNERS, QuadGeometry


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


def affine_factor(geom, points):
    """The affine part x -> A x + b of ``geom`` applied to intermediate-frame points."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    return p @ np.swapaxes(geom.A, -1, -2) + geom.b[..., None, :]


def intermediate_vertices(geom):
    """Preimages of the vertices of ``geom`` under its affine factor."""
    signs = np.array([1.0, -1.0, 1.0, -1.0])
    return REF_CORNERS + signs[:, None] * geom.s[..., None, :]
