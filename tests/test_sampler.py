"""The seeded cell sampler of the element certificate.

``random_convex_quads`` draws its uniform stream in blocks and walks the
accept/reject chain over it; it must give the cells of drawing one
candidate at a time (the reference copy in conftest) bit for bit, and name
an argument it cannot sample with.
"""

import numpy as np
import pytest

import quadseq.verify as verify
from conftest import reference_random_convex_quads
from quadseq.verify import random_convex_quads

ARGS = [
    (1, 0),
    (1, 5, 0.8, 2.0),
    (5, 9),
    (200, 1),
    (200, 2, 0.8, 2.0),
    (333, 5, 0.8, 2.0),
    (1000, 7),
    (50, 3, 0.0),
    (50, 3, 0.0, 1.0),
    (400, 11, 0.5, 1e4),
    (300, 6, 0.999, 1.0),
]


@pytest.mark.parametrize("args", ARGS)
def test_sampler_gives_the_cells_of_one_candidate_at_a_time(args):
    got = random_convex_quads(*args).vertices
    want = reference_random_convex_quads(*args)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("args", [(1500, 3, 0.8, 2.0), (1200, 4)])
def test_sampler_keeps_its_bits_across_draw_blocks(args):
    # An accepted cell takes 8 draws (bounded) or 9 and on average about 10
    # or 31, so these counts walk past the first block of draws.
    assert args[0] * 8 > verify._DRAW_BLOCK
    got = random_convex_quads(*args).vertices
    assert got.tobytes() == reference_random_convex_quads(*args).tobytes()


@pytest.mark.parametrize("samples", [0, -3, 2.5, True, "4", None])
def test_sampler_names_a_bad_sample_count(samples):
    with pytest.raises(ValueError, match="^samples must be"):
        random_convex_quads(samples, 1)


@pytest.mark.parametrize("max_skew", [-0.1, 1.0, 1.5, np.nan, "0.5", None])
def test_sampler_names_a_bad_skew(max_skew):
    with pytest.raises(ValueError, match=r"^max_skew must lie in \[0, 1\)"):
        random_convex_quads(4, 1, max_skew=max_skew)


@pytest.mark.parametrize("max_aspect", [0.5, -2.0, np.nan, np.inf, "2"])
def test_sampler_names_a_bad_aspect(max_aspect):
    with pytest.raises(ValueError, match="^max_aspect must be None or a finite number >= 1"):
        random_convex_quads(4, 1, max_aspect=max_aspect)


def test_sampler_takes_numpy_arguments():
    got = random_convex_quads(np.int64(7), np.int32(2), np.float64(0.8), np.float64(2.0))
    assert got.vertices.tobytes() == reference_random_convex_quads(7, 2, 0.8, 2.0).tobytes()
