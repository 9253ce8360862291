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


NEAR_FLAT = 1.0 - 2.0**-20


def squares_with(bad):
    """Separate unit squares, with a nearly degenerate convex quad of shape
    vector ``bad[k]`` at each index k. Every translation is by an even
    integer, so with NEAR_FLAT entries all bad cells of one shape vector
    share their unit shape bit for bit."""
    from quadseq.mesh import Mesh
    count = max(bad) + 5
    square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    quads = [square + [2.0 * k, 0.0] for k in range(count)]
    for k, shape in bad.items():
        quads[k] = (REF_CORNERS + np.array([1.0, -1.0, 1.0, -1.0])[:, None] * shape
                    + [2.0 * k, 0.0])
    return Mesh(np.concatenate(quads), np.arange(4 * count).reshape(-1, 4))


def affine_factor(geom, points):
    """The affine part x -> A x + b of ``geom`` applied to intermediate-frame points."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    return p @ np.swapaxes(geom.A, -1, -2) + geom.b[..., None, :]


def intermediate_vertices(geom):
    """Preimages of the vertices of ``geom`` under its affine factor."""
    signs = np.array([1.0, -1.0, 1.0, -1.0])
    return REF_CORNERS + signs[:, None] * geom.s[..., None, :]


# ---------------------------------------------------------------------------
# Reference copies of the one-product-at-a-time span chains and of the
# one-candidate-at-a-time cell sampler: the stacked chains of
# ``quadseq.elements`` and the array-drawn ``random_convex_quads`` must give
# their bits.
# ---------------------------------------------------------------------------

def line_forms(geom):
    """The line forms (..., 3) of ``geom.forms``, one by one: l1, l2, l3, l4,
    m13, m24, d13, d24."""
    return tuple(np.moveaxis(geom.forms, -2, 0))


def reference_corrector_span(geom):
    """(..., 2, 28): the two quintic correctors c1, c2."""
    from quadseq.poly import affine_row, mul_affine
    l1, l2, l3, l4, m13, m24, _, _ = line_forms(geom)
    s1, s2 = geom.s[..., 0, None], geom.s[..., 1, None]

    b13 = mul_affine(affine_row(l1), l3)
    q13 = mul_affine(mul_affine(b13, m24), m24)
    c1 = (
        (s2 - 1.0) * (s2 + 1.0) * mul_affine(mul_affine(b13, m13), m24)
        - s1 * s2 * q13
        + s1 * mul_affine(q13, m13)
    )
    b24 = mul_affine(affine_row(l2), l4)
    q24 = mul_affine(mul_affine(b24, m13), m13)
    c2 = (
        (s1 - 1.0) * (s1 + 1.0) * mul_affine(mul_affine(b24, m13), m24)
        - s1 * s2 * q24
        + s2 * mul_affine(q24, m24)
    )
    return np.stack([c1, c2], axis=-2)


def reference_bubble_span(geom):
    """(..., 4, 28): b0 * {1, m13, m24, d13*d24} with b0 = l1*l2*l3*l4."""
    from quadseq.poly import affine_row, mul_affine
    l1, l2, l3, l4, m13, m24, d13, d24 = line_forms(geom)
    b0 = affine_row(l1)
    for line in (l2, l3, l4):
        b0 = mul_affine(b0, line)
    return np.stack([
        b0,
        mul_affine(b0, m13),
        mul_affine(b0, m24),
        mul_affine(mul_affine(b0, d13), d24),
    ], axis=-2)


def reference_unisolvency_rows(geom):
    """P, Q (..., 4, 28) and B (..., 4, 4, 28) of ``elements._unisolvency_rows``."""
    from quadseq.poly import affine_row, mul_affine
    l1, l2, l3, l4, m13, m24, d13, d24 = line_forms(geom)
    lines = [l1, l2, l3, l4]
    c1, c2 = np.moveaxis(reference_corrector_span(geom), -2, 0)

    b13 = mul_affine(affine_row(l1), l3)
    b24 = mul_affine(affine_row(l2), l4)
    P = np.stack([mul_affine(b13, l4), mul_affine(b13, l2), mul_affine(b13, d13), c1], axis=-2)
    Q = np.stack([mul_affine(b24, l1), mul_affine(b24, l3), mul_affine(b24, d24), c2], axis=-2)

    B = []
    for i in range(4):
        others = np.broadcast_to(affine_row([1.0, 0.0, 0.0]), geom.h.shape + (28,))
        for m in range(4):
            if m != i:
                others = mul_affine(others, lines[m])
        B.append(np.stack([
            others,
            mul_affine(others, m13),
            mul_affine(others, m24),
            mul_affine(mul_affine(others, d13), d24),
        ], axis=-2))
    return P, Q, np.stack(B, axis=-3)


def reference_random_convex_quads(samples, seed, max_skew=0.95, max_aspect=None):
    """Vertices (samples, 4, 2) of ``verify.random_convex_quads``, drawn one
    candidate cell at a time."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < samples:
        s = rng.uniform(-max_skew, max_skew, 2)
        if abs(s[0]) + abs(s[1]) > max_skew:
            continue
        verts = REF_CORNERS + np.array([1.0, -1.0, 1.0, -1.0])[:, None] * s[None, :]
        if max_aspect is None:
            L = rng.uniform(-1.0, 1.0, (2, 2))
            if np.linalg.det(L) < 0.25:
                continue
        else:
            th1, th2 = rng.uniform(0, 2 * np.pi, 2)

            def rot(t):
                return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])

            a = rng.uniform(1.0, max_aspect)
            L = rot(th1) @ np.diag([1.0, 1.0 / a]) @ rot(th2)
            if np.linalg.det(L) < 0:
                L = L @ np.diag([1.0, -1.0])
        scale = rng.uniform(0.5, 2.0)
        out.append(verts @ (scale * L).T + rng.uniform(-3, 3, 2))
    return np.stack(out)


# ---------------------------------------------------------------------------
# Reference copies of the certificates' walk before they ran on the element
# tasks: consecutive slices of 64 cells, every cell checked, none shared.
# Both certificates must give their bits.
# ---------------------------------------------------------------------------

def _slices_of_64(stop):
    return [slice(a, min(a + 64, stop)) for a in range(0, stop, 64)]


def sliced_certificate_residuals(family, samples, seed, identity_samples):
    """The residuals of ``element_certificate`` on a mesh family, walked in
    slices of 64 sampled cells."""
    from quadseq.elements import det_oracles, numeric_dets
    from quadseq.mesh import make_mesh
    from quadseq.verify import THRESHOLDS, _fold_max, _identity_residuals

    geom = make_mesh(4, family, seed=seed).cell_geometry
    quads, cells = (geom[np.arange(k) % len(geom)] for k in (samples, identity_samples))
    res = {}
    for part in _slices_of_64(len(quads)):
        q = quads[part]
        num = np.stack(numeric_dets(q), axis=-1)
        orc = np.stack(det_oracles(q.s[:, 0], q.s[:, 1]), axis=-1)
        _fold_max(res, {"det_rel_err": np.abs((num - orc) / orc)})
    for part in _slices_of_64(len(cells)):
        _fold_max(res, _identity_residuals(cells[part]))
    return {k: float(res[k]) for k in THRESHOLDS}


def sliced_sequence_residuals(mesh):
    """The re-interpolation, flux and consistency residuals of
    ``verify_exact_sequence``, walked in slices of 64 mesh cells."""
    from quadseq.assembly import scalar_dof_scaling
    from quadseq.elements import _build_pair
    from quadseq.sequence import _rotated_gradient_dofs, curl_matrix
    from quadseq.verify import _curl_dofs, _curl_inclusion_residual, _div_flux_residual, _fold_max

    geom = mesh.cell_geometry
    unit = QuadGeometry(geom.local_vertices)
    C, sdm, vdm = curl_matrix(mesh)
    w = np.random.default_rng(0).standard_normal(sdm.ndof)
    c = sdm.gather(w) * scalar_dof_scaling(geom.h)
    sigma_global = vdm.gather(C @ w)
    res = {}
    for part in _slices_of_64(mesh.n_cells):
        shapes = unit[part]
        sc, vc = _build_pair(shapes)
        S = _curl_dofs(shapes, sc, vc)
        _fold_max(res, {
            "reinterp": _curl_inclusion_residual(S, sc, vc)[0],
            "div_flux": _div_flux_residual(shapes, vc.divergence()[0]),
            "consistency": np.abs(_rotated_gradient_dofs(S, c[part], geom.h[part])
                                  - sigma_global[part]),
        })
    return tuple(float(v) for v in res.values())
