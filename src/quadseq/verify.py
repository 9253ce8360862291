"""Element identity certificates over a batch of convex quadrilaterals.

Each check runs on a batch of sampled cells at once and gives one residual
per cell, against closed forms or independent quadrature: the three
unisolvency determinants, nodal duality and the aggregation constraints of
both elements, the cubic edge-mean identity and the weighted normal-trace
identity on every nodal basis function, quadratic and linear-vector
reproduction, membership of the rotated scalar gradients in the vector
space (the curl re-interpolation check that ``quadseq.sequence`` also
runs), the flux identity of the vector divergence (also run there), and
the bubble trace relations. Residuals are aggregated as maxima
over the cells and compared against fixed thresholds.

The battery evaluates each cell's monomial frames and stream span once:
both elements are built from one span and one pair of frames, they keep
the frames, and every identity check on those cells reads the frames and
the span of the element it checks. The reproduction checks share one
monomial table at their sample points.

The cells run in the element tasks of assembly (``assembly._chunk_tasks``):
chunks of ``CELL_CHUNK`` cells, whose distinct cells, in order of first
appearance, go into tasks of at most ``TASK_CELLS``, each with the cells
that repeat them. On the sweep, whose cells are all distinct, a task is
``TASK_CELLS`` consecutive cells; on the cycled cells of a mesh family, it
is a chunk's 16 distinct cells. So the temporaries of the battery are
bounded whatever the number of samples and whatever the mix of repeated
cells (``element_certificate(1000, identity_samples=1000)`` peaks at 68 MB
on the sweep, against 124 MB with every cell at once), and a mesh family
certificate checks each of its 16 cells once per chunk, however many
samples cycle through them. A cell's residuals depend on its vertices
only, and each certificate residual is the maximum over the tasks of their
maxima over cells, so the certificate is the same bit for bit for every
task size and with or without the deduplication.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .assembly import _chunk_tasks
from .elements import (
    _EDGE_T,
    _EDGE_W,
    _NEXT,
    _build_pair,
    _edge_means,
    _swap,
    _vector_dof_rows,
    _vt,
    aggregation_coeffs_formula,
    det_oracles,
    numeric_dets,
    scalar_dof_values,
    vector_dof_values,
)
from .geometry import REF_CORNERS, QuadGeometry
from .mesh import FAMILIES, _integer, _real, _seed, _strict_json, make_mesh
from .poly import DX, DY

__all__ = ["ElementCertificate", "element_certificate", "random_convex_quads"]

THRESHOLDS = {
    "det_rel_err": 1e-9,
    "scalar_duality": 1e-10,
    "scalar_constraint": 1e-10,
    "edge_mean_identity": 1e-10,
    "aggregation_crosscheck": 1e-8,
    "p2_reproduction": 1e-10,
    "vector_duality": 1e-10,
    "vector_constraint": 1e-10,
    "weighted_normal_identity": 1e-10,
    "p1_vector_reproduction": 1e-10,
    "curl_inclusion": 1e-10,
    "curl_flux_sum": 1e-10,
    "div_is_flux": 1e-10,
    "bubble_vertex_values": 1e-12,
    "bubble_trace_relation": 1e-10,
    "div_in_p0": 1e-10,
}


def random_convex_quads(samples: int, seed: int, max_skew: float = 0.95,
                        max_aspect: float | None = None) -> QuadGeometry:
    """Seeded batch of convex quads: shape vector in the diamond, then a
    random affine map and translation.

    With ``max_aspect`` set, the affine factor is built from rotations and a
    bounded-anisotropy stretch; unbounded affines exercise the
    affine-invariant checks (the unisolvency determinants), bounded ones the
    coefficient-space identities whose meaningful tolerance assumes
    reasonably shaped cells. ``samples`` must be an integer of at least 1,
    ``max_skew`` lie in [0, 1) and ``max_aspect`` be None or a finite number
    of at least 1; ``ValueError`` names the argument that is not.

    Each candidate cell reads the next uniform draws of the seeded stream
    (``Generator.uniform`` is ``low + (high - low) * Generator.random``):
    two for the shape vector, which is rejected outside the diamond, then
    four for an unbounded affine factor, rejected if its determinant is
    below 0.25, then a scale and a translation; with ``max_aspect`` two
    angles and a stretch, then the scale and the translation, and no
    rejection. The draws come in blocks of _DRAW_BLOCK, both tests are
    evaluated at every offset of a block at once, and the chain of
    candidates steps through the offsets by 2, 6 or 9 draws (2 or 8 with
    ``max_aspect``). The accepted cells are then built together.
    """
    samples = _integer(samples, "samples", 1)
    _real(max_skew, "max_skew", "must lie in [0, 1)", lambda x: 0.0 <= x < 1.0)
    if max_aspect is not None:
        _real(max_aspect, "max_aspect", "must be None or a finite number >= 1",
              lambda x: 1.0 <= x < np.inf)
    rng = np.random.default_rng(_seed(seed))
    bounded = max_aspect is not None
    step = 8 if bounded else 9  # the draws of an accepted candidate
    u, outside, low_det, starts, p = np.empty(0), [], [], [], 0
    while len(starts) < samples:
        u = np.concatenate([u, rng.random(_DRAW_BLOCK)])
        lo, hi = len(outside), len(u) - step + 1  # the offsets new to this block
        s = _uniform(u[lo:hi + 1], -max_skew, max_skew)
        outside += (np.abs(s[:-1]) + np.abs(s[1:]) > max_skew).tolist()
        if not bounded:
            L = _uniform(sliding_window_view(u[lo + 2:hi + 5], 4), -1.0, 1.0)
            low_det += (np.linalg.det(L.reshape(-1, 2, 2)) < 0.25).tolist()
        while p < hi and len(starts) < samples:
            if outside[p]:
                p += 2
            elif not bounded and low_det[p]:
                p += 6
            else:
                starts.append(p)
                p += step

    d = u[np.array(starts)[:, None] + np.arange(step)]
    s = _uniform(d[:, :2], -max_skew, max_skew)
    verts = REF_CORNERS + np.array([1.0, -1.0, 1.0, -1.0])[:, None] * s[:, None, :]
    if bounded:
        th = _uniform(d[:, 2:4], 0.0, 2 * np.pi)
        stretch = np.zeros((samples, 2, 2))
        stretch[:, 0, 0], stretch[:, 1, 1] = 1.0, 1.0 / _uniform(d[:, 4], 1.0, max_aspect)
        L = _rotations(th[:, 0]) @ stretch @ _rotations(th[:, 1])
        flip = np.linalg.det(L) < 0
        L[flip] = L[flip] @ np.diag([1.0, -1.0])
    else:
        L = _uniform(d[:, 2:6], -1.0, 1.0).reshape(-1, 2, 2)
    scale = _uniform(d[:, -3], 0.5, 2.0)[:, None, None]
    return QuadGeometry(verts @ _swap(scale * L) + _uniform(d[:, -2:], -3.0, 3.0)[:, None, :])


_DRAW_BLOCK = 8192  # uniform draws per block of the sample stream


def _uniform(u, low, high):
    """``Generator.uniform(low, high)`` from the draws ``u`` of ``Generator.random``."""
    return low + (high - low) * u


def _rotations(theta):
    """Rotation matrices (..., 2, 2) by the angles ``theta``."""
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)


# The residual helpers below take geometries and elements of any batch shape
# and return one residual per cell, with that batch shape. ``frames`` are the
# monomial frames (Vv, Ve) of the geometry, as ``elements._frames`` makes them
# and a built element keeps them.

def _edge_mean_identity_residual(geom: QuadGeometry, coeff: np.ndarray, frames) -> np.ndarray:
    """Cubic edge-mean identity: edge mean vs Simpson endpoint expression."""
    h = geom.h[..., None, None]
    Vv, Ve = frames
    vals_v = coeff @ Vv                                # (..., k, 4)
    gx, gy = (coeff @ DX.T) @ Vv, (coeff @ DY.T) @ Vv
    mean = (coeff @ Ve).reshape(vals_v.shape[:-1] + (4, len(_EDGE_W))) @ _EDGE_W
    # Tangential derivatives along edge i at its first and second vertex.
    t = geom.tangents[..., None, :, :]
    dt_start = (gx * t[..., 0] + gy * t[..., 1]) / h
    dt_end = (gx[..., _NEXT] * t[..., 0] + gy[..., _NEXT] * t[..., 1]) / h
    resid = (
        mean - 0.5 * (vals_v + vals_v[..., _NEXT])
        + geom.edge_len[..., None, :] / 12.0 * (dt_end - dt_start)
    )
    return np.abs(resid).max((-2, -1))


def _weighted_normal_identity_residual(geom: QuadGeometry, elt, frames) -> np.ndarray:
    """(1/|E|) int (v.n) xi ds = (v(V_{i+1}) - v(V_i)).n / 6 for basis fields,
    with xi the edge parameter, -1 at V_i and +1 at V_{i+1}."""
    Vv, Ve = frames
    vx, vy = elt.coeff_x @ Vv, elt.coeff_y @ Vv        # (..., k, 4)
    xi = np.tile(2.0 * _EDGE_T - 1.0, 4)
    lhs = _edge_means((elt.coeff_x @ Ve) * xi, (elt.coeff_y @ Ve) * xi, geom.normals)
    n = geom.normals[..., None, :, :]
    rhs = ((vx[..., _NEXT] - vx) * n[..., 0] + (vy[..., _NEXT] - vy) * n[..., 1]) / 6.0
    return np.abs(lhs - _swap(rhs)).max((-2, -1))


def _curl_dofs(geom: QuadGeometry, scalar_elt, vector_elt):
    """S (..., 12, 12): row j holds the vector DoFs of the rotated gradient
    of scalar basis function j, read on the vector element's frames."""
    C = scalar_elt.coeff_matrix
    return _swap(_vector_dof_rows(C @ DY.T, -(C @ DX.T), geom, *vector_elt.frames)[..., :12, :])


def _curl_inclusion_residual(S, scalar_elt, vector_elt):
    """Re-interpolating each rotated scalar gradient must reproduce it.

    ``S`` is ``_curl_dofs`` of the two elements. Returns, per cell, the max
    coefficient of the difference, the coefficient magnitude of the rotated
    gradients (at least one) and the largest total edge flux of a
    re-interpolated gradient. Strongly skewed cells carry large local
    coefficients and the identity holds to relative rounding there, so the
    element certificate divides the residual by the scale; the
    exact-sequence certificate, on unit-diameter cells, does not.
    """
    curl_x = scalar_elt.coeff_matrix @ DY.T
    curl_y = -(scalar_elt.coeff_matrix @ DX.T)
    rx = S @ vector_elt.coeff_x - curl_x
    ry = S @ vector_elt.coeff_y - curl_y
    flux = np.abs(S[..., :4].sum(-1)).max(-1)
    scale = np.maximum(1.0, np.maximum(np.abs(curl_x).max((-2, -1)),
                                       np.abs(curl_y).max((-2, -1))))
    resid = np.maximum(np.abs(rx).max((-2, -1)), np.abs(ry).max((-2, -1)))
    return resid, scale, flux


_FLUX = np.repeat([1.0, 0.0], [4, 8])  # the sum of each basis field's edge DoFs


def _div_flux_residual(geom: QuadGeometry, div_constants):
    """Divergence is flux: each basis field's constant divergence (the
    first part of ``VectorElement.divergence``) times the cell area is its
    outward flux, the sum of its edge DoFs (one for an edge field, zero for
    a vertex field). This makes the divergence matrix the signed edge
    incidence (``assembly.assemble_brinkman``). Returns the largest
    deviation per cell."""
    return np.abs(div_constants * geom.area[..., None] - _FLUX).max(-1)


def _reproduction_residuals(geom: QuadGeometry):
    """Quadratic (scalar) and linear (vector) reproduction through the DoFs,
    with the two elements built on ``geom`` (``_build_pair``). Values only:
    both elements are evaluated on one monomial table at 40 sample points."""
    b, h = geom.b[..., None, :], geom.h[..., None]

    def u(x, y):
        X, Y = (x - b[..., 0]) / h, (y - b[..., 1]) / h
        return 0.4 - 1.1 * X + 0.7 * Y + 0.9 * X * X - 1.3 * X * Y + 0.5 * Y * Y

    def gu(x, y):
        X, Y = (x - b[..., 0]) / h, (y - b[..., 1]) / h
        return np.stack([(-1.1 + 1.8 * X - 1.3 * Y) / h, (0.7 - 1.3 * X + 1.0 * Y) / h], -1)

    se, ve = _build_pair(geom)
    dofs = scalar_dof_values(geom, u, gu)
    rng = np.random.default_rng(11)
    ref = rng.uniform(-1, 1, (40, 2))
    pts = geom.map_reference(ref)
    V = _vt(geom.to_local(pts))  # as ``tabulate`` makes it, so the values match its bits
    vals = (_swap(se.coeff_matrix @ V) @ dofs[..., None])[..., 0]
    err_s = np.abs(vals - u(pts[..., 0], pts[..., 1])).max(-1)

    def v(x, y):
        X, Y = (x - b[..., 0]) / h, (y - b[..., 1]) / h
        return np.stack([0.3 + 0.8 * Y - 0.2 * X, -0.6 + 0.5 * X + 0.9 * Y], -1)

    vdofs = vector_dof_values(geom, v)
    vvals = np.stack([_swap(ve.coeff_x @ V), _swap(ve.coeff_y @ V)], axis=-1)
    err_v = np.abs(
        np.einsum("...qjc,...j->...qc", vvals, vdofs) - v(pts[..., 0], pts[..., 1])
    ).max((-2, -1))
    return err_s, err_v, se, ve


def _bubble_residuals(scalar_elt):
    """Vertex values and trace relation of the bubbles of the scalar span,
    on the element's frames."""
    geom = scalar_elt.geometry
    C = scalar_elt.span[..., 12:, :]  # the bubbles (``elements._span_chain``)
    Cx, Cy = C @ DX.T, C @ DY.T
    h = geom.h[..., None, None]
    Vv, Ve = scalar_elt.frames
    vals = np.maximum(np.abs(C @ Vv).max((-2, -1)),
                      np.maximum(np.abs(Cx @ Vv).max((-2, -1)) / geom.h,
                                 np.abs(Cy @ Vv).max((-2, -1)) / geom.h))

    # Tangential trace of the rotated gradient vs normal-derivative mean:
    # int curl b . t ds = -|E| * mean(db/dn) on each edge.
    gxe, gye = Cx @ Ve, Cy @ Ve
    length = geom.edge_len[..., :, None]
    curl_t = _edge_means(gye, -gxe, geom.tangents) / h * length
    dn_mean = _edge_means(gxe, gye, geom.normals) / h
    return vals, np.abs(curl_t + length * dn_mean).max((-2, -1))


@dataclass
class ElementCertificate:
    """The largest residual of each check over the cells, against its
    threshold. A check fails unless its residual is at most the threshold,
    so a NaN or inf residual fails; ``failing`` is that rule, and ``passed``
    and the Markdown status column read it."""

    family: str
    samples: int
    identity_samples: int
    seed: int
    residuals: dict = field(default_factory=dict)
    thresholds = THRESHOLDS  # not a field: every certificate has the same bounds

    @property
    def passed(self) -> bool:
        return not self.failing()

    def failing(self) -> list:
        return [k for k in self.residuals if not self.residuals[k] <= self.thresholds[k]]

    def to_json(self) -> str:
        return _strict_json({
            "family": self.family,
            "samples": self.samples,
            "identity_samples": self.identity_samples,
            "seed": self.seed,
            "residuals": self.residuals,
            "thresholds": self.thresholds,
            "passed": self.passed,
        }, nullable=("residuals",))

    def to_markdown(self) -> str:
        lines = [
            f"**element certificate** family={self.family} "
            f"samples={self.samples} (identities on {self.identity_samples}) seed={self.seed}",
            "",
            "| check | max residual | threshold | status |",
            "|---|---|---|---|",
        ]
        failing = self.failing()
        for k in sorted(self.residuals):
            ok = "FAIL" if k in failing else "pass"
            lines.append(f"| {k} | {self.residuals[k]:.3e} | {self.thresholds[k]:.1e} | {ok} |")
        lines.append("")
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def element_certificate(samples: int = 1000, seed: int = 1, family: str = "sweep",
                        identity_samples: int | None = None) -> ElementCertificate:
    """Run the full identity battery.

    The determinant oracles (affine invariant) run on all ``samples`` quads
    with skew up to 0.95 and unbounded affine distortion; the
    coefficient-space identity battery runs on ``identity_samples``
    shape-bounded quads (default: min(samples, 200), skew up to 0.8, aspect
    up to 2), where the 1e-10 tolerances are meaningful. Both counts must be
    integers of at least 1; ``ValueError`` names the one that is not.
    """
    samples = _integer(samples, "samples", 1)
    identity_samples = min(samples, 200) if identity_samples is None else identity_samples
    identity_samples = _integer(identity_samples, "identity_samples", 1)
    if family == "sweep":
        quads = random_convex_quads(samples, seed)
        cells = random_convex_quads(identity_samples, seed + 1, max_skew=0.8, max_aspect=2.0)
    elif family in FAMILIES:
        # Both sets cycle through the cells of one 4 x 4 mesh in order.
        mesh = make_mesh(4, family, seed=seed)
        quads, cells = (mesh.cell_geometry[np.arange(k) % mesh.n_cells]
                        for k in (samples, identity_samples))
    else:
        raise ValueError(f"unknown family {family!r}")

    def dets(_, shapes, __):
        q = quads[shapes]
        num = np.stack(numeric_dets(q), axis=-1)
        orc = np.stack(det_oracles(q.s[:, 0], q.s[:, 1]), axis=-1)
        return {"det_rel_err": np.abs((num - orc) / orc)}

    # The distinct cells of a task are quads[shapes] (cells[shapes]).
    res = _max_over_tasks(quads, dets)
    res.update(_max_over_tasks(cells, lambda _, shapes, __: _identity_residuals(cells[shapes])))
    return ElementCertificate(
        family=family, samples=len(quads), identity_samples=identity_samples,
        seed=seed, residuals={k: float(res[k]) for k in THRESHOLDS},
    )


def _identity_residuals(cells: QuadGeometry) -> dict:
    """The identity battery on ``cells``: one residual per cell and check."""
    err_s, err_v, se, ve = _reproduction_residuals(cells)
    incl, scale, flux = _curl_inclusion_residual(_curl_dofs(cells, se, ve), se, ve)
    bv, btr = _bubble_residuals(se)
    s_duality, s_constraint = se.dof_residuals()
    v_duality, v_constraint = ve.dof_residuals()
    div_constants, div_residual = ve.divergence()
    return {
        "p2_reproduction": err_s,
        "p1_vector_reproduction": err_v,
        "scalar_duality": s_duality,
        "scalar_constraint": s_constraint,
        "vector_duality": v_duality,
        "vector_constraint": v_constraint,
        "div_in_p0": div_residual,
        "edge_mean_identity": _edge_mean_identity_residual(cells, se.coeff_matrix, se.frames),
        "aggregation_crosscheck":
            np.abs(se.aggregation() - aggregation_coeffs_formula(cells, se)),
        "weighted_normal_identity": _weighted_normal_identity_residual(cells, ve, ve.frames),
        "curl_inclusion": incl / scale,
        "curl_flux_sum": flux,
        "div_is_flux": _div_flux_residual(cells, div_constants),
        "bubble_vertex_values": bv,
        "bubble_trace_relation": btr,
    }


def _max_over_tasks(unit: QuadGeometry, residuals) -> dict:
    """The largest residual of each check over the cells of ``unit``:
    ``residuals(cells, shapes, inv)`` gives the per-cell residuals of one
    element task of ``unit`` (``assembly._chunk_tasks``), and the tasks run
    in order on the caller thread, so only one task's temporaries are live
    at a time."""
    res = {}
    for task in _chunk_tasks(unit):
        _fold_max(res, residuals(*task))
    return res


def _fold_max(res: dict, per_cell: dict):
    """Fold the largest residual of each check on one task into ``res``.
    Every residual is a maximum over cells, so the maximum over tasks is
    exact, and ``np.maximum`` keeps a NaN, as the maximum over all cells
    would."""
    for k, v in per_cell.items():
        res[k] = np.maximum(res[k], v.max()) if k in res else v.max()
