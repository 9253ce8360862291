"""The two 12-DoF nodal elements on a convex quadrilateral.

Scalar element: degrees of freedom are the value and both gradient components
at the four vertices. The shape space is cubics plus two quintic correctors
(which restore the Simpson edge-mean identity on non-parallelogram cells),
enriched by four interior bubbles and cut back down to dimension 12 by
forcing each edge mean of the normal derivative to equal the average of its
endpoint values.

Vector element: degrees of freedom are the four edge integrals of the normal
component plus both velocity components at the four vertices. The shape space
is built from linear vectors and rotated gradients of the scalar span, with
the analogous tangential edge-mean constraint.

Both nodal bases are computed by a direct solve of the local 16x16
generalized Vandermonde system (12 DoF rows + 4 constraint rows); the
explicit bubble-aggregation formula is available separately as an
independent cross-check. Closed-form determinants of three auxiliary
unisolvency matrices serve as oracles for the construction.

The DoF rows are read off the monomial frames of the cell: the monomial
matrices at its vertices and at the Gauss points of its edges. Elements are
plain values: the constructor sets every attribute, and nothing is filled
in later. A built element keeps the frames its build evaluated
(``frames``), and every check on it (duality, constraints, aggregation)
reads them there; an element re-formed by ``from_solution`` has none. The
diagnostics are methods that store nothing: each call computes its
result afresh. Building both elements on one geometry shares one stream span and
one pair of frames between the two builds (``_build_pair``).

Every function works on a ``QuadGeometry`` of any batch shape: one cell,
or all cells of a mesh at once, in which case the packed spans, the 16x16
systems, their condition numbers and solves are stacked along the leading
cell axis. The span products are stacked too, one ``mul_affine`` per level
of the chains (``_span_chain``).

A build rejects a cell whose 16x16 system has a 2-norm condition number
kappa_2 above COND_LIMIT. It clears most cells by their Frobenius condition
number kappa_F, an upper bound on kappa_2 that it reads off the solves it
makes anyway; the SVD of ``np.linalg.cond`` runs only on the cells kappa_F
cannot clear by a fixed margin (``_solve_nodal``). So an element's
``condition`` holds kappa_F, not kappa_2.
"""

from __future__ import annotations

import numpy as np

from .geometry import QuadGeometry, NonConvexCellError, _check, _pow2
from .poly import DX, DY, MONOMIALS, affine_row, mul_affine, vandermonde
from .quadrature import gauss01

__all__ = [
    "ScalarElement",
    "VectorElement",
    "build_scalar_element",
    "build_vector_element",
    "det_oracles",
    "numeric_unisolvency_matrices",
    "numeric_dets",
    "aggregation_coeffs_formula",
    "scalar_dof_values",
    "vector_dof_values",
    "ElementConditioningError",
]

_EDGE_T, _EDGE_W = gauss01(5)
COND_LIMIT = 1e12
_NEXT = np.array([1, 2, 3, 0])  # the second vertex of each edge


class ElementConditioningError(RuntimeError):
    """Local DoF system too ill-conditioned; the cell is nearly degenerate."""


def _swap(a):
    return np.swapaxes(a, -1, -2)


def _vt(points):
    """Transposed monomial matrix (..., 28, npts) at local points."""
    return _swap(vandermonde(points))


# ---------------------------------------------------------------------------
# shape-space spans
# ---------------------------------------------------------------------------

# Span polynomials are chains of affine factors (..., 3) = (c0, cx, cy),
# multiplied out on packed rows (..., 28); their degrees stay <= 6, the
# degree of the monomial table, so no product loses a term.

_CUBICS = np.eye(len(MONOMIALS))[:10]              # 1, x, y, x^2, ..., y^3
_LINEAR_FIELDS = np.zeros((2, 6, len(MONOMIALS)))  # (1,0), (0,1), (x,0), (0,x), (y,0), (0,y)
_LINEAR_FIELDS[[0, 1, 0, 1, 0, 1], range(6), [0, 0, 1, 1, 2, 2]] = 1.0


def _batched(constant_rows, geom):
    return np.broadcast_to(constant_rows, geom.h.shape + constant_rows.shape)


# The line forms of a cell by index into ``_forms``: the four edge lines,
# the midlines m13 and m24, the diagonals d13 and d24.
_L1, _L2, _L3, _L4, _M13, _M24, _D13, _D24 = range(8)


def _forms(geom: QuadGeometry):
    """(..., 8, 3): the line forms of the cells, in the order of the indices above."""
    return np.concatenate([geom.edge_line_coeffs, np.stack(
        [geom.mid_13_coeffs, geom.mid_24_coeffs, geom.diag_13_coeffs, geom.diag_24_coeffs],
        axis=-2)], axis=-2)


def _times(rows, which, forms, factors):
    """Row ``which[j]`` of the packed rows (..., k, 28) times form ``factors[j]``
    of ``forms``, for every j: one ``mul_affine`` on stacked operands."""
    return mul_affine(rows[..., which, :], forms[..., factors, :])


def _span_chain(geom: QuadGeometry):
    """(b, c, bubbles): b (..., 2, 28) holds b13 = l1*l3 and b24 = l2*l4,
    c (..., 2, 28) the two quintic correctors c1, c2 and bubbles (..., 4, 28)
    b0 * {1, m13, m24, d13*d24} with b0 = l1*l2*l3*l4.

    The products are formed level by level, each level one ``mul_affine``
    on stacked operands. Every entry is the product of the same operands in
    the same order as a chain of one-row products, ((l1*l2)*l3)*l4 for b0,
    say, and ``mul_affine`` works entry by entry, so the stacking changes no
    bit; b24*m13 is formed once and serves q24 and c2.
    """
    F = _forms(geom)
    s1, s2 = geom.s[..., 0, None], geom.s[..., 1, None]
    # b13, b24, l1*l2
    b = mul_affine(affine_row(F[..., [_L1, _L2, _L1], :]), F[..., [_L3, _L4, _L2], :])
    # b13*m24, b13*m13, b24*m13, l1*l2*l3
    t = _times(b, [0, 0, 1, 2], F, [_M24, _M13, _M13, _L3])
    # q13 = b13*m24*m24, b13*m13*m24, q24 = b24*m13*m13, b24*m13*m24, b0
    u = _times(t, [0, 1, 2, 2, 3], F, [_M24, _M24, _M13, _M24, _L4])
    # q13*m13, q24*m24, b0*m13, b0*m24, b0*d13
    v = _times(u, [0, 2, 4, 4, 4], F, [_M13, _M24, _M13, _M24, _D13])
    c1 = (s2 - 1.0) * (s2 + 1.0) * u[..., 1, :] - s1 * s2 * u[..., 0, :] + s1 * v[..., 0, :]
    c2 = (s1 - 1.0) * (s1 + 1.0) * u[..., 3, :] - s1 * s2 * u[..., 2, :] + s2 * v[..., 1, :]
    bubbles = np.stack([u[..., 4, :], v[..., 2, :], v[..., 3, :],
                        _times(v, [4], F, [_D24])[..., 0, :]], axis=-2)
    return b[..., :2, :], np.stack([c1, c2], axis=-2), bubbles


def _stream_span(geom: QuadGeometry):
    """(..., 16, 28): cubic monomials, the two correctors, the four bubbles."""
    # The span is allocated before its parts, so their temporaries are freed
    # above it. With the element work in 64-cell tasks a span allocated after
    # them (np.concatenate) peaks no higher: the random-mesh scalar study to
    # n = 64 read 134.5 against 135.5 MB (medians of five runs).
    C = np.empty(geom.h.shape + (16, len(MONOMIALS)))
    C[..., :10, :] = _CUBICS
    _, C[..., 10:12, :], C[..., 12:, :] = _span_chain(geom)
    return C


def _vector_span(geom: QuadGeometry, stream):
    """x- and y-components (..., 16, 28) of the vector span fields: linear
    vectors, then rotated gradients of the cubic monomials, the correctors
    and the bubbles. ``stream`` is ``_stream_span(geom)``."""
    stream = stream[..., 6:, :]
    lin = _batched(_LINEAR_FIELDS, geom)
    cx = np.concatenate([lin[..., 0, :, :], stream @ DY.T], axis=-2)
    cy = np.concatenate([lin[..., 1, :, :], -(stream @ DX.T)], axis=-2)
    return cx, cy


# ---------------------------------------------------------------------------
# packed functional evaluation
# ---------------------------------------------------------------------------
# Packed polynomial sets are (..., k, 28) coefficient matrices; Vv and Ve are
# transposed monomial matrices at the local vertices and at the stacked edge
# Gauss points (5 per edge, edge by edge).

def _all_edge_local_points(geom: QuadGeometry):
    """Gauss points of all four edges stacked, (..., 4 * npts, 2), in the local frame."""
    return geom.to_local(
        np.concatenate([geom.edge_points(i, _EDGE_T) for i in range(4)], axis=-2)
    )


def _frames(geom: QuadGeometry):
    """(Vv, Ve): the monomial frames of the cells, (..., 28, 4) and (..., 28, 20)."""
    return _vt(geom.local_vertices), _vt(_all_edge_local_points(geom))


def _edge_means(fx, fy, directions):
    """(..., 4, k) edge means of (fx, fy) . directions[i] from values (..., k, 4 * npts)
    at the stacked edge Gauss points; ``directions`` is (..., 4, 2)."""
    shape = fx.shape[:-1] + (4, len(_EDGE_T))
    d = directions[..., None, :, None, :]
    comp = fx.reshape(shape) * d[..., 0] + fy.reshape(shape) * d[..., 1]
    return _swap(comp @ _EDGE_W)


def _scalar_dof_rows(C, geom: QuadGeometry, Vv, Ve):
    """12 DoF rows + 4 normal-derivative constraint rows (..., 16, k) for
    packed polynomials: values, then d/dx and d/dy at the vertices, then
    each edge mean of the normal derivative minus its endpoint average."""
    h = geom.h[..., None, None]
    Cx, Cy = C @ DX.T, C @ DY.T
    vx, vy = Cx @ Vv, Cy @ Vv                          # (..., k, 4)
    n = geom.normals[..., None, :, :]
    at_start = (vx * n[..., 0] + vy * n[..., 1]) / h
    at_end = (vx[..., _NEXT] * n[..., 0] + vy[..., _NEXT] * n[..., 1]) / h
    D = np.empty(vx.shape[:-2] + (16, vx.shape[-2]))
    D[..., 0:4, :] = _swap(C @ Vv)
    D[..., 4:8, :] = _swap(vx) / h
    D[..., 8:12, :] = _swap(vy) / h
    D[..., 12:16, :] = (_edge_means(Cx @ Ve, Cy @ Ve, geom.normals) / h
                        - _swap(0.5 * (at_start + at_end)))
    return D


def _dof_residuals(D):
    """Largest duality defect and constraint residual per cell of the DoF
    rows (..., 16, 12) of a nodal basis."""
    return np.abs(D[..., :12, :] - np.eye(12)).max((-2, -1)), np.abs(D[..., 12:, :]).max((-2, -1))


# A cell whose kappa_F sits below COND_LIMIT / _COND_MARGIN is accepted
# without an SVD. kappa_F bounds kappa_2 from above in exact arithmetic. The
# LU solves are backward stable, so the computed inverse, and with it
# kappa_F, is off by a relative c * u * kappa_2 <= 1e-4 or so where kappa_2
# <= COND_LIMIT / _COND_MARGIN, and the SVD's smallest singular value by as
# little: a margin of 16 leaves np.linalg.cond far below the limit on every
# cell it clears. (On a 16x16 matrix kappa_F <= 16 kappa_2, so the margin
# sends to the SVD only cells with kappa_2 above COND_LIMIT / 256.)
_COND_MARGIN = 16.0


def _solve_nodal(D: np.ndarray, n_basis: int, index):
    """Span weights (..., 16, n_basis) of the nodal basis, and kappa_F(D).

    COND_LIMIT is a bound on kappa_2(D), which ``np.linalg.cond`` computes
    by an SVD. That SVD runs only on the cells whose Frobenius condition
    number kappa_F = |D|_F |D^-1|_F >= kappa_2 (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 6) cannot clear the limit by
    _COND_MARGIN, or on every cell if a solve finds D singular; it rejects
    the same cells as an SVD of all of them, naming the first and its
    kappa_2. A D holding a NaN or an infinity is never cleared, and the SVD
    cannot run on it, so the first such cell among those sent to it is
    named before the SVD runs. D^-1 is the first, unrefined solve together
    with a solve for the remaining identity columns: a solve for all
    columns at once would give other last bits in the first ones.
    """
    rhs = np.zeros((D.shape[-1], n_basis))
    rhs[:n_basis, :] = np.eye(n_basis)
    try:
        X = np.linalg.solve(D, rhs)
        rest = np.linalg.solve(D, np.eye(D.shape[-1])[:, n_basis:])
        inv_sq = (X * X).sum((-2, -1)) + (rest * rest).sum((-2, -1))
        kappa = np.sqrt((D * D).sum((-2, -1)) * inv_sq)
        doubt = ~(kappa <= COND_LIMIT / _COND_MARGIN)
    except np.linalg.LinAlgError:
        X, kappa, doubt = None, None, np.ones(D.shape[:-2], bool)
    if doubt.any():
        suspect = D
        if D.ndim > 2:
            suspect, index = D[doubt], np.asarray(index)[doubt]
        _check(~np.isfinite(suspect).all((-2, -1)), ElementConditioningError,
               "local DoF matrix is not finite", index=index)
        cond = np.linalg.cond(suspect)
        _check(~np.isfinite(cond) | (cond > COND_LIMIT), ElementConditioningError,
               f"local DoF matrix condition number exceeds {COND_LIMIT:.0e}", cond, index)
    if X is None:  # singular to the LU but not to the SVD: raise as the solve does
        X = np.linalg.solve(D, rhs)
    for _ in range(2):  # iterative refinement
        X += np.linalg.solve(D, rhs - D @ X)
    return X, kappa


# ---------------------------------------------------------------------------
# scalar element
# ---------------------------------------------------------------------------

class ScalarElement:
    """Nodal basis of the 12-DoF scalar element on one cell or a batch of cells.

    DoF ordering: values at V1..V4, then d/dx at V1..V4, then d/dy at V1..V4
    (physical derivatives). Basis polynomials take cell-local coordinates
    (x - b) / h; ``coeff_matrix`` (..., 12, 28) holds them packed over the
    monomial table. A build also keeps the monomial frames it formed the
    DoF rows on (``frames``), those rows (``dof_matrix``) and their
    Frobenius condition numbers kappa_F (``condition``), an upper bound on
    the kappa_2 that COND_LIMIT bounds: the SVD behind kappa_2 runs only on
    the cells whose kappa_F cannot clear the limit. The diagnostics (``dof_residuals``,
    ``aggregation``, ``aux_matrix``) are computed on each call, read
    ``frames`` or ``dof_matrix`` and carry the geometry's batch shape.
    """

    def __init__(self, geom, span, solution, frames, dof_matrix, condition):
        self.geometry = geom
        self.span = span                  # (..., 16, 28): cubics, correctors, bubbles
        self.solution = solution          # (..., 16, 12): span weights of the basis
        self.frames = frames              # (Vv, Ve) of ``_frames``
        self.dof_matrix = dof_matrix      # (..., 16, 16): DoF and constraint rows
        self.condition = condition
        self.coeff_matrix = _swap(solution) @ span

    @classmethod
    def from_solution(cls, geom, solution):
        """The element on ``geom`` whose basis has the span weights
        ``solution`` of a build on ``geom``, without its 16x16 solve: the
        span is recomputed and the coefficients formed as the build forms
        them, so they equal the built ones bit for bit. Its ``frames``,
        ``dof_matrix`` and ``condition`` are None, since only the build
        computes them, so it serves tabulation, not the diagnostics."""
        return cls(geom, _stream_span(geom), solution, None, None, None)

    def aux_matrix(self):
        """(..., 12, 28) auxiliary nodal basis: the bubble-free block solve."""
        X_aux = np.linalg.solve(self.dof_matrix[..., :12, :12], np.eye(12))
        return _swap(X_aux) @ self.span[..., :12, :]

    def aggregation(self):
        """(..., 4, 12) bubble weights of each nodal basis function: the
        edge means of the bubbles' normal derivatives times their weights."""
        bubbles, Ve = self.span[..., 12:, :], self.frames[1]
        means = _edge_means((bubbles @ DX.T) @ Ve, (bubbles @ DY.T) @ Ve,
                            self.geometry.normals) / self.geometry.h[..., None, None]
        return means @ self.solution[..., 12:, :]

    def dof_residuals(self):
        """Largest duality defect and edge-mean constraint residual per cell;
        the constraint residual is frame-relative (scaled by h)."""
        duality, constraint = _dof_residuals(
            _scalar_dof_rows(self.coeff_matrix, self.geometry, *self.frames))
        return duality, constraint * self.geometry.h

    def tabulate(self, points):
        """Values (..., npts, 12), gradients (..., npts, 12, 2) and Hessians
        (..., npts, 12, 2, 2) at physical points (..., npts, 2)."""
        return _scalar_tables(self.geometry, self.coeff_matrix, points)

    def field_tables(self, dofs, points, inv=...):
        """Values (..., npts), gradients and Hessians of the fields with DoF
        vectors ``dofs`` (..., 12), without tabulating each basis function.

        ``points`` lie on the element's cells. With ``inv`` (an index into
        the batch axis), field k lives on cell ``inv[k]`` of a batch element:
        the monomials are evaluated once per cell of the element and
        gathered to the fields. The default ``...`` takes each cell's own.
        """
        C = np.einsum("...j,...jm->...m", dofs, self.coeff_matrix[inv])[..., None, :]
        val, grad, hess = _scalar_tables(self.geometry, C, points, inv)
        return val[..., 0], grad[..., 0, :], hess[..., 0, :, :]


def _local_monomials(geom, points, inv):
    """Transposed monomial matrix at the points and the cell diameters, both
    gathered by ``inv`` (the gather keeps the matrix's memory layout, and
    ``...`` gathers views of both)."""
    return _vt(geom.to_local(points))[inv], geom.h[inv]


def _table(like, components):
    """An empty (..., q, k, *components) table for the (..., q, k) table
    ``like``, laid out in memory as (..., k, q, *components): the layout
    ``np.stack`` gives swapped (..., k, q) products, and so the strides the
    Gram ``einsum`` reads. A C-contiguous table holds the same values but
    changes that einsum's summation order and the last bits of the local
    matrices."""
    *lead, q, k = like.shape
    return np.swapaxes(np.empty((*lead, k, q) + components), len(lead), len(lead) + 1)


def _scalar_tables(geom, C, points, inv=...):
    V, h = _local_monomials(geom, points, inv)
    h = h[..., None, None, None]
    Cx, Cy = C @ DX.T, C @ DY.T
    val = _swap(C @ V)
    grad, hess = _table(val, (2,)), _table(val, (2, 2))
    grad[..., 0], grad[..., 1] = _swap(Cx @ V), _swap(Cy @ V)
    grad /= h
    hess[..., 0, 0] = _swap((Cx @ DX.T) @ V)
    hess[..., 0, 1] = hess[..., 1, 0] = _swap((Cx @ DY.T) @ V)
    hess[..., 1, 1] = _swap((Cy @ DY.T) @ V)
    hess /= _pow2(h[..., None])
    return val, grad, hess


def build_scalar_element(geom: QuadGeometry) -> ScalarElement:
    return _build_scalar(geom, _stream_span(geom), _frames(geom))


def _build_scalar(geom, stream, frames):
    """The scalar element on the stream span (..., 16, 28) and ``frames``
    of ``geom``; it keeps the frames."""
    D = _scalar_dof_rows(stream, geom, *frames)
    X, cond = _solve_nodal(D, 12, geom.index)
    return ScalarElement(geom, stream, X, frames, D, cond)


# ---------------------------------------------------------------------------
# vector element
# ---------------------------------------------------------------------------

class VectorElement:
    """Nodal basis of the 12-DoF vector element on one cell or a batch of cells.

    DoF ordering: integrals of v . n over E1..E4 (outward normals), then
    x-components at V1..V4, then y-components at V1..V4. ``coeff_x`` and
    ``coeff_y`` (..., 12, 28) pack the two components over the monomial
    table in cell-local coordinates, formed from the x- and y-components
    of the span and its weights ``solution`` (..., 16, 12); every basis
    field has constant divergence (``divergence``). ``frames`` and
    ``condition`` (kappa_F, an upper bound on kappa_2; the SVD runs only
    where kappa_F cannot clear COND_LIMIT) are as for ``ScalarElement``,
    and so are the diagnostics
    (``dof_residuals``, ``divergence``), computed on each call.
    """

    def __init__(self, geom, span, solution, frames, condition):
        self.geometry = geom
        self.solution = solution
        self.frames = frames
        self.condition = condition
        self.coeff_x, self.coeff_y = (_swap(solution) @ C for C in span)

    @classmethod
    def from_solution(cls, geom, solution):
        """The element re-formed from the span weights of a build on
        ``geom``, bit for bit, as ``ScalarElement.from_solution``."""
        return cls(geom, _vector_span(geom, _stream_span(geom)), solution, None, None)

    def divergence(self):
        """The constant divergence of each basis field (..., 12) and the
        largest non-constant divergence coefficient per cell, both at the
        physical scale."""
        rows = self.coeff_x @ DX.T + self.coeff_y @ DY.T
        h = self.geometry.h
        return rows[..., 0] / h[..., None], np.abs(rows[..., 1:]).max((-2, -1)) / h

    def dof_residuals(self):
        """Largest duality defect and tangential constraint residual per cell."""
        return _dof_residuals(
            _vector_dof_rows(self.coeff_x, self.coeff_y, self.geometry, *self.frames))

    def tabulate(self, points):
        """Values (..., npts, 12, 2) and gradients (..., npts, 12, 2, 2) at
        physical points; gradient [..., c, d] = d v_c / d x_d."""
        return _vector_tables(self.geometry, self.coeff_x, self.coeff_y, points)

    def field_tables(self, dofs, points, inv=...):
        """Values (..., npts, 2) and gradients (..., npts, 2, 2) of the fields
        with DoF vectors ``dofs`` (..., 12), without tabulating each basis
        field; ``points`` and ``inv`` as in ``ScalarElement.field_tables``."""
        Cx, Cy = (np.einsum("...j,...jm->...m", dofs, C[inv])[..., None, :]
                  for C in (self.coeff_x, self.coeff_y))
        val, grad = _vector_tables(self.geometry, Cx, Cy, points, inv)
        return val[..., 0, :], grad[..., 0, :, :]


def _vector_tables(geom, Cx, Cy, points, inv=...):
    V, h = _local_monomials(geom, points, inv)
    vx = _swap(Cx @ V)
    val, grad = _table(vx, (2,)), _table(vx, (2, 2))
    val[..., 0], val[..., 1] = vx, _swap(Cy @ V)
    for c, C in enumerate((Cx, Cy)):
        grad[..., c, 0] = _swap((C @ DX.T) @ V)
        grad[..., c, 1] = _swap((C @ DY.T) @ V)
    grad /= h[..., None, None, None, None]
    return val, grad


def _vector_dof_rows(Cx, Cy, geom: QuadGeometry, Vv, Ve):
    """12 DoF rows + 4 tangential constraint rows (..., 16, k) for packed vector fields."""
    vx, vy = Cx @ Vv, Cy @ Vv                          # (..., k, 4)
    ex, ey = Cx @ Ve, Cy @ Ve
    t = geom.tangents[..., None, :, :]
    at_ends = 0.5 * (
        vx * t[..., 0] + vy * t[..., 1]
        + vx[..., _NEXT] * t[..., 0] + vy[..., _NEXT] * t[..., 1]
    )
    D = np.empty(vx.shape[:-2] + (16, vx.shape[-2]))
    D[..., 0:4, :] = geom.edge_len[..., :, None] * _edge_means(ex, ey, geom.normals)
    D[..., 4:8, :] = _swap(vx)
    D[..., 8:12, :] = _swap(vy)
    D[..., 12:16, :] = _edge_means(ex, ey, geom.tangents) - _swap(at_ends)
    return D


def build_vector_element(geom: QuadGeometry) -> VectorElement:
    return _build_vector(geom, _stream_span(geom), _frames(geom))


def _build_vector(geom, stream, frames):
    """The vector element on the rotated gradients of the stream span and
    ``frames`` of ``geom``; it keeps the frames."""
    span = _vector_span(geom, stream)
    X, cond = _solve_nodal(_vector_dof_rows(*span, geom, *frames), 12, geom.index)
    return VectorElement(geom, span, X, frames, cond)


def _build_pair(geom: QuadGeometry):
    """Both elements on ``geom``, as ``build_scalar_element`` and
    ``build_vector_element`` build them, from one stream span and one pair
    of frames."""
    stream, frames = _stream_span(geom), _frames(geom)
    return _build_scalar(geom, stream, frames), _build_vector(geom, stream, frames)


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------

def scalar_dof_values(geom: QuadGeometry, u, grad_u) -> np.ndarray:
    """DoF vectors (..., 12) of a smooth function: values then both gradient components.

    u and grad_u are vectorized callables of (x, y) returning shapes (...,)
    and (..., 2).
    """
    v = geom.vertices
    vals = np.asarray(u(v[..., 0], v[..., 1]), dtype=float)
    grads = np.asarray(grad_u(v[..., 0], v[..., 1]), dtype=float)
    return np.concatenate([vals, grads[..., 0], grads[..., 1]], axis=-1)


def vector_dof_values(geom: QuadGeometry, v) -> np.ndarray:
    """DoF vectors (..., 12) of a smooth field: edge normal integrals then vertex components.

    v is a vectorized callable of (x, y) returning (..., 2), called once on
    the edge Gauss points and vertices of all cells. Edge integrals use the
    5-point edge rule of the element functionals.
    """
    m = 4 * len(_EDGE_T)
    pts = np.concatenate(
        [geom.edge_points(i, _EDGE_T) for i in range(4)] + [geom.vertices], axis=-2
    )
    vals = np.asarray(v(pts[..., 0], pts[..., 1]), dtype=float)
    edge = vals[..., :m, :].reshape(vals.shape[:-2] + (4, len(_EDGE_T), 2))
    normal = (edge * geom.normals[..., :, None, :]).sum(-1)
    at_verts = vals[..., m:, :]
    return np.concatenate(
        [geom.edge_len * (normal @ _EDGE_W), at_verts[..., 0], at_verts[..., 1]], axis=-1
    )


def aggregation_coeffs_formula(geom: QuadGeometry, element: ScalarElement) -> np.ndarray:
    """Bubble weights from the explicit endpoint-average formula.

    Independent of the direct 16x16 solve: computed by edge quadrature of the
    auxiliary basis' normal derivatives on the element's frames. Cross-check
    against ``element.aggregation()``.
    """
    return -_scalar_dof_rows(element.aux_matrix(), geom, *element.frames)[..., 12:, :]


# ---------------------------------------------------------------------------
# unisolvency determinant oracles
# ---------------------------------------------------------------------------

def det_oracles(s1, s2):
    """Closed-form determinants (det M, det N, det B-) of the three
    auxiliary unisolvency matrices, as functions of the cell shape vector.

    ``s1`` and ``s2`` are floats or arrays of one batch shape; a shape
    outside the convexity diamond raises ``NonConvexCellError``, naming the
    first such entry of a batch."""
    _check(np.abs(s1) + np.abs(s2) >= 1.0, NonConvexCellError,
           "shape parameters outside the convexity diamond")
    # Powers go through libm pow, as for a Python or numpy float, so a batch
    # gives the bits of one-cell calls (numpy's array ** differs in the last bit).
    pw = np.float_power
    f1 = (s1 + s2 - 1) * (s1 - s2 - 1) / ((s2 - 1) * (s2 + 1))
    f2 = (s1 - s2 + 1) * (s1 + s2 + 1) / ((s2 - 1) * (s2 + 1))
    f3 = (s1 + s2 + 1) * (s1 - s2 - 1) / ((s1 - 1) * (s1 + 1))
    f4 = (s1 - s2 + 1) * (s1 + s2 - 1) / ((s1 - 1) * (s1 + 1))
    det_m = 4 * pw(f3, 2) * pw(f4, 2) * (s1 - s2 - 1) * (pw(s1, 2) + pw(s2, 2) - 1)
    det_n = 4 * pw(f1, 2) * pw(f2, 2) * (s1 + s2 - 1) * (pw(s1, 2) + pw(s2, 2) - 1)
    numer = (
        (pw(s1, 6) + pw(s2, 6)) - pw(s1, 2) * pw(s2, 2) * (pw(s1, 2) + pw(s2, 2))
        + 9 * (pw(s1, 4) + pw(s2, 4)) - 26 * pw(s1, 2) * pw(s2, 2)
        + 15 * (pw(s1, 2) + pw(s2, 2)) - 25
    )
    denom = (
        20250.0 * (s1 - 1) * (s1 + 1) * (s2 - 1) * (s2 + 1)
        * (s1 + s2 + 1) * (s1 - s2 + 1)
    )
    det_b = f1 * f2 * f3 * f4 * numer / denom
    return det_m, det_n, det_b


# Tangential-derivative functionals: (edge index, vertex index), zero-based.
_LAMBDA_NODES = [(1, 1), (1, 2), (3, 3), (3, 0)]
_MU_NODES = [(0, 0), (0, 1), (2, 2), (2, 3)]
# Row i: the edge lines other than l_i, in order.
_OTHER_LINES = np.array([[m for m in range(4) if m != i] for i in range(4)])


def _unisolvency_rows(geom: QuadGeometry):
    """Packed polynomials (..., 4, 28) whose tangential derivatives make M
    and N, and (..., 4, 4, 28) whose edge means along edge i make row i of B-.
    The products are stacked level by level, as in ``_span_chain``."""
    F = _forms(geom)
    b, c, _ = _span_chain(geom)
    # b13 * {l4, l2, d13}, b24 * {l1, l3, d24}
    pq = _times(b, [0, 0, 0, 1, 1, 1], F, [_L4, _L2, _D13, _L1, _L3, _D24])
    P = np.concatenate([pq[..., :3, :], c[..., :1, :]], axis=-2)
    Q = np.concatenate([pq[..., 3:, :], c[..., 1:, :]], axis=-2)

    # Row i: 1 times the three edge lines other than l_i, in order.
    others = _batched(affine_row([[1.0, 0.0, 0.0]] * 4), geom)
    for level in range(3):
        others = mul_affine(others, F[..., _OTHER_LINES[:, level], :])
    # others * {m13, m24, d13}, then (others * d13) * d24
    e = _times(others, [0, 1, 2, 3] * 3, F, [_M13] * 4 + [_M24] * 4 + [_D13] * 4)
    dd = _times(e, [8, 9, 10, 11], F, [_D24] * 4)
    return P, Q, np.stack([others, e[..., :4, :], e[..., 4:8, :], dd], axis=-2)


def numeric_unisolvency_matrices(geom: QuadGeometry):
    """Brute-force assembly of the M, N, B- matrices (..., 4, 4)."""
    P, Q, B = _unisolvency_rows(geom)
    Vv, Ve = _frames(geom)

    def tangential(C, nodes):
        gx, gy = (C @ DX.T) @ Vv, (C @ DY.T) @ Vv
        rows = []
        for edge, vert in nodes:
            t0, t1 = geom.tangents[..., edge, 0, None], geom.tangents[..., edge, 1, None]
            rows.append(geom.edge_len[..., edge, None]
                        * (gx[..., vert] * t0 + gy[..., vert] * t1) / geom.h[..., None])
        return np.stack(rows, axis=-2)

    npts = len(_EDGE_T)
    Bm = [(B[..., i, :, :] @ Ve[..., npts * i:npts * (i + 1)]) @ _EDGE_W for i in range(4)]
    return tangential(P, _LAMBDA_NODES), tangential(Q, _MU_NODES), np.stack(Bm, axis=-2)


def numeric_dets(geom: QuadGeometry):
    M, N, Bm = numeric_unisolvency_matrices(geom)
    return np.linalg.det(M), np.linalg.det(N), np.linalg.det(Bm)
