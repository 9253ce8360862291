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
matrices at its vertices and at the Gauss points of its edges. A built
element keeps the frames its build evaluated (``frames``), and every check
on it (duality, constraints, aggregation) reads them there; an element
re-formed by ``from_solution`` evaluates them only when a check asks.
Building both elements on one geometry shares one stream span and one pair
of frames between the two builds (``_build_pair``).

Every function works on a ``QuadGeometry`` of any batch shape: one cell,
or all cells of a mesh at once, in which case the packed spans, the 16x16
systems, their condition numbers and solves are stacked along the leading
cell axis.
"""

from __future__ import annotations

from functools import cached_property

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


def _corrector_span(geom: QuadGeometry):
    """(..., 2, 28): the two quintic correctors c1, c2."""
    l1, l2, l3, l4 = (geom.edge_line_coeffs[..., k, :] for k in range(4))
    m13, m24 = geom.mid_13_coeffs, geom.mid_24_coeffs
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


def _bubble_span(geom: QuadGeometry):
    """(..., 4, 28): b0 * {1, m13, m24, d13*d24} with b0 = l1*l2*l3*l4."""
    lines = geom.edge_line_coeffs
    b0 = affine_row(lines[..., 0, :])
    for k in range(1, 4):
        b0 = mul_affine(b0, lines[..., k, :])
    return np.stack([
        b0,
        mul_affine(b0, geom.mid_13_coeffs),
        mul_affine(b0, geom.mid_24_coeffs),
        mul_affine(mul_affine(b0, geom.diag_13_coeffs), geom.diag_24_coeffs),
    ], axis=-2)


def _stream_span(geom: QuadGeometry):
    """(..., 16, 28): cubic monomials, the two correctors, the four bubbles."""
    # The span is allocated before its parts, so their temporaries are freed
    # above it. A span allocated after them (np.concatenate) leaves holes in
    # the heap that raise the peak RSS of a random-mesh study at n = 64 by
    # about 30 MB.
    C = np.empty(geom.h.shape + (16, len(MONOMIALS)))
    C[..., :10, :] = _CUBICS
    C[..., 10:12, :] = _corrector_span(geom)
    C[..., 12:, :] = _bubble_span(geom)
    return C


def _vector_span(geom: QuadGeometry, stream=None):
    """x- and y-components (..., 16, 28) of the vector span fields: linear
    vectors, then rotated gradients of the cubic monomials, the correctors
    and the bubbles. ``stream`` is ``_stream_span(geom)`` if already made."""
    if stream is None:
        stream = _stream_span(geom)
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


def _solve_nodal(D: np.ndarray, n_basis: int, index):
    cond = np.linalg.cond(D)
    _check(~np.isfinite(cond) | (cond > COND_LIMIT), ElementConditioningError,
           f"local DoF matrix condition number exceeds {COND_LIMIT:.0e}", cond, index)
    rhs = np.zeros((D.shape[-1], n_basis))
    rhs[:n_basis, :] = np.eye(n_basis)
    X = np.linalg.solve(D, rhs)
    for _ in range(2):  # iterative refinement
        X += np.linalg.solve(D, rhs - D @ X)
    return X, cond


# ---------------------------------------------------------------------------
# scalar element
# ---------------------------------------------------------------------------

class ScalarElement:
    """Nodal basis of the 12-DoF scalar element on one cell or a batch of cells.

    DoF ordering: values at V1..V4, then d/dx at V1..V4, then d/dy at V1..V4
    (physical derivatives). Basis polynomials take cell-local coordinates
    (x - b) / h; ``coeff_matrix`` (..., 12, 28) holds them packed over the
    monomial table. The auxiliary basis, bubble duals, aggregation weights
    and residual diagnostics are computed on first access; diagnostics carry
    the geometry's batch shape. ``frames`` holds the monomial frames the
    build formed the DoF rows on; the diagnostics read them there.
    """

    def __init__(self, geom, span, solution, dof_matrix=None, condition=None):
        self.geometry = geom
        self.span = span                  # (..., 16, 28): cubics, correctors, bubbles
        self.dof_matrix = dof_matrix      # (..., 16, 16): DoF and constraint rows
        self.solution = solution          # (..., 16, 12): span weights of the basis
        self.condition = condition
        self.coeff_matrix = _swap(solution) @ span

    @classmethod
    def from_solution(cls, geom, solution):
        """The element on ``geom`` whose basis has the span weights
        ``solution`` of a build on ``geom``, without its 16x16 solve: the
        span is recomputed and the coefficients formed as the build forms
        them, so they equal the built ones bit for bit. It carries no DoF
        matrix or condition numbers, which only the build computes, and
        evaluates its frames only when a diagnostic reads them."""
        return cls(geom, _stream_span(geom), solution)

    @cached_property
    def frames(self):
        """(Vv, Ve) of ``_frames``: set by the build, else evaluated on first access."""
        return _frames(self.geometry)

    @cached_property
    def aux_matrix(self):
        """(..., 12, 28) auxiliary nodal basis: the bubble-free block solve."""
        X_aux = np.linalg.solve(self.dof_matrix[..., :12, :12], np.eye(12))
        return _swap(X_aux) @ self.span[..., :12, :]

    @cached_property
    def _bubble_means(self):
        """(..., 4, 4) edge means of the bubbles' normal derivatives."""
        bubbles, Ve = self.span[..., 12:, :], self.frames[1]
        return _edge_means((bubbles @ DX.T) @ Ve, (bubbles @ DY.T) @ Ve,
                           self.geometry.normals) / self.geometry.h[..., None, None]

    @cached_property
    def aggregation(self):
        """(..., 4, 12) bubble weights of each nodal basis function."""
        return self._bubble_means @ self.solution[..., 12:, :]

    @cached_property
    def _dof_rows(self):
        return _scalar_dof_rows(self.coeff_matrix, self.geometry, *self.frames)

    @cached_property
    def constraint_residual(self):
        """Largest edge-mean constraint residual, frame-relative (scaled by h)."""
        return np.abs(self._dof_rows[..., 12:, :]).max((-2, -1)) * self.geometry.h

    @cached_property
    def duality_defect(self):
        return np.abs(self._dof_rows[..., :12, :] - np.eye(12)).max((-2, -1))

    def tabulate(self, points):
        """Values (..., npts, 12), gradients (..., npts, 12, 2) and Hessians
        (..., npts, 12, 2, 2) at physical points (..., npts, 2)."""
        return _scalar_tables(self.geometry, self.coeff_matrix, points)

    def field_tables(self, dofs, points, inv=None):
        """Values (..., npts), gradients and Hessians of the fields with DoF
        vectors ``dofs`` (..., 12), without tabulating each basis function.

        ``points`` lie on the element's cells. With ``inv`` (an index into
        the batch axis), field k lives on cell ``inv[k]`` of a batch element:
        the monomials are evaluated once per cell of the element and
        gathered to the fields.
        """
        coeff = self.coeff_matrix if inv is None else self.coeff_matrix[inv]
        C = np.einsum("...j,...jm->...m", dofs, coeff)[..., None, :]
        val, grad, hess = _scalar_tables(self.geometry, C, points, inv)
        return val[..., 0], grad[..., 0, :], hess[..., 0, :, :]


def _local_monomials(geom, points, inv):
    """Transposed monomial matrix at the points and the cell diameters, both
    gathered by ``inv`` if given (the gather keeps the matrix's memory layout)."""
    V, h = _vt(geom.to_local(points)), geom.h
    return (V, h) if inv is None else (V[inv], h[inv])


def _scalar_tables(geom, C, points, inv=None):
    V, h = _local_monomials(geom, points, inv)
    h = h[..., None, None, None]
    Cx, Cy = C @ DX.T, C @ DY.T
    val = _swap(C @ V)
    grad = np.stack([_swap(Cx @ V), _swap(Cy @ V)], axis=-1) / h
    hxx, hxy, hyy = (_swap(c @ V) for c in (Cx @ DX.T, Cx @ DY.T, Cy @ DY.T))
    hess = np.stack(
        [np.stack([hxx, hxy], -1), np.stack([hxy, hyy], -1)], axis=-2
    ) / _pow2(h[..., None])
    return val, grad, hess


def build_scalar_element(geom: QuadGeometry) -> ScalarElement:
    return _build_scalar(geom, _stream_span(geom), _frames(geom))


def _build_scalar(geom, stream, frames):
    """The scalar element on the stream span (..., 16, 28) and ``frames``
    of ``geom``; it keeps the frames."""
    D = _scalar_dof_rows(stream, geom, *frames)
    X, cond = _solve_nodal(D, 12, geom.index)
    element = ScalarElement(geom, stream, X, D, cond)
    element.frames = frames
    return element


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
    field has constant divergence, recorded in ``div_constants`` (physical
    scale). Divergences and residual diagnostics are computed on first
    access; ``frames`` is as for ``ScalarElement``.
    """

    def __init__(self, geom, span, solution, condition=None):
        self.geometry = geom
        self.solution = solution
        self.condition = condition
        self.coeff_x, self.coeff_y = (_swap(solution) @ C for C in span)

    @classmethod
    def from_solution(cls, geom, solution):
        """The element re-formed from the span weights of a build on
        ``geom``, bit for bit, as ``ScalarElement.from_solution``."""
        return cls(geom, _vector_span(geom), solution)

    @cached_property
    def frames(self):
        """(Vv, Ve) of ``_frames``: set by the build, else evaluated on first access."""
        return _frames(self.geometry)

    @cached_property
    def _div_rows(self):
        return self.coeff_x @ DX.T + self.coeff_y @ DY.T

    @cached_property
    def div_constants(self):
        return self._div_rows[..., 0] / self.geometry.h[..., None]

    @cached_property
    def div_residual(self):
        """Largest non-constant divergence coefficient (physical scale)."""
        return np.abs(self._div_rows[..., 1:]).max((-2, -1)) / self.geometry.h

    @cached_property
    def _dof_rows(self):
        return _vector_dof_rows(self.coeff_x, self.coeff_y, self.geometry, *self.frames)

    @cached_property
    def duality_defect(self):
        return np.abs(self._dof_rows[..., :12, :] - np.eye(12)).max((-2, -1))

    @cached_property
    def constraint_residual(self):
        return np.abs(self._dof_rows[..., 12:, :]).max((-2, -1))

    def tabulate(self, points):
        """Values (..., npts, 12, 2) and gradients (..., npts, 12, 2, 2) at
        physical points; gradient [..., c, d] = d v_c / d x_d."""
        return _vector_tables(self.geometry, self.coeff_x, self.coeff_y, points)

    def field_tables(self, dofs, points, inv=None):
        """Values (..., npts, 2) and gradients (..., npts, 2, 2) of the fields
        with DoF vectors ``dofs`` (..., 12), without tabulating each basis
        field; ``points`` and ``inv`` as in ``ScalarElement.field_tables``."""
        Cx, Cy = (np.einsum("...j,...jm->...m", dofs, C if inv is None else C[inv])[..., None, :]
                  for C in (self.coeff_x, self.coeff_y))
        val, grad = _vector_tables(self.geometry, Cx, Cy, points, inv)
        return val[..., 0, :], grad[..., 0, :, :]


def _vector_tables(geom, Cx, Cy, points, inv=None):
    V, h = _local_monomials(geom, points, inv)
    val = np.stack([_swap(Cx @ V), _swap(Cy @ V)], axis=-1)
    rows = [np.stack([_swap((C @ DX.T) @ V), _swap((C @ DY.T) @ V)], -1) for C in (Cx, Cy)]
    grad = np.stack(rows, axis=-2) / h[..., None, None, None, None]
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
    element = VectorElement(geom, span, X, cond)
    element.frames = frames
    return element


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
    against ``element.aggregation``.
    """
    return -_scalar_dof_rows(element.aux_matrix, geom, *element.frames)[..., 12:, :]


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


def _unisolvency_rows(geom: QuadGeometry):
    """Packed polynomials (..., 4, 28) whose tangential derivatives make M
    and N, and (..., 4, 4, 28) whose edge means along edge i make row i of B-."""
    lines = [geom.edge_line_coeffs[..., k, :] for k in range(4)]
    l1, l2, l3, l4 = lines
    d13, d24 = geom.diag_13_coeffs, geom.diag_24_coeffs
    m13, m24 = geom.mid_13_coeffs, geom.mid_24_coeffs
    c1, c2 = np.moveaxis(_corrector_span(geom), -2, 0)

    b13 = mul_affine(affine_row(l1), l3)
    b24 = mul_affine(affine_row(l2), l4)
    P = np.stack([mul_affine(b13, l4), mul_affine(b13, l2), mul_affine(b13, d13), c1], axis=-2)
    Q = np.stack([mul_affine(b24, l1), mul_affine(b24, l3), mul_affine(b24, d24), c2], axis=-2)

    B = []
    for i in range(4):
        others = _batched(affine_row([1.0, 0.0, 0.0]), geom)
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
