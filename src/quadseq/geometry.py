"""Geometry of convex quadrilaterals, one cell or a whole mesh at once.

Each cell carries the decomposition of its bilinear reference map into a
simple distortion followed by an affine map; the distortion is encoded by a
shape vector s = (s1, s2) with |s1| + |s2| < 1 exactly when the cell is
strictly convex. All line forms (edge lines, midlines, diagonals) are stored
in one array of affine coefficients (c0, cx, cy) in the cell-local frame
(x - b) / h, where b is the vertex centroid and h the cell diameter, which keeps
high-degree shape-function algebra well conditioned independently of the
mesh size.

Every array carries the batch shape of the vertices it was built from as
leading axes: () for one cell, (n_cells,) for a mesh.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "QuadGeometry",
    "shoelace_area",
    "NonConvexCellError",
    "DegenerateCellError",
]

# Reference square corners, counterclockwise from bottom-left.
REF_CORNERS = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])


class NonConvexCellError(ValueError):
    """Cell fails the strict convexity bound |s1| + |s2| < 1."""


class DegenerateCellError(ValueError):
    """Cell has a zero-length edge or a singular affine factor."""


def _check(bad, error, message, values=None, index=None):
    """Raise ``error`` for the first cell flagged in ``bad``, naming it by its
    entry of ``index`` (default: its position) and adding its entry of
    ``values`` if given."""
    bad = np.asarray(bad)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        cell = i if index is None else int(np.ravel(index)[i])
        where = f"cell {cell}: " if bad.ndim else ""
        what = "" if values is None else f" ({np.ravel(values)[i]:.6g})"
        raise error(where + message + what)


def _values(fn, name, x, shape):
    """Float values (``shape``) of the user callable ``fn`` at the points x
    (..., npts, 2); raises ``ValueError`` naming it (as "source f") on a
    wrong shape or type, or it and its first cell on a non-finite value."""
    values = np.asarray(fn(x[..., 0], x[..., 1]))
    if values.shape != shape or values.dtype.kind not in "biuf":
        raise ValueError(f"{name} must return real numbers of shape {shape} on points "
                         f"of shape {x.shape[:-1]}, got {values.dtype} of shape {values.shape}")
    values = np.asarray(values, dtype=float)
    _check(~np.isfinite(values).reshape(x.shape[:-2] + (-1,)).all(-1), ValueError,
           f"{name} is not finite at an evaluation point")
    return values


def _dot(a, b):
    """Inner products over the last axis, summed exactly as ``np.dot`` sums
    one pair of vectors (a batched matmul of row by column)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _pow2(h):
    """h**2 computed by libm ``pow``, as Python computes it for a float
    (which differs from h * h in the last bit for some h)."""
    return np.float_power(h, 2.0)


def shoelace_area(vertices) -> np.ndarray:
    v = np.asarray(vertices, dtype=float)
    x, y = v[..., 0], v[..., 1]
    return 0.5 * (_dot(x, np.roll(y, -1, axis=-1)) - _dot(y, np.roll(x, -1, axis=-1)))


def _shape_decomposition(vertices):
    """(A, b, d, s, skew): the bilinear map F(x) = A x + b + d x1 x2 onto
    each cell, its shape vector s = A^-1 d and skew = |s1| + |s2|, below 1
    exactly on strictly convex cells and inf where A is singular (|det A| <
    1e-14 ||A||_F^2; s is then solved on the identity instead and means
    nothing). The test is relative, so that it does not depend on the
    cell's size: |det A| <= ||A||_F^2 / 2 for every A, and det A is about
    h^2 / 4 on a cell of diameter h, so an absolute 1e-14 flagged every
    cell of a sound mesh scaled by 1e-7."""
    V1, V2, V3, V4 = (vertices[..., k, :] for k in range(4))
    A = 0.25 * np.stack([V3 - V4 - V1 + V2, V3 + V4 - V1 - V2], axis=-1)
    b, d = 0.25 * (V1 + V2 + V3 + V4), 0.25 * (V3 - V4 + V1 - V2)
    singular = np.abs(np.linalg.det(A)) < 1e-14 * (A**2).sum((-2, -1))
    s = np.linalg.solve(np.where(singular[..., None, None], np.eye(2), A), d[..., None])[..., 0]
    return A, b, d, s, np.where(singular, np.inf, np.abs(s).sum(-1))


def _line_through(p, q, norm_point):
    """Affine forms (..., k, 3) = (c0, cx, cy), form j vanishing on the line
    through p[..., j, :] and q[..., j, :] and equal to 1 at norm_point[..., j, :]."""
    dx, dy = q[..., 0] - p[..., 0], q[..., 1] - p[..., 1]
    c = np.stack([dy * p[..., 0] - dx * p[..., 1], -dy, dx], axis=-1)
    scale = c[..., 0] + c[..., 1] * norm_point[..., 0] + c[..., 2] * norm_point[..., 1]
    _check((scale == 0.0).any(-1), DegenerateCellError, "line normalization point lies on the line")
    return c / scale[..., None]


_L1, _L2, _L3, _L4, _M13, _M24, _D13, _D24 = range(8)  # the rows of ``QuadGeometry.forms``
# Form k runs through points _FORM_POINTS[0][k] and [1][k] of V1..V4, M1..M4 (the
# local vertices and edge midpoints) and is 1 at point [2][k]: l_i(M_{i+2}) = 1,
# m13(M2) = m24(M3) = 1, d13(V4) = d24(V3) = 1.
_FORM_POINTS = ([0, 1, 2, 3, 4, 5, 0, 1], [1, 2, 3, 0, 6, 7, 2, 3], [6, 7, 4, 5, 5, 6, 3, 2])


class QuadGeometry:
    """Geometry bundle for one convex quadrilateral or a batch of them.

    ``vertices`` has shape (..., 4, 2), counterclockwise per cell. Edge i
    joins vertex i to vertex (i+1) % 4; normals point outward, tangents run
    counterclockwise. ``forms`` (..., 8, 3) holds the line forms in rows
    ``_L1`` ... ``_D24``: the edge lines, the midlines m13, m24 and the
    diagonals d13, d24. Indexing a batch gives the geometry of the selected
    cells; ``index`` keeps their positions in the batch the geometry was
    built from, which errors report. Invalid cells
    raise ``ValueError`` (non-finite or clockwise), ``DegenerateCellError``
    or ``NonConvexCellError``, naming the first offending cell of a batch.
    """

    __slots__ = (
        "vertices", "A", "b", "d", "s", "h", "area",
        "edge_mid", "edge_len", "tangents", "normals", "local_vertices",
        "forms", "index",
    )

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        self.vertices = v
        self.index = np.arange(np.prod(v.shape[:-2], dtype=int)).reshape(v.shape[:-2])
        _check(~np.isfinite(v).all((-2, -1)), ValueError, "non-finite vertex coordinates")

        diffs = v[..., :, None, :] - v[..., None, :, :]
        self.h = np.sqrt((diffs**2).sum(-1).max((-2, -1)))

        # Relative to the diameter, as the affine test below is; <= flags a
        # cell whose vertices all coincide (h = 0).
        edge_vec = np.roll(v, -1, axis=-2) - v
        self.edge_len = np.linalg.norm(edge_vec, axis=-1)
        _check((self.edge_len <= 1e-14 * self.h[..., None]).any(-1), DegenerateCellError,
               "zero-length edge")

        self.area = shoelace_area(v)
        _check(self.area <= 0.0, ValueError, "vertices must be ordered counterclockwise")

        self.A, self.b, self.d, self.s, skew = _shape_decomposition(v)
        _check(np.isinf(skew), DegenerateCellError, "singular affine factor of the bilinear map")
        _check(skew >= 1.0, NonConvexCellError, "|s1|+|s2| >= 1", skew)

        self.edge_mid = 0.5 * (v + np.roll(v, -1, axis=-2))
        self.tangents = edge_vec / self.edge_len[..., None]
        # Outward normal of a counterclockwise polygon: tangent rotated by -90.
        self.normals = np.stack([self.tangents[..., 1], -self.tangents[..., 0]], axis=-1)

        self.local_vertices = self.to_local(v)
        pts = np.concatenate([self.local_vertices, self.to_local(self.edge_mid)], axis=-2)
        self.forms = _line_through(*(pts[..., k, :] for k in _FORM_POINTS))

    def __getitem__(self, index) -> "QuadGeometry":
        out = object.__new__(QuadGeometry)
        for name in self.__slots__:
            setattr(out, name, getattr(self, name)[index])
        return out

    def __len__(self) -> int:
        return len(self.h)

    # -- frames and maps -----------------------------------------------------
    # Point arrays are (..., npts, 2) with the geometry's batch shape leading.

    def to_local(self, points):
        return (np.asarray(points, dtype=float) - self.b[..., None, :]) / self.h[..., None, None]

    def from_local(self, points):
        return np.asarray(points, dtype=float) * self.h[..., None, None] + self.b[..., None, :]

    def map_reference(self, ref_points):
        """Bilinear map from the reference square [-1,1]^2 to the cell."""
        r = np.atleast_2d(np.asarray(ref_points, dtype=float))
        xh, yh = r[:, 0], r[:, 1]
        N = 0.25 * np.column_stack([
            (1 - xh) * (1 - yh), (1 + xh) * (1 - yh),
            (1 + xh) * (1 + yh), (1 - xh) * (1 + yh),
        ])
        return N @ self.vertices

    def jacobian_det(self, ref_points):
        """det DF of the bilinear map at reference points."""
        r = np.atleast_2d(np.asarray(ref_points, dtype=float))
        xh, yh = r[:, 0], r[:, 1]
        detA = np.linalg.det(self.A)[..., None]
        s1, s2 = self.s[..., 0, None], self.s[..., 1, None]
        # F = A o S with S(x) = x + x*y*s, so det DF = det A * det DS.
        det_2 = (1 + yh * s1) * (1 + xh * s2) - xh * yh * s1 * s2
        return detA * det_2

    def edge_points(self, i: int, t):
        """Physical points V_i + t (V_{i+1} - V_i) for t in [0, 1]."""
        t = np.asarray(t, dtype=float)[:, None]
        vi = self.vertices[..., i, None, :]
        return vi + t * (self.vertices[..., (i + 1) % 4, None, :] - vi)

