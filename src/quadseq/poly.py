"""The packed monomial table of bivariate polynomials of degree <= 6.

A polynomial is a row of 28 coefficients over ``MONOMIALS`` (ordered by
total degree, x-power descending), and a set of polynomials is a (..., k, 28)
coefficient matrix. ``DX`` and ``DY`` differentiate packed rows (``C @ DX.T``),
``mul_affine`` multiplies them by affine forms (c0, cx, cy), which builds
the element spans from their line forms (entry by entry, so one call on
stacked rows and forms gives the bits of one call per row), and
``vandermonde`` evaluates them (``C @ vandermonde(points).T``), so element
assembly evaluates fixed polynomial sets at many points with a couple of
small matrix products.

Degree 6 is the largest degree of the element spans (the bubble
b0 * d13 * d24, b0 the product of the four edge lines); the vector span is
made of their rotated gradients, of degree <= 5. The table has no spare
degree, so ``mul_affine`` refuses a product that would leave it.
"""

from __future__ import annotations

import numpy as np

_DEGREE = 6

MONOMIALS = [(i, d - i) for d in range(_DEGREE + 1) for i in range(d, -1, -1)]
_INDEX = {m: k for k, m in enumerate(MONOMIALS)}


def _diff_matrix(axis: int) -> np.ndarray:
    D = np.zeros((len(MONOMIALS), len(MONOMIALS)))
    for k, (i, j) in enumerate(MONOMIALS):
        if axis == 0 and i > 0:
            D[_INDEX[(i - 1, j)], k] = i
        if axis == 1 and j > 0:
            D[_INDEX[(i, j - 1)], k] = j
    return D


DX = _diff_matrix(0)
DY = _diff_matrix(1)


def _shift(axis: int):
    """Source and destination indices of multiplication by x (axis 0) or y."""
    pairs = [(k, _INDEX[(i + 1 - axis, j + axis)]) for k, (i, j) in enumerate(MONOMIALS)
             if i + j < _DEGREE]
    return tuple(np.array(a) for a in zip(*pairs))


_TOP = slice(-(_DEGREE + 1), None)  # columns of the top-degree monomials
_X_SRC, _X_DST = _shift(0)
_Y_SRC, _Y_DST = _shift(1)


def affine_row(aff) -> np.ndarray:
    """Packed rows (..., 28) of affine forms (..., 3) = (c0, cx, cy)."""
    aff = np.asarray(aff, dtype=float)
    row = np.zeros(aff.shape[:-1] + (len(MONOMIALS),))
    row[..., :3] = aff
    return row


def mul_affine(P: np.ndarray, aff: np.ndarray) -> np.ndarray:
    """Products of packed rows P (..., 28) with affine forms aff (..., 3).

    Each coefficient is c0 * p + cx * (x-shifted p) + cy * (y-shifted p), in
    that order. A product of degree 7 does not fit the table: a row with a
    nonzero degree-6 coefficient times a non-constant form raises
    ``ValueError``.
    """
    c0, cx, cy = (aff[..., k, None] for k in range(3))
    if ((P[..., _TOP] != 0).any(-1) & (aff[..., 1:] != 0).any(-1)).any():
        raise ValueError(f"product of degree {_DEGREE + 1} exceeds the monomial table")
    out = c0 * P
    out[..., _X_DST] += cx * P[..., _X_SRC]
    out[..., _Y_DST] += cy * P[..., _Y_SRC]
    return out


_EXP_I = np.array([m[0] for m in MONOMIALS])
_EXP_J = np.array([m[1] for m in MONOMIALS])


def vandermonde(points: np.ndarray) -> np.ndarray:
    """Monomial values at points (..., npoints, 2), shape (..., npoints, 28)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    # Powers 0 and 1 are exact; the others come from np.power, as always.
    p = np.empty(pts.shape + (_DEGREE + 1,))
    p[..., 0] = 1.0
    p[..., 1] = pts
    p[..., 2:] = pts[..., None] ** np.arange(2, _DEGREE + 1)
    # The fancy-index gather keeps the monomial axis outermost; a C-contiguous
    # table sends C @ V down another BLAS path and changes the last bits.
    return p[..., 0, _EXP_I] * p[..., 1, _EXP_J]
