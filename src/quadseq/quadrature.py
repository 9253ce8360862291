"""Gauss-Legendre rules on the reference square, physical cells, and edges."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .geometry import QuadGeometry
from .mesh import _integer

__all__ = ["QuadratureRule", "check_order", "gauss01"]


@lru_cache(maxsize=32)
def _leggauss(g: int):
    x, w = np.polynomial.legendre.leggauss(g)
    return x, w


def check_order(g: int, name: str = "per-axis order g"):
    """Raise ``ValueError``, naming ``name``, unless g is an integer (a
    NumPy integer too, a bool not) with 2 <= g <= 8."""
    if not 2 <= _integer(g, name) <= 8:
        raise ValueError(f"{name} must lie in 2..8, got {g}")


@lru_cache(maxsize=32)
def gauss01(g: int):
    """g-point Gauss rule on [0, 1]; weights sum to 1."""
    x, w = _leggauss(g)
    return (x + 1.0) / 2.0, w / 2.0


class QuadratureRule:
    """Tensor Gauss rule of per-axis order g on [-1, 1]^2.

    The default g = 4 gives the 16-node rule used for stiffness assembly;
    pushing a rule through a cell's bilinear map weights it by |det DF|.
    """

    def __init__(self, g: int):
        check_order(g)
        self.g = g
        x, w = _leggauss(g)
        xx, yy = np.meshgrid(x, x, indexing="ij")
        self.ref_points = np.column_stack([xx.ravel(), yy.ravel()])
        self.ref_weights = np.outer(w, w).ravel()

    def cell_points(self, geom: QuadGeometry):
        """Physical points and weights integrating over one cell."""
        pts = geom.map_reference(self.ref_points)
        wts = self.ref_weights * np.abs(geom.jacobian_det(self.ref_points))
        return pts, wts

