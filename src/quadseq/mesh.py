"""Quadrilateral meshes of the unit square.

Three families are provided: uniform rectangles, uniform trapezoids
(alternating vertical displacement of the interior grid points), and random
perturbations of the rectangular grid, where every interior vertex is moved
by an i.i.d. uniform sample and resampled until all incident cells stay
strictly convex. Boundary vertices never move, so the domain is exactly
[0, 1]^2 for every family.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import operator

import numpy as np

from .geometry import QuadGeometry, _shape_decomposition

__all__ = ["Mesh", "make_mesh", "MeshGenerationError", "FAMILIES"]

FAMILIES = ("rectangular", "trapezoidal", "random")
DEFAULT_DELTA = {"rectangular": 0.0, "trapezoidal": 0.2, "random": 0.2}
_MAX_RESAMPLES = 100


class MeshGenerationError(RuntimeError):
    """Raised when a perturbed vertex cannot be placed convexly."""


def _convexity_shape(cell_vertices) -> np.ndarray:
    """|s1| + |s2| of the bilinear-map distortion per cell (..., 4, 2) -> (...);
    < 1 means strictly convex, inf marks a singular affine factor. It is
    the skew ``QuadGeometry`` checks, bit for bit."""
    return _shape_decomposition(cell_vertices)[-1]


def _array(value, name: str, dtype=None) -> np.ndarray:
    try:
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError) as exc:  # ragged or non-numeric input
        raise ValueError(f"{name} is not a numeric array: {exc}") from exc


def _integer(value, name: str, least: int | None = None) -> int:
    """``value`` as an int (a NumPy integer too, a bool not) of at least
    ``least`` if given, or ``ValueError`` naming it."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = operator.index(value)
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


def _real(value, name: str, rule: str, ok):
    """``value`` if it is a real number (a NumPy float too, a bool not) for
    which ``ok`` holds, or ``ValueError`` naming it: "{name} {rule}, got
    {value!r}"."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not ok(value):
        raise ValueError(f"{name} {rule}, got {value!r}")
    return value


def _nonnegative(value, name: str):
    """``value`` if it is a finite non-negative real number (a coefficient
    such as eps, nu or alpha), or ``ValueError`` naming it."""
    return _real(value, name, "must be finite and non-negative", lambda v: 0 <= v < np.inf)


def _seed(value) -> int:
    """``value`` as a non-negative int, or ``ValueError`` naming the seed."""
    seed = _integer(value, "seed")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return seed


def _metadata(n, delta, seed):
    """(n, delta, seed) by the rules of ``make_mesh``: n an integer of at
    least 2, delta a real number in [0, 0.25] and seed a non-negative
    integer, with NumPy integers as ints. None passes for n and seed. Raises
    ``ValueError`` naming the first field that breaks them."""
    if n is not None:
        n = _integer(n, "n", 2)
    delta = _real(delta, "delta", "must be a number in [0, 0.25]", lambda d: 0.0 <= d <= 0.25)
    return n, delta, None if seed is None else _seed(seed)


def _strict_json(doc: dict, nullable=()) -> str:
    """The report ``doc`` as JSON (sorted keys, an indent of 2) that a strict
    parser reads: a non-finite float, at any depth under a key in
    ``nullable``, is written as null, and any other raises ``ValueError``.
    The sequence, element and study reports all write theirs by this rule."""
    def null(value):
        if isinstance(value, dict):
            return {k: null(v) for k, v in value.items()}
        if isinstance(value, list):
            return [null(v) for v in value]
        return None if isinstance(value, float) and not np.isfinite(value) else value

    doc = {k: null(v) if k in nullable else v for k, v in doc.items()}
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _vertex_indices(cells, n_vertices: int) -> np.ndarray:
    """``cells`` as an (m, 4) integer array, or ``ValueError`` naming the
    first cell whose entries are not integers in [0, n_vertices)."""
    c = _array(cells, "cells")
    if c.ndim != 2 or c.shape[1] != 4:
        raise ValueError(f"cells must have shape (m, 4), got {c.shape}")
    if not len(c):
        raise ValueError("cells: a mesh needs at least one cell, got none")
    if c.dtype.kind not in "iuf":
        raise ValueError(f"cells must hold vertex indices, got dtype {c.dtype}")
    bad = ~((c == np.floor(c)) & (c >= 0) & (c < n_vertices))
    if bad.any():
        k = int(bad.any(1).argmax())
        raise ValueError(f"cells: cell {k} has vertex indices {c[k].tolist()}, "
                         f"not all integers in [0, {n_vertices})")
    return c.astype(int)


def _first_appearance(keys):
    """Number the distinct keys (the rows of ``keys``) in order of first
    appearance. Returns the index of each distinct key's first appearance,
    in that order, and for every key the number of its distinct key."""
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse.ravel()]


class Mesh:
    """Vertices, counterclockwise quads, and edge connectivity with fixed frames.

    Each edge has a global unit normal n_E: the counterclockwise rotation of
    the edge direction taken from lower to higher vertex index. Per cell,
    ``cell_edge_signs`` is +1 where the cell's outward normal on that edge
    agrees with n_E and -1 where it is -n_E. The outward normal of a
    counterclockwise cell is the clockwise rotation of its edge direction,
    so it agrees with n_E exactly when the cell runs the edge from its
    higher to its lower vertex index: the signs follow from the vertex
    numbers alone. ``cell_geometry`` is the geometry of all cells as one
    batch, and ``unit_geometry`` the geometry of their unit shapes, the
    vertices in the cell-local frame (x - b) / h, on which the elements are
    built. Building a mesh rejects vertices not of shape (n, 2), cells not
    of shape (m, 4) with m >= 1 or with indices that are not integers in
    [0, n), vertices that no cell uses, and clockwise, degenerate and
    non-convex cells or unit shapes, naming the field or the first offending
    vertex or cell. The metadata ``n``, ``delta`` and ``seed`` follow the
    rules of ``make_mesh``, except that n and seed may be None.
    """

    def __init__(self, vertices, cells, family="custom", n=None, delta=0.0, seed=None):
        self.vertices = _array(vertices, "vertices", float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError(f"vertices must have shape (n, 2), got {self.vertices.shape}")
        self.cells = _vertex_indices(cells, len(self.vertices))
        self.family = family
        self.n, self.delta, self.seed = _metadata(n, delta, seed)
        self.cell_geometry = QuadGeometry(self.vertices[self.cells])
        # A vertex of no cell would count as interior and break the sequence.
        unused = np.bincount(self.cells.ravel(), minlength=self.n_vertices) == 0
        if unused.any():
            raise ValueError(f"vertices: vertex {int(unused.argmax())} is used by no cell")
        self._build_edges()
        self.unit_geometry = QuadGeometry(self.cell_geometry.local_vertices)

    def _build_edges(self):
        # Edges are numbered in order of first appearance, cell by cell.
        start, end = self.cells, np.roll(self.cells, -1, axis=1)
        lo, hi = np.minimum(start, end).ravel(), np.maximum(start, end).ravel()
        first, edge_of = _first_appearance(lo * self.n_vertices + hi)
        self.edge_vertices = np.column_stack([lo[first], hi[first]])
        self.cell_edges = edge_of.reshape(-1, 4)

        n_adj = np.bincount(edge_of, minlength=len(first))
        if np.any(n_adj > 2):
            raise ValueError("non-manifold mesh: an edge with more than two cells")
        self.edge_is_boundary = n_adj == 1

        self.vertex_is_boundary = np.zeros(len(self.vertices), dtype=bool)
        self.vertex_is_boundary[self.edge_vertices[self.edge_is_boundary].ravel()] = True

        self.cell_edge_signs = np.where(start > end, 1, -1)

    # -- counts --------------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_edges(self) -> int:
        return len(self.edge_vertices)

    @property
    def n_interior_vertices(self) -> int:
        return int((~self.vertex_is_boundary).sum())

    @property
    def n_interior_edges(self) -> int:
        return int((~self.edge_is_boundary).sum())

    def euler_characteristic(self) -> int:
        """Interior vertices - interior edges + cells; equals 1 on a disk."""
        return self.n_interior_vertices - self.n_interior_edges + self.n_cells

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "schema": "quadseq-mesh-1",
            "family": self.family,
            "n": self.n,
            "delta": self.delta,
            "seed": self.seed,
            "vertices": self.vertices.tolist(),
            "cells": self.cells.tolist(),
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "Mesh":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError(f"mesh JSON must be an object, got {type(doc).__name__}")
        for key in ("vertices", "cells"):
            if key not in doc:
                raise ValueError(f"mesh JSON has no {key!r} field")
        return cls(
            doc["vertices"], doc["cells"],
            family=doc.get("family", "custom"), n=doc.get("n"),
            delta=doc.get("delta", 0.0), seed=doc.get("seed"),
        )

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "Mesh":
        with open(path) as fh:
            return cls.from_json(fh.read())

    def content_hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()


def _grid(n: int):
    coords = np.arange(n + 1) / n
    xx, yy = np.meshgrid(coords, coords, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])
    j, i = np.divmod(np.arange(n * n), n)
    base = j * (n + 1) + i
    return vertices, np.column_stack([base, base + 1, base + n + 2, base + n + 1])


def _interior_mask(n: int) -> np.ndarray:
    mask = np.zeros((n + 1, n + 1), dtype=bool)
    mask[1:n, 1:n] = True
    return mask.ravel()


def make_mesh(n: int, family: str, delta: float | None = None, seed: int = 0) -> Mesh:
    """Generate an n x n mesh of [0,1]^2 of the requested family.

    delta is the displacement amplitude as a fraction of the grid spacing:
    the vertical alternation of the trapezoids, or the half-width of the
    uniform square from which random displacements are drawn. Boundary
    vertices are never displaced. An n, delta or seed of the wrong type raises
    ``ValueError`` naming it.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    # A generated mesh has an n and a seed, so None is refused here.
    n, delta, seed = _metadata(_integer(n, "n"), DEFAULT_DELTA[family] if delta is None else delta,
                               _integer(seed, "seed"))

    vertices, cells = _grid(n)
    h = 1.0 / n
    interior = _interior_mask(n)

    if family == "trapezoidal":
        j, i = np.divmod(np.arange(len(vertices)), n + 1)
        vertices[interior, 1] += ((-1.0) ** (i + j) * delta * h)[interior]
    elif family == "random":
        rng = np.random.default_rng(seed)
        idx = np.nonzero(interior)[0]
        vertices[idx] += rng.uniform(-delta * h, delta * h, size=(len(idx), 2))

        # Redraw the interior vertices of non-convex cells, in increasing
        # vertex order, until every cell is strictly convex. A pass that
        # redraws adds an attempt to at least one of the m interior vertices,
        # so one of them exceeds _MAX_RESAMPLES, and the loop raises, within
        # _MAX_RESAMPLES * m + 1 passes.
        base = _grid(n)[0]
        attempts = np.zeros(len(vertices), dtype=int)
        while True:
            bad = np.unique(cells[_convexity_shape(vertices[cells]) >= 1.0])
            bad = bad[interior[bad]]
            if not bad.size:
                break
            attempts[bad] += 1
            over = bad[attempts[bad] > _MAX_RESAMPLES]
            if over.size:
                raise MeshGenerationError(
                    f"vertex {over[0]} cannot be placed convexly after {_MAX_RESAMPLES} resamples"
                )
            vertices[bad] = base[bad] + rng.uniform(-delta * h, delta * h, size=(len(bad), 2))

    return Mesh(vertices, cells, family=family, n=n, delta=delta, seed=seed)
