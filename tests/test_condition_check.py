"""The COND_LIMIT check of the nodal solves against an SVD of every cell.

``elements._solve_nodal`` clears most cells by their Frobenius condition
number and sends only the rest to ``np.linalg.cond``. It must accept and
reject exactly the cells that ``np.linalg.cond(D) > COND_LIMIT`` rejects,
name the same first cell with its kappa_2, keep the span weights of the
plain solve with two refinement steps, and report a ``condition`` that
bounds kappa_2 from above.
"""

import re

import numpy as np
import pytest

from conftest import NEAR_FLAT, squares_with
from quadseq.elements import (
    COND_LIMIT,
    ElementConditioningError,
    _frames,
    _scalar_dof_rows,
    _solve_nodal,
    _stream_span,
    _vector_dof_rows,
    _vector_span,
)
from quadseq.geometry import REF_CORNERS, QuadGeometry
from quadseq.mesh import make_mesh
from quadseq.verify import random_convex_quads

SIGNS = np.array([1.0, -1.0, 1.0, -1.0])[:, None]


def _shape_sweep():
    """Unit shapes toward degeneracy: s -> 1 along either axis and the
    diagonal, and stretched, sheared cells up to aspect 1e4."""
    shapes = []
    for k in range(1, 31):
        t = 1.0 - 2.0**-k
        shapes += [(t, 0.0), (0.0, t), (-t, 0.0), (0.5 * t, 0.5 * t), (0.9 * t, -0.1 * t)]
    shapes += [(NEAR_FLAT, 0.0), (0.0, NEAR_FLAT), (0.999999, 0.0)]
    cells = [REF_CORNERS + SIGNS * np.array(s) for s in shapes]
    for aspect in 10.0 ** np.arange(0.0, 4.25, 0.25):
        for shear in (0.0, 0.3, 0.9):
            for s1 in (0.0, 0.5, 0.95):
                v = REF_CORNERS + SIGNS * np.array([s1, 0.0])
                cells.append(v @ np.array([[1.0, shear], [0.0, 1.0 / aspect]]).T)
    return QuadGeometry(np.stack(cells))


def _unit(geom):
    return QuadGeometry(geom.local_vertices)


BATCHES = {
    "sweep": lambda: _unit(_shape_sweep()),
    "near-flat": lambda: _unit(squares_with(
        {3: (NEAR_FLAT, 0.0), 5: (0.0, NEAR_FLAT), 9: (0.999999, 0.0)}).cell_geometry),
    "rectangular": lambda: _unit(make_mesh(8, "rectangular").cell_geometry),
    "trapezoidal": lambda: _unit(make_mesh(8, "trapezoidal").cell_geometry),
    "random": lambda: _unit(make_mesh(8, "random", seed=3).cell_geometry),
    "samples": lambda: _unit(random_convex_quads(300, 4)),
}


def _dof_rows(geom, kind):
    stream, frames = _stream_span(geom), _frames(geom)
    if kind == "scalar":
        return _scalar_dof_rows(stream, geom, *frames)
    return _vector_dof_rows(*_vector_span(geom, stream), geom, *frames)


def _refined_solve(D):
    """The span weights as a plain solve and two refinement steps give them."""
    rhs = np.zeros((16, 12))
    rhs[:12, :] = np.eye(12)
    X = np.linalg.solve(D, rhs)
    for _ in range(2):
        X += np.linalg.solve(D, rhs - D @ X)
    return X


def _message(cell, cond):
    """The whole error message; a one-cell build names no cell."""
    where = "" if cell is None else f"cell {cell}: "
    return "^" + re.escape(f"{where}local DoF matrix condition number exceeds "
                           f"{COND_LIMIT:.0e} ({cond:.6g})") + "$"


@pytest.mark.parametrize("kind", ["scalar", "vector"])
@pytest.mark.parametrize("batch", list(BATCHES))
def test_condition_check_decides_as_an_svd_of_every_cell(batch, kind):
    geom = BATCHES[batch]()
    D = _dof_rows(geom, kind)
    cond = np.linalg.cond(D)
    bad = ~np.isfinite(cond) | (cond > COND_LIMIT)
    if batch == "sweep":
        assert bad.any() and not bad.all()
    # One cell at a time: the same cells are rejected, with their kappa_2.
    for k in range(len(D)):
        if bad[k]:
            with pytest.raises(ElementConditioningError, match=_message(None, cond[k])):
                _solve_nodal(D[k], geom.index[k])
        else:
            X, kappa = _solve_nodal(D[k], geom.index[k])
            assert np.array_equal(X, _refined_solve(D[k]))
            assert kappa >= cond[k]
    # The whole batch names its first bad cell, else keeps every span weight.
    if bad.any():
        first = int(np.flatnonzero(bad)[0])
        with pytest.raises(ElementConditioningError, match=_message(first, cond[first])):
            _solve_nodal(D, geom.index)
        ok = ~bad
        X, kappa = _solve_nodal(D[ok], geom.index[ok])
        D = D[ok]
    else:
        X, kappa = _solve_nodal(D, geom.index)
    assert np.array_equal(X, _refined_solve(D))
    assert (kappa >= np.linalg.cond(D)).all()


@pytest.mark.parametrize("breaking", ["zero", "repeated row", "nan", "inf"])
def test_a_singular_dof_matrix_is_named(breaking):
    geom = _unit(random_convex_quads(6, 2, max_skew=0.5, max_aspect=2.0))
    D = _dof_rows(geom, "scalar")
    if breaking == "zero":
        D[4] = 0.0
    elif breaking == "repeated row":
        D[4, 7] = D[4, 3]
    else:  # the SVD behind np.linalg.cond cannot run on it
        D[4, 2, 5] = np.nan if breaking == "nan" else np.inf
    what = "is not finite" if breaking in ("nan", "inf") else "condition number"
    with pytest.raises(ElementConditioningError, match=f"^cell 4: local DoF matrix {what}"):
        _solve_nodal(D, geom.index)
    with pytest.raises(ElementConditioningError, match=f"^local DoF matrix {what}"):
        _solve_nodal(D[4], geom.index[4])
    ok = np.arange(len(D)) != 4
    X, _ = _solve_nodal(D[ok], geom.index[ok])
    assert np.array_equal(X, _refined_solve(D[ok]))
