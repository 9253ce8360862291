"""Broken-norm errors of discrete or interpolated fields.

A field is given by its DoF vectors on all cells at once, (n_cells, 12):
a solved global coefficient vector gathered through the DoF map
(``dofmap.gather(x)``), or the nodal interpolant of a manufactured solution
(``scalar_dof_values``/``vector_dof_values`` on ``mesh.cell_geometry``, no
boundary conditions involved); another shape raises ``ValueError`` before
any table is formed, as does a coefficient eps, nu or alpha that is not a
finite non-negative number (assembly's rule), and so do exact-solution
callables of a wrong shape or with a non-finite value (``geometry._values``).
Error quadrature uses an independent, higher-order rule than assembly,
batched over cells like assembly.

The norms build no element. They take the mesh level's ``ElementBatch``:
the one assembly built (``system.elements``) or, for an interpolant, one
made by ``unit_shape_elements``. They reuse its unit-shape geometry and
re-form each chunk's elements from their span weights, so every error
equals the one of freshly built elements bit for bit.
"""

from __future__ import annotations

import numpy as np

from .assembly import ElementBatch, scalar_dof_scaling, unit_shape_rule, vector_dof_scaling
from .cases import BrinkmanCase, ScalarCase
from .elements import ScalarElement, VectorElement
from .geometry import _pow2, _values
from .mesh import Mesh, _nonnegative

__all__ = ["scalar_error_norms", "brinkman_error_norms"]

DEFAULT_ERROR_QUAD = 6


def _rule(mesh: Mesh, elements: ElementBatch, kind, quad_order: int, dofs):
    """Points and weights of the error rule on the batch's unit shapes,
    which must be the ``kind`` elements of ``mesh``, for the DoF rows
    ``dofs``, which must be (n_cells, 12)."""
    if np.shape(dofs) != (mesh.n_cells, 12):
        raise ValueError(f"dofs must have shape (n_cells, 12) = {(mesh.n_cells, 12)}, "
                         f"got {np.shape(dofs)}")
    geom = mesh.cell_geometry
    if elements.kind is not kind or not np.array_equal(elements.unit.vertices,
                                                       geom.local_vertices):
        raise ValueError(f"the elements must be the {kind.__name__} batch of this mesh")
    return unit_shape_rule(geom, elements.unit, quad_order)


def scalar_error_norms(mesh: Mesh, elements: ElementBatch, dofs: np.ndarray,
                       case: ScalarCase, eps: float = 0.0,
                       quad_order: int = DEFAULT_ERROR_QUAD) -> dict[str, float]:
    """Broken H1/H2 seminorm errors and the parameter-weighted energy error
    of the scalar field with cell DoF vectors ``dofs`` (n_cells, 12) on the
    scalar ``elements`` of ``mesh``.

    The H2 seminorm follows the Sobolev multi-index convention (the mixed
    second derivative counted once), which is the convention behind the
    reference convergence tables; the assembled bilinear form, by contrast,
    contracts full Hessians.
    """
    _nonnegative(eps, "eps")
    geom = mesh.cell_geometry
    pts, x, wts = _rule(mesh, elements, ScalarElement, quad_order, dofs)
    c = dofs * scalar_dof_scaling(geom.h)
    grad_h, hess_h = np.empty(x.shape), np.empty(x.shape + (2,))

    def tables(cells, shapes, element, inv):
        _, grad_h[cells], hess_h[cells] = element.field_tables(c[cells], pts[shapes], inv)

    elements.walk(tables)
    h = geom.h[:, None]
    grad_h /= h[..., None]
    hess_h /= _pow2(h[..., None, None])

    w = wts * _pow2(h)
    E = hess_h - _values(case.hessian, "case.hessian", x, hess_h.shape)
    grad_u = _values(case.grad, "case.grad", x, x.shape)
    h1_sq = float(np.sum(w * ((grad_h - grad_u) ** 2).sum(-1)))
    h2_sq = float(np.sum(w * (E[..., 0, 0] ** 2 + E[..., 0, 1] ** 2 + E[..., 1, 1] ** 2)))
    return {
        "h1": np.sqrt(h1_sq),
        "h2": np.sqrt(h2_sq),
        "energy": np.sqrt(eps**2 * h2_sq + h1_sq),
    }


def brinkman_error_norms(mesh: Mesh, elements: ElementBatch, dofs: np.ndarray,
                         case: BrinkmanCase, nu: float, alpha: float,
                         pressure_values: np.ndarray | None = None,
                         quad_order: int = DEFAULT_ERROR_QUAD) -> dict[str, float]:
    """Velocity errors (L2, broken H1, a_h combination) of the velocity with
    cell DoF vectors ``dofs`` (n_cells, 12) on the vector ``elements`` of
    ``mesh``, and the pressure L2 error of the cellwise constant
    ``pressure_values``."""
    _nonnegative(nu, "nu")
    _nonnegative(alpha, "alpha")
    if pressure_values is not None and np.shape(pressure_values) != (mesh.n_cells,):
        raise ValueError(f"pressure_values must have shape (n_cells,) = {(mesh.n_cells,)}, "
                         f"got {np.shape(pressure_values)}")
    geom = mesh.cell_geometry
    pts, x, wts = _rule(mesh, elements, VectorElement, quad_order, dofs)
    c = dofs * vector_dof_scaling(geom.h)
    val_h, grad_h = np.empty(x.shape), np.empty(x.shape + (2,))

    def tables(cells, shapes, element, inv):
        val_h[cells], grad_h[cells] = element.field_tables(c[cells], pts[shapes], inv)

    elements.walk(tables)
    h = geom.h[:, None]
    grad_h /= h[..., None, None]

    w = wts * _pow2(h)
    u = _values(case.velocity, "case.velocity", x, x.shape)
    grad_u = _values(case.velocity_grad, "case.velocity_grad", x, grad_h.shape)
    l2_sq = float(np.sum(w * ((val_h - u) ** 2).sum(-1)))
    h1_sq = float(np.sum(w * ((grad_h - grad_u) ** 2).sum((-1, -2))))
    out = {
        "velocity_l2": np.sqrt(l2_sq),
        "velocity_h1": np.sqrt(h1_sq),
        "velocity_ah": np.sqrt(nu * h1_sq + alpha * l2_sq),
    }
    if pressure_values is not None:
        p_err = (_values(case.pressure, "case.pressure", x, x.shape[:-1])
                 - np.asarray(pressure_values)[:, None])
        out["pressure_l2"] = np.sqrt(float(np.sum(w * p_err**2)))
    return out

