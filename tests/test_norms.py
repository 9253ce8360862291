import copy
import re

import numpy as np
import pytest

from quadseq.assembly import assemble_fourth_order, solve, unit_shape_elements, unit_shape_rule
from quadseq.elements import (
    build_scalar_element,
    build_vector_element,
    scalar_dof_values,
    vector_dof_values,
)
from quadseq.cases import BrinkmanCase, brinkman_sin_stream, scalar_poly2_case, scalar_sin_squared
from quadseq.mesh import make_mesh
from quadseq.norms import brinkman_error_norms, scalar_error_norms


MESH = make_mesh(4, "random", seed=2)


def _elements(mesh, build):
    return unit_shape_elements(mesh.unit_geometry, build)


def test_quadratic_exactly_captured():
    # The interpolant of a quadratic reproduces it on any mesh: all errors 0.
    case = scalar_poly2_case()
    mesh = make_mesh(3, "random", seed=12)
    dofs = scalar_dof_values(mesh.cell_geometry, case.u, case.grad)
    norms = scalar_error_norms(mesh, _elements(mesh, build_scalar_element), dofs, case, eps=1.0)
    assert norms["h1"] < 1e-10
    assert norms["h2"] < 1e-10
    assert norms["energy"] < 1e-10


def test_energy_reduces_to_h1_at_zero_parameter():
    case = scalar_sin_squared()
    mesh = make_mesh(4, "rectangular")
    dofs = scalar_dof_values(mesh.cell_geometry, case.u, case.grad)
    norms = scalar_error_norms(mesh, _elements(mesh, build_scalar_element), dofs, case, eps=0.0)
    assert norms["energy"] == pytest.approx(norms["h1"], rel=1e-14)


def test_linear_velocity_exactly_captured():
    case = brinkman_sin_stream()
    lin = BrinkmanCase(
        "linear",
        velocity=lambda x, y: np.stack([0.2 + 1.0 * np.asarray(y, float),
                                        -0.5 + 0.7 * np.asarray(x, float)], -1),
        velocity_grad=lambda x, y: np.broadcast_to(
            np.array([[0.0, 1.0], [0.7, 0.0]]),
            np.broadcast(x, y).shape + (2, 2)).copy(),
        velocity_laplacian=lambda x, y: np.zeros(np.broadcast(x, y).shape + (2,)),
        pressure=case.pressure, pressure_grad=case.pressure_grad,
    )
    mesh = make_mesh(3, "trapezoidal")
    dofs = vector_dof_values(mesh.cell_geometry, lin.velocity)
    norms = brinkman_error_norms(mesh, _elements(mesh, build_vector_element), dofs, lin,
                                 nu=1.0, alpha=1.0)
    assert norms["velocity_l2"] < 1e-11
    assert norms["velocity_h1"] < 1e-10


def test_darcy_norm_is_l2():
    case = brinkman_sin_stream()
    mesh = make_mesh(4, "rectangular")
    dofs = vector_dof_values(mesh.cell_geometry, case.velocity)
    norms = brinkman_error_norms(mesh, _elements(mesh, build_vector_element), dofs, case,
                                 nu=0.0, alpha=1.0)
    assert norms["velocity_ah"] == pytest.approx(norms["velocity_l2"], rel=1e-14)


def test_pressure_error_of_zero_function():
    # ||p||_0 for p = sin(pi x) - 2/pi is sqrt(1/2 - 4/pi^2).
    case = brinkman_sin_stream()
    mesh = make_mesh(8, "rectangular")
    dofs = vector_dof_values(mesh.cell_geometry, case.velocity)
    err = brinkman_error_norms(mesh, _elements(mesh, build_vector_element), dofs, case,
                               nu=1.0, alpha=1.0,
                               pressure_values=np.zeros(mesh.n_cells))["pressure_l2"]
    assert err == pytest.approx(np.sqrt(0.5 - 4.0 / np.pi**2), rel=1e-9)


def test_error_rule_tables_agree_on_rectangles():
    # The error rule tabulates the unit-shape element of every cell; on a
    # rectangular mesh all cells share one shape and so one table.
    mesh = make_mesh(4, "rectangular")
    unit = mesh.unit_geometry
    pts, _, w = unit_shape_rule(mesh.cell_geometry, unit, 6)
    elt = build_scalar_element(unit)
    val, grad, hess = elt.tabulate(pts)
    for table in (elt.coeff_matrix, w, val, grad, hess):
        assert np.abs(table - table[0]).max() <= 1e-13 * np.abs(table).max()


def test_norms_take_the_batch_of_their_mesh_and_kind():
    # A batch of the other element kind, or of another mesh, is refused.
    case = brinkman_sin_stream()
    mesh = make_mesh(4, "random", seed=2)
    dofs = vector_dof_values(mesh.cell_geometry, case.velocity)
    for elements in (_elements(mesh, build_scalar_element),
                     _elements(make_mesh(4, "random", seed=3), build_vector_element)):
        with pytest.raises(ValueError, match="VectorElement batch of this mesh"):
            brinkman_error_norms(mesh, elements, dofs, case, nu=1.0, alpha=1.0)


def _with(case, **callables):
    """A copy of ``case`` with some of its callables replaced."""
    out = copy.copy(case)
    vars(out).update(callables)
    return out


def test_norms_name_wrongly_shaped_exact_solutions():
    # Each exact-solution callable is checked as assembly checks a source:
    # a Hessian of gradient shape used to fail in numpy's broadcasting.
    mesh = make_mesh(4, "rectangular")
    scalar = scalar_sin_squared()
    sdofs = scalar_dof_values(mesh.cell_geometry, scalar.u, scalar.grad)
    selements = _elements(mesh, build_scalar_element)
    flow = brinkman_sin_stream()
    vdofs = vector_dof_values(mesh.cell_geometry, flow.velocity)
    velements = _elements(mesh, build_vector_element)
    p = np.zeros(mesh.n_cells)

    def shape_error(name, shape, got):
        return (rf"^case\.{name} must return real numbers of shape \({shape}\) on points "
                rf"of shape \(16, 36\), got float64 of shape \({got}\)$")

    for name, bad, shape, got in [
        ("hessian", scalar.grad, "16, 36, 2, 2", "16, 36, 2"),
        ("grad", scalar.u, "16, 36, 2", "16, 36"),
    ]:
        with pytest.raises(ValueError, match=shape_error(name, shape, got)):
            scalar_error_norms(mesh, selements, sdofs, _with(scalar, **{name: bad}), eps=1.0)
    for name, bad, shape, got in [
        ("velocity", flow.pressure, "16, 36, 2", "16, 36"),
        ("velocity_grad", flow.velocity, "16, 36, 2, 2", "16, 36, 2"),
        ("pressure", flow.velocity, "16, 36", "16, 36, 2"),
    ]:
        with pytest.raises(ValueError, match=shape_error(name, shape, got)):
            brinkman_error_norms(mesh, velements, vdofs, _with(flow, **{name: bad}),
                                 nu=1.0, alpha=1.0, pressure_values=p)
    nan_pressure = _with(flow, pressure=lambda x, y: np.where(x > 0.9, np.nan, x + 0 * y))
    with pytest.raises(ValueError, match="^cell 3: case.pressure is not finite"):
        brinkman_error_norms(mesh, velements, vdofs, nan_pressure, nu=1.0, alpha=1.0,
                             pressure_values=p)


def test_norms_name_wrongly_shaped_fields():
    # A global solution, DoF rows of the wrong width and pressures of the
    # wrong length are refused by name, before the elements are read.
    mesh = make_mesh(4, "rectangular")
    scalar = assemble_fourth_order(mesh, 1.0, scalar_sin_squared().source(1.0))
    x = solve(scalar)
    for dofs in (x, np.zeros((mesh.n_cells, 6))):
        with pytest.raises(ValueError, match=r"dofs must have shape \(n_cells, 12\) = \(16, 12\)"):
            scalar_error_norms(mesh, None, dofs, scalar_sin_squared(), eps=1.0)
    assert scalar_error_norms(mesh, scalar.elements, scalar.dofmap.gather(x),
                              scalar_sin_squared(), eps=1.0)["h2"] > 0
    case = brinkman_sin_stream()
    dofs = vector_dof_values(mesh.cell_geometry, case.velocity)
    with pytest.raises(ValueError, match=r"dofs must have shape \(n_cells, 12\)"):
        brinkman_error_norms(mesh, None, dofs[:, :6], case, nu=1.0, alpha=1.0)
    with pytest.raises(ValueError, match=r"pressure_values must have shape \(n_cells,\) = \(16,\)"):
        brinkman_error_norms(mesh, None, dofs, case, nu=1.0, alpha=1.0,
                             pressure_values=np.zeros(mesh.n_cells + 1))


@pytest.mark.parametrize("value", ["1", True, None, np.nan, -1.0, np.inf])
@pytest.mark.parametrize("norms, name", [
    (lambda v: scalar_error_norms(MESH, None, None, scalar_sin_squared(), eps=v), "eps"),
    (lambda v: brinkman_error_norms(MESH, None, None, brinkman_sin_stream(), v, 1.0), "nu"),
    (lambda v: brinkman_error_norms(MESH, None, None, brinkman_sin_stream(), 1.0, v), "alpha"),
], ids=["eps", "nu", "alpha"])
def test_bad_coefficients_are_named(norms, name, value):
    # The norms check their coefficients by assembly's rule before they read
    # the elements or the DoFs (None here). eps = nan used to give a nan
    # energy, nu = -1 a nan velocity_ah with only a RuntimeWarning, and a
    # string a bare TypeError once every table was built.
    with pytest.raises(ValueError, match=f"^{name} must be finite and non-negative, got "):
        norms(value)


@pytest.mark.parametrize("value", [1, 9, 2.5, True])
@pytest.mark.parametrize("norms", [
    lambda v: scalar_error_norms(MESH, None, None, scalar_sin_squared(), eps=1.0, quad_order=v),
    lambda v: brinkman_error_norms(MESH, None, None, brinkman_sin_stream(), 1.0, 1.0,
                                  quad_order=v),
], ids=["scalar", "brinkman"])
def test_bad_quad_order_is_named(norms, value):
    # Checked by name before the elements or the DoFs (None here) are read.
    with pytest.raises(ValueError, match=rf"^quad_order must .*, got {re.escape(repr(value))}$"):
        norms(value)
