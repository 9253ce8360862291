import ctypes
import re
import sys
import tracemalloc
import types

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import quadseq.assembly as assembly
from quadseq.assembly import (
    SolverError,
    SparseSystem,
    assemble_brinkman,
    assemble_fourth_order,
    solve,
    unit_shape_rule,
    vector_dof_scaling,
)
from quadseq.cases import brinkman_sin_stream, scalar_sin_squared
from quadseq.dofmap import ScalarDofMap, VectorDofMap, curl_operator
from quadseq.elements import build_scalar_element, build_vector_element, vector_dof_values
from quadseq.geometry import QuadGeometry, _pow2
from quadseq.mesh import Mesh, make_mesh
from quadseq.sequence import divergence_matrix

CASE = scalar_sin_squared()
FLOW = brinkman_sin_stream()


def test_scalar_system_dimension():
    mesh = make_mesh(2, "rectangular")
    system = assemble_fourth_order(mesh, 1.0, CASE.source(1.0))
    assert system.ndof == 3  # one interior vertex


def test_dof_counts():
    mesh = make_mesh(4, "random", seed=2)
    sdm = ScalarDofMap(mesh)
    vdm = VectorDofMap(mesh)
    assert sdm.ndof == 3 * mesh.n_interior_vertices
    assert vdm.ndof == 2 * mesh.n_interior_vertices + mesh.n_interior_edges


@pytest.mark.parametrize("eps", [0.0, 1.0])
def test_scalar_matrix_spd(eps):
    mesh = make_mesh(4, "trapezoidal")
    system = assemble_fourth_order(mesh, eps, CASE.source(eps))
    K = system.matrix
    assert np.abs((K - K.T).toarray()).max() < 1e-12
    eigs = np.linalg.eigvalsh(system.matrix.toarray())
    assert eigs.min() > 0


def test_brinkman_block_structure():
    mesh = make_mesh(2, "rectangular")
    system = assemble_brinkman(mesh, 1.0, 1.0, FLOW.source(1.0, 1.0))
    assert system.n_velocity == 6  # 2 * 1 interior vertex + 4 interior edges
    assert system.n_pressure == 4
    assert system.ndof == 6 + 4 + 1
    K = system.matrix
    assert np.abs((K - K.T).toarray()).max() < 1e-12


def test_invalid_parameters():
    mesh = make_mesh(2, "rectangular")
    with pytest.raises(ValueError):
        assemble_brinkman(mesh, 0.0, 0.0, FLOW.source(0.0, 0.0))
    with pytest.raises(ValueError):
        assemble_brinkman(mesh, -1.0, 1.0, FLOW.source(1.0, 1.0))
    with pytest.raises(ValueError):
        assemble_fourth_order(mesh, -0.5, CASE.source(1.0))


def test_brinkman_divergence_block_is_the_signed_edge_incidence():
    # The pressure rows hold -B, and B is the DoF map's edge signs on each
    # cell's edge DoFs: exactly +-1, with no entry on a vertex DoF.
    mesh = make_mesh(8, "random", seed=3)
    system = assemble_brinkman(mesh, 1.0, 1.0, FLOW.source(1.0, 1.0))
    n_u, dm = system.n_velocity, system.dofmap
    B = -system.matrix[n_u:n_u + system.n_pressure, :n_u].toarray()
    want = np.zeros_like(B)
    free = dm.cell_dofs[:, :4] >= 0
    cells = np.broadcast_to(np.arange(mesh.n_cells)[:, None], free.shape)
    want[cells[free], dm.cell_dofs[:, :4][free]] = dm.cell_signs[:, :4][free]
    assert np.array_equal(B, want)
    assert np.array_equal(-system.matrix[:n_u, n_u:n_u + system.n_pressure].toarray(), want.T)
    # The map's incidence is that block, and the divergence is it over the areas.
    incidence = dm.incidence()
    assert np.array_equal(incidence.toarray(), B)
    block = -system.matrix[n_u:n_u + system.n_pressure, :n_u]
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(incidence, name), getattr(block, name)), name
    D, _ = divergence_matrix(mesh)
    assert np.array_equal(D.indices, incidence.indices)
    assert np.allclose(D.multiply(mesh.cell_geometry.area[:, None]).toarray(), B,
                       rtol=0, atol=1e-15)  # (1 / a) * a is within an ulp of 1


@pytest.mark.parametrize("kind", ["scalar", "brinkman"])
@pytest.mark.parametrize("part", ["matrix", "rhs"])
def test_system_that_does_not_match_its_map_is_refused(kind, part):
    # Two interior vertices: six scalar DoFs, or a Brinkman system of 4 + 7
    # velocity, 3 pressure and one multiplier unknowns.
    mesh = make_mesh(3, "rectangular")
    dm = ScalarDofMap(mesh) if kind == "scalar" else VectorDofMap(mesh)
    n = dm.ndof if kind == "scalar" else dm.ndof + mesh.n_cells + 1
    matrix, rhs = sp.identity(n, format="csr"), np.ones(n)
    SparseSystem(matrix, rhs, dm)
    if part == "matrix":
        matrix, got, want = sp.identity(n + 1, format="csr"), (n + 1, n + 1), (n, n)
    else:
        rhs, got, want = np.ones(n - 1), (n - 1,), (n,)
    message = f"{part} of shape {got} does not match the {kind} DoF map, which needs shape {want}"
    with pytest.raises(ValueError, match=re.escape(message)):
        SparseSystem(matrix, rhs, dm)


MESH = make_mesh(4, "rectangular")


def _zero_flow(x, y):
    return np.zeros(np.shape(x) + (2,))


def _shape_error(name, shape):
    return (rf"source {name} must return real numbers of shape \({shape}\) "
            r"on points of shape \(16, 16\), ")


@pytest.mark.parametrize("assemble, message", [
    (lambda f: assemble_fourth_order(MESH, 1.0, f), _shape_error("f", "16, 16")),
    (lambda f: assemble_brinkman(MESH, 1.0, 1.0, f), _shape_error("f", "16, 16, 2")),
    (lambda g: assemble_brinkman(MESH, 1.0, 1.0, _zero_flow, g), _shape_error("g", "16, 16")),
], ids=["scalar-f", "brinkman-f", "brinkman-g"])
def test_constant_source_is_rejected_by_name(assemble, message):
    with pytest.raises(ValueError, match=message + r"got float64 of shape \(\)"):
        assemble(lambda x, y: 1.0)


def test_scalar_source_of_vector_values_is_rejected_by_name():
    message = _shape_error("f", "16, 16") + r"got float64 of shape \(16, 16, 2\)"
    with pytest.raises(ValueError, match=message):
        assemble_fourth_order(MESH, 1.0, FLOW.source(1.0, 1.0))


def test_brinkman_source_of_scalar_values_is_rejected_by_name():
    message = _shape_error("f", "16, 16, 2") + r"got float64 of shape \(16, 16\)"
    with pytest.raises(ValueError, match=message):
        assemble_brinkman(MESH, 1.0, 1.0, CASE.source(1.0))


@pytest.mark.parametrize("value, dtype", [("1", "<U1"), (1j, "complex128"), (None, "object")])
def test_non_real_source_is_rejected_by_name(value, dtype):
    message = _shape_error("f", "16, 16") + f"got {dtype} of shape \\(16, 16\\)"
    with pytest.raises(ValueError, match=message):
        assemble_fourth_order(MESH, 1.0, lambda x, y: np.full(x.shape, value))


# Cells of the last column (x from 0.75 to 1) have quadrature points past
# x = 0.9; the first of them in mesh order is the one named.
LAST_COLUMN = int(np.flatnonzero(MESH.cell_geometry.vertices[..., 0].max(-1) == 1.0)[0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("assemble, name", [
    (lambda f: assemble_fourth_order(MESH, 1.0, f), "f"),
    (lambda f: assemble_brinkman(MESH, 1.0, 1.0, lambda x, y: np.stack([f(x, y), x], -1)), "f"),
    (lambda g: assemble_brinkman(MESH, 1.0, 1.0, _zero_flow, g), "g"),
], ids=["scalar-f", "brinkman-f", "brinkman-g"])
def test_non_finite_source_names_its_first_cell(assemble, name, bad):
    # Raised at assembly, before anything is factored (it used to surface
    # from the solve as a SolverError that named nothing).
    assert LAST_COLUMN > 0
    with pytest.raises(ValueError, match=f"cell {LAST_COLUMN}: source {name} is not finite"):
        assemble(lambda x, y: np.where(x > 0.9, bad, x))


@pytest.mark.parametrize("value", ["1", True, None, np.nan, -1.0, np.inf])
@pytest.mark.parametrize("assemble, name", [
    (lambda v: assemble_fourth_order(MESH, v, CASE.source(1.0)), "eps"),
    (lambda v: assemble_brinkman(MESH, v, 1.0, _zero_flow), "nu"),
    (lambda v: assemble_brinkman(MESH, 1.0, v, _zero_flow), "alpha"),
], ids=["eps", "nu", "alpha"])
def test_bad_coefficients_are_named(assemble, name, value):
    # A string used to raise TypeError from the comparison, and True passed.
    with pytest.raises(ValueError, match=f"^{name} must be finite and non-negative, got "):
        assemble(value)


@pytest.mark.parametrize("value", [1, 9, 2.5, True])
@pytest.mark.parametrize("assemble", [
    lambda v: assemble_fourth_order(MESH, 1.0, CASE.source(1.0), quad_order=v),
    lambda v: assemble_brinkman(MESH, 1.0, 1.0, _zero_flow, quad_order=v),
], ids=["fourth_order", "brinkman"])
def test_bad_quad_order_is_named(assemble, value):
    # Checked by name before any DoF map or rule is built; the rule itself
    # used to name it "per-axis order g".
    with pytest.raises(ValueError, match=rf"^quad_order must .*, got {re.escape(repr(value))}$"):
        assemble(value)


def test_coefficients_take_numpy_floats():
    want = assemble_fourth_order(MESH, 0.5, CASE.source(0.5)).matrix
    got = assemble_fourth_order(MESH, np.float64(0.5), CASE.source(0.5)).matrix
    assert np.array_equal(got.toarray(), want.toarray())


def test_solve_round_trip():
    mesh = make_mesh(4, "rectangular")
    system = assemble_fourth_order(mesh, 1.0, CASE.source(1.0))
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal(system.ndof)
    system.rhs = system.matrix @ x0
    x = solve(system)
    assert np.linalg.norm(x - x0) / np.linalg.norm(x0) < 1e-9


def test_scalar_solve_is_plain_lu():
    # The scalar path factors the matrix as it is, so its rounding is pinned.
    system = assemble_fourth_order(make_mesh(8, "random", seed=3), 1.0, CASE.source(1.0))
    want = spla.splu(system.matrix.tocsc()).solve(system.rhs)
    assert np.array_equal(solve(system), want)


def test_solver_error_on_singular():
    K = sp.csr_matrix(np.zeros((3, 3)))  # one interior vertex: three scalar DoFs
    system = SparseSystem(K, np.ones(3), ScalarDofMap(make_mesh(2, "rectangular")))
    with pytest.raises(SolverError):
        solve(system)


@pytest.mark.parametrize("nu,alpha", [(0.0, 1.0), (1.0, 0.0)])
def test_divergence_free_solution(nu, alpha):
    # With g = 0 the solved velocity is exactly divergence free cellwise.
    mesh = make_mesh(4, "trapezoidal")
    system = assemble_brinkman(mesh, nu, alpha, FLOW.source(nu, alpha))
    x = solve(system)
    u, p, lam = system.split(x)
    geom = mesh.cell_geometry
    elt = build_vector_element(QuadGeometry(geom.local_vertices))
    c = system.dofmap.gather(u) * vector_dof_scaling(geom.h)
    div_val = (c * elt.divergence()[0]).sum(-1) / geom.h
    assert np.abs(div_val).max() <= 1e-10 * max(np.linalg.norm(u), 1.0)


def test_pressure_mean_zero():
    mesh = make_mesh(4, "random", seed=6)
    system = assemble_brinkman(mesh, 0.0, 1.0, FLOW.source(0.0, 1.0))
    x = solve(system)
    _, p, lam = system.split(x)
    assert abs(mesh.cell_geometry.area @ p) < 1e-12
    assert abs(lam) < 1e-9


def test_commuting_interpolation_preserves_divergence_form():
    # b(interp v, q) = b(v, q) for piecewise-constant q: per cell, the
    # divergence integral of the interpolant equals the boundary flux.
    mesh = make_mesh(4, "random", seed=4)
    geom = mesh.cell_geometry
    elt = build_vector_element(QuadGeometry(geom.local_vertices))
    sigma = vector_dof_values(geom, FLOW.velocity)
    div_const = ((sigma * vector_dof_scaling(geom.h)) * elt.divergence()[0]).sum(-1) / geom.h
    flux = sigma[:, :4].sum(-1)
    assert np.abs(div_const * geom.area - flux).max() < 1e-10


def test_quadrature_insensitivity_of_orders():
    from quadseq.study import run_scalar_study
    orders = []
    for g in (4, 6):
        r = run_scalar_study(eps=1.0, n_list=[4, 8, 16], quad_order=g,
                             error_quad_order=8)
        orders.append(r.order_last("energy"))
    assert abs(orders[0] - orders[1]) <= 0.02


def _gram_matrices(mesh, g=4):
    """Unit-shape (h-scaled) Hessian and gradient Gram matrices of every cell."""
    unit = mesh.unit_geometry
    pts, _, w = unit_shape_rule(mesh.cell_geometry, unit, g)
    _, grad, hess = build_scalar_element(unit).tabulate(pts)
    return (np.einsum("nq,nqicd,nqjcd->nij", w, hess, hess),
            np.einsum("nq,nqic,nqjc->nij", w, grad, grad))


def test_rectangular_cells_share_local_matrices():
    # Square cells of every level have one unit shape, so the batched local
    # matrices of all cells agree after h-scaling.
    ref = [m[0] for m in _gram_matrices(make_mesh(2, "rectangular"))]
    for n in (2, 4):
        for got, want in zip(_gram_matrices(make_mesh(n, "rectangular")), ref):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("family", ["rectangular", "trapezoidal", "random"])
def test_biharmonic_matrix_is_the_hessian_term_at_eps_one(family):
    # The biharmonic mode forms its local matrices in the order of the eps
    # mode, with eps^2 = 1 and without the gradient term: (A / h^2) times
    # lambda lambda^T, bit for bit. So by linearity its matrix is
    # K(eps = 1) - K(eps = 0), and it is the (lambda lambda^T A) / h^2 that
    # the mode used to form, up to rounding.
    mesh = make_mesh(8, family, seed=1)
    f = CASE.source_biharmonic()
    bih, eps_one = (assemble_fourth_order(mesh, 1.0, f, biharmonic=b) for b in (True, False))
    K = bih.matrix
    scale = abs(K).max()
    assert abs(K - (eps_one.matrix - assemble_fourth_order(mesh, 0.0, f).matrix)).max() \
        <= 1e-13 * scale
    A_hat, _ = _gram_matrices(mesh)
    h, dofs = mesh.cell_geometry.h, bih.dofmap.cell_dofs
    lam = assembly.scalar_dof_scaling(h)
    scaling, h2 = lam[:, :, None] * lam[:, None, :], _pow2(h[:, None])[..., None]

    def scatter(K_loc):
        return assembly.cell_matrix(K.shape, [(dofs[:, :, None], dofs[:, None, :], K_loc)])

    same = scatter(scaling * (A_hat / h2)).tocsr().tocsc()  # as SparseSystem stores it
    assert np.array_equal(same.indptr, K.indptr) and np.array_equal(same.indices, K.indices)
    assert np.array_equal(same.data, K.data)
    assert abs(K - scatter(scaling * A_hat / h2)).max() <= 1e-13 * scale
    assert np.array_equal(bih.rhs, eps_one.rhs)


def _refined_bordered(system):
    """Test oracle: LU of the whole bordered matrix plus one refinement step."""
    K, b = system.matrix.tocsc(), system.rhs
    lu = spla.splu(K)
    x = lu.solve(b)
    return x + lu.solve(b - K @ x)


def _rel(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize("family", ["rectangular", "trapezoidal", "random"])
@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("nu,alpha", [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0**-12, 1.0)])
def test_brinkman_solve_matches_refined_bordered_lu(family, n, nu, alpha):
    system = assemble_brinkman(make_mesh(n, family, seed=3), nu, alpha, FLOW.source(nu, alpha))
    x, x_ref = solve(system), _refined_bordered(system)
    u, p, _ = system.split(x)
    u_ref, p_ref, _ = system.split(x_ref)
    assert _rel(u, u_ref) <= 1e-10
    assert _rel(p, p_ref) <= 1e-10
    # As small a bordered residual as the refined LU of the whole matrix:
    # without its refinement step the solve leaves 5 to 1900 times more.
    assert _rel(system.matrix @ x, system.rhs) <= 2 * _rel(system.matrix @ x_ref, system.rhs)


def test_brinkman_solve_with_incompatible_divergence():
    # g = 1 + x has mean 3/2 on the unit square. Summing the pressure rows,
    # -B u - c lam = -int_K g, gives lam = int g / |Omega|.
    mesh = make_mesh(8, "random", seed=3)
    system = assemble_brinkman(mesh, 1.0, 1.0, FLOW.source(1.0, 1.0), g=lambda x, y: 1.0 + x)
    x = solve(system)
    resid = np.linalg.norm(system.matrix @ x - system.rhs) / np.linalg.norm(system.rhs)
    assert resid <= 1e-9
    u, p, lam = system.split(x)
    area = mesh.cell_geometry.area
    assert abs(area @ p) <= 1e-12
    assert abs(lam - 1.5 / area.sum()) <= 1e-12
    u_ref, p_ref, lam_ref = system.split(_refined_bordered(system))
    assert _rel(u, u_ref) <= 1e-10
    assert _rel(p, p_ref) <= 1e-10
    assert abs(lam - lam_ref) <= 1e-10 * abs(lam_ref)


def test_brinkman_divergence_source_without_velocity_dofs():
    # One cell has no free velocity DoF, so the load sums over no DoF; the
    # divergence source must still enter a float right-hand side.
    mesh = Mesh([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2, 3]])
    system = assemble_brinkman(mesh, 1.0, 1.0, FLOW.source(1.0, 1.0), g=lambda x, y: 1.0 + x)
    assert system.n_velocity == 0
    assert system.rhs.dtype == np.float64
    _, p, lam = system.split(solve(system))
    assert np.array_equal(p, [0.0])
    assert lam == pytest.approx(1.5, rel=1e-14)


def test_brinkman_solve_round_trip():
    # A right-hand side K x0 with a nonzero border entry: pressures with a
    # nonzero mean and a nonzero multiplier.
    system = assemble_brinkman(make_mesh(8, "random", seed=5), 1.0, 1.0, FLOW.source(1.0, 1.0))
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal(system.ndof)
    x0[system.n_velocity:-1] += 2.0
    x0[-1] = 0.7
    system.rhs = system.matrix @ x0
    assert abs(system.rhs[-1]) > 1.0
    x = solve(system)
    assert np.linalg.norm(x - x0) / np.linalg.norm(x0) < 1e-9


class _RecordingSpla:
    """Stand-in for ``scipy.sparse.linalg`` that records every ``splu`` call."""

    def __init__(self):
        self.calls = []

    def splu(self, A, *args, **kwargs):
        lu = spla.splu(A, *args, **kwargs)
        self.calls.append((A, lu))
        return lu


def test_brinkman_solve_factors_once_without_border(monkeypatch):
    # Two factors, neither of the saddle block nor its border: the pinned
    # cell graph matrix B B^T and the stream-function matrix C^T A C.
    recorder = _RecordingSpla()
    monkeypatch.setattr(assembly, "spla", recorder)
    mesh = make_mesh(8, "trapezoidal")
    system = assemble_brinkman(mesh, 1.0, 0.0, FLOW.source(1.0, 0.0))
    solve(system)
    assert sorted(A.shape for A, _ in recorder.calls) == [
        (mesh.n_cells - 1, mesh.n_cells - 1),
        (3 * mesh.n_interior_vertices, 3 * mesh.n_interior_vertices),
    ]
    assert all(lu.L.nnz + lu.U.nnz > 0 for _, lu in recorder.calls)


def test_brinkman_solve_factors_the_stream_matrix_first(monkeypatch):
    # Factoring C^T A C before the pinned B B^T lowers the peak RSS of the
    # Stokes study on rectangular meshes to n = 64 by about 1 MB.
    factor, shapes = assembly._factor_spd, []

    def recording(M):
        shapes.append(M.shape)
        return factor(M)

    monkeypatch.setattr(assembly, "_factor_spd", recording)
    mesh = make_mesh(8, "random", seed=3)
    solve(assemble_brinkman(mesh, 1.0, 0.0, FLOW.source(1.0, 0.0)))
    n_s = 3 * mesh.n_interior_vertices
    assert shapes == [(n_s, n_s), (mesh.n_cells - 1, mesh.n_cells - 1)]


def test_scalar_solve_factors_the_stored_matrix_without_a_copy(monkeypatch):
    recorder = _RecordingSpla()
    monkeypatch.setattr(assembly, "spla", recorder)
    system = assemble_fourth_order(make_mesh(8, "random", seed=3), 1.0, CASE.source(1.0))
    solve(system)
    [(A, _)] = recorder.calls
    assert A is system.matrix
    assert A.format == "csc"


def _copied_block_solve(system):
    """Test oracle: the stream-function solve of ``assembly._StreamSolver``
    with the velocity block A copied out of K by slicing."""
    K, n_u, n = system.matrix, system.n_velocity, system.ndof
    vel, pres = slice(0, n_u), slice(n_u, n - 1)
    A, B = K[vel, vel], -K[pres, vel]
    c = -K[pres, n - 1].toarray()[:, 0]
    C = curl_operator(ScalarDofMap(system.dofmap.mesh), system.dofmap)
    stream = assembly._factor_spd(C.T @ (A @ C))
    graph = assembly._factor_spd((B @ B.T)[1:, 1:])

    def pinned(r):
        q = np.zeros(len(r))
        q[1:] = graph.solve(r[1:])
        return q

    def sweep(r):
        r_u, r_p = r[vel], r[pres]
        lam = -r_p.sum() / c.sum()
        u = B.T @ pinned(-r_p - lam * c)
        u += C @ stream.solve(C.T @ (r_u - A @ u))
        p = pinned(B @ (A @ u - r_u))
        p += (-r[-1] - c @ p) / c.sum()
        return np.concatenate([u, p, [lam]])

    x = sweep(system.rhs)
    return x + sweep(system.rhs - K @ x)


@pytest.mark.parametrize("family", ["rectangular", "trapezoidal", "random"])
@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_stream_solver_reads_the_velocity_block_in_place(family, alpha):
    system = assemble_brinkman(make_mesh(16, family, seed=3), 1.0, alpha,
                               FLOW.source(1.0, alpha), g=FLOW.divergence)
    solver = assembly._StreamSolver(system)
    K = system.matrix
    assert np.shares_memory(solver.rows.data, K.data)
    assert np.shares_memory(solver.rows.indices, K.indices)
    assert np.shares_memory(solver.rows.indptr, K.indptr)
    assert not hasattr(solver, "A")
    assert np.array_equal(solver.solve(system.rhs), _copied_block_solve(system))


class _Events:
    """Records, in order, the memory release, ``_factor_spd`` and ``splu``."""

    def __init__(self, monkeypatch):
        self.events = []
        factor = assembly._factor_spd
        monkeypatch.setattr(assembly, "_release_freed_memory",
                            lambda: self.events.append("release"))
        monkeypatch.setattr(assembly, "_factor_spd",
                            lambda M: self.events.append("factor") or factor(M))
        monkeypatch.setattr(assembly, "spla", self)

    def splu(self, A, *args, **kwargs):
        self.events.append("splu")
        return spla.splu(A, *args, **kwargs)


def _system(kind):
    mesh = make_mesh(8, "random", seed=3)
    if kind == "scalar":
        return assemble_fourth_order(mesh, 1.0, CASE.source(1.0))
    return assemble_brinkman(mesh, 1.0, 1.0, FLOW.source(1.0, 1.0), g=FLOW.divergence)


@pytest.mark.parametrize("kind, want", [
    ("scalar", ["release", "splu"]),
    # released once, before the stream factor; the graph factor is small
    ("brinkman", ["release", "factor", "splu", "factor", "splu"]),
])
def test_freed_memory_is_released_before_the_first_factor(kind, want, monkeypatch):
    system = _system(kind)
    events = _Events(monkeypatch)
    solve(system)
    assert events.events == want


@pytest.mark.parametrize("kind", ["scalar", "brinkman"])
def test_solve_without_malloc_trim_is_bitwise_equal(kind, monkeypatch):
    system = _system(kind)
    x = solve(system)
    monkeypatch.setattr(assembly, "_malloc_trim", None)
    assert np.array_equal(solve(system), x)


def test_only_the_spla_seam_holds_scipy():
    # scipy is imported where it is used, and the one module global that
    # holds it is the seam ``assembly.spla``, which tests and tracers replace.
    mesh = make_mesh(4, "random", seed=1)
    solve(assemble_fourth_order(mesh, 1.0, CASE.source(1.0)))
    solve(assemble_brinkman(mesh, 1.0, 1.0, FLOW.source(1.0, 1.0), g=FLOW.divergence))
    held = sorted(f"{name}.{attr}" for name, module in list(sys.modules.items())
                  if name.partition(".")[0] == "quadseq"
                  for attr, value in vars(module).items()
                  if isinstance(value, types.ModuleType)
                  and value.__name__.partition(".")[0] == "scipy")
    assert held == ["quadseq.assembly.spla"]
    with pytest.raises(AttributeError, match="has no attribute 'sp'"):
        assembly.sp


@pytest.mark.skipif(assembly._malloc_trim is None, reason="the C library has no malloc_trim")
def test_malloc_trim_declares_its_signature():
    # int malloc_trim(size_t pad): without argtypes ctypes would pass a
    # Python int as a C int.
    assert assembly._malloc_trim.argtypes == [ctypes.c_size_t]
    assert assembly._malloc_trim.restype is ctypes.c_int


def _annulus():
    """The 5 x 5 grid of the unit square without its centre cell: Euler
    characteristic 0, so the curls miss a divergence-free velocity."""
    mesh = make_mesh(5, "rectangular")
    return Mesh(mesh.vertices, np.delete(mesh.cells, 12, axis=0))


def test_brinkman_solve_rejects_a_mesh_with_a_hole(monkeypatch):
    recorder = _RecordingSpla()
    monkeypatch.setattr(assembly, "spla", recorder)
    mesh = _annulus()
    assert mesh.euler_characteristic() == 0
    system = assemble_brinkman(mesh, 1.0, 1.0, FLOW.source(1.0, 1.0))
    with pytest.raises(ValueError, match="Euler characteristic 0"):
        solve(system)
    assert recorder.calls == []


def test_brinkman_solve_on_one_interior_vertex():
    # n = 2: three scalar DoFs, so C^T A C is 3 x 3. The symmetric flow
    # source leaves p = 0 here, so the data come from a random solution.
    system = assemble_brinkman(make_mesh(2, "rectangular"), 1.0, 1.0, FLOW.source(1.0, 1.0))
    system.rhs = system.matrix @ np.random.default_rng(2).standard_normal(system.ndof)
    u, p, lam = system.split(solve(system))
    u_ref, p_ref, lam_ref = system.split(_refined_bordered(system))
    assert _rel(u, u_ref) <= 1e-10
    assert _rel(p, p_ref) <= 1e-10
    assert abs(lam - lam_ref) <= 1e-12


def test_solver_error_on_singular_brinkman(monkeypatch):
    # A hand-built Brinkman system whose velocity block vanishes is singular.
    monkeypatch.setattr(assembly, "spla", _RecordingSpla())
    system = assemble_brinkman(make_mesh(4, "rectangular"), 1.0, 1.0, FLOW.source(1.0, 1.0))
    K = system.matrix.tolil()
    K[:system.n_velocity, :system.n_velocity] = 0.0
    singular = SparseSystem(K.tocsr(), system.rhs, system.dofmap)
    with pytest.raises(SolverError):
        solve(singular)


# Peak traced allocation of one assembly on a random n = 32 mesh, after a
# warm-up that fills the mesh's cached geometry. With the element work in
# 64-cell tasks it reads 8.6-9.9 MB (scalar) and 8.6-9.3 MB (Brinkman) over
# twenty assemblies each in five processes; it varies with how the tasks of
# the two worker threads overlap. The bounds sit about 15 % above the
# largest values. All figures were measured with NumPy 2.4.6 and SciPy
# 1.17.1: the peak includes what scipy's COO constructor and CSR conversion
# allocate, which other versions may change.
@pytest.mark.parametrize("assemble, bound_mb", [
    (lambda mesh: assemble_fourth_order(mesh, 1.0, CASE.source(1.0)), 11.5),
    (lambda mesh: assemble_brinkman(mesh, 1.0, 1.0, FLOW.source(1.0, 1.0),
                                    g=FLOW.divergence), 10.5),
], ids=["scalar", "brinkman"])
def test_assembly_peak_memory(assemble, bound_mb):
    mesh = make_mesh(32, "random", seed=1)
    assemble(mesh)
    tracemalloc.start()
    try:
        assemble(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2**20 < bound_mb
