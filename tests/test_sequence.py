import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import quadseq.sequence as sequence
from quadseq.assembly import (
    DEFAULT_QUAD_ORDER,
    cell_matrix,
    scalar_dof_scaling,
    vector_dof_scaling,
    velocity_blocks,
)
from quadseq.cases import brinkman_sin_stream
from quadseq.dofmap import ScalarDofMap, VectorDofMap
from quadseq.elements import _build_pair, build_vector_element, vector_dof_values
from quadseq.geometry import QuadGeometry
from quadseq.mesh import Mesh, make_mesh
from quadseq.poly import DX, DY, vandermonde
from quadseq.sequence import (
    _incidence_rank,
    _rotated_gradient_dofs,
    curl_matrix,
    divergence_matrix,
    inf_sup_constant,
    verify_exact_sequence,
)
from quadseq.verify import _curl_dofs

CUTOFF = 1e-9  # relative singular-value cut of the dense oracles' ranks


def _strict_loads(text):
    """json.loads that rejects NaN and Infinity."""
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def _stacked_rank(D, C):
    """Dense oracle: rank [C | ker D] from a full SVD of the dense D, its
    kernel basis and an SVD of the stack, each rank at the relative cut
    CUTOFF. C is sparse, as ``curl_matrix`` returns it."""
    _, s, Vt = np.linalg.svd(D)
    rank_div = int((s > CUTOFF * s[0]).sum())
    s = np.linalg.svd(np.hstack([C.toarray(), Vt[rank_div:].T]), compute_uv=False)
    return int((s > CUTOFF * s[0]).sum())


def test_smallest_mesh_dimensions():
    mesh = make_mesh(2, "rectangular")
    report = verify_exact_sequence(mesh)
    assert report.dims["scalar"] == 3
    assert report.dims["vector"] == 6
    assert report.dims["pressure"] == 3
    assert report.dims["scalar"] - report.dims["vector"] + report.dims["pressure"] == 0
    assert report.nullity_div == 3
    assert report.passed


@pytest.mark.parametrize("family,seed", [
    ("rectangular", 0), ("trapezoidal", 0), ("random", 9),
])
@pytest.mark.parametrize("n", [2, 4])
def test_exactness_across_families(family, seed, n):
    mesh = make_mesh(n, family, seed=seed)
    report = verify_exact_sequence(mesh)
    assert report.passed, report.checks
    assert report.rank_div == report.dims["pressure"]
    assert report.nullity_div == report.dims["scalar"]
    assert report.sv_gap > 1e6
    D = divergence_matrix(mesh)[0].toarray()
    C, _, _ = curl_matrix(mesh)
    assert report.rank_combined == _stacked_rank(D, C)


@pytest.mark.parametrize("direction", ["top", "smallest_kept"])
def test_kernel_count_as_strict_as_stacked_oracle(monkeypatch, direction):
    # Shift one column of C out of ker D along a right singular vector of D:
    # wherever the dense oracle sees the column leave the kernel, B C is not
    # zero, so the certificate counts no rank of [C | ker D].
    mesh = make_mesh(8, "random", seed=3)
    D = divergence_matrix(mesh)[0].toarray()
    C, sdm, vdm = curl_matrix(mesh)
    _, s, Vt = np.linalg.svd(D)
    rank_div = int((s > CUTOFF * s[0]).sum())
    v = Vt[0 if direction == "top" else rank_div - 1]
    flagged = []
    for eps in np.logspace(-14, -4, 11):
        shifted = C.toarray()
        shifted[:, 5] += eps * v
        shifted = sp.csr_matrix(shifted)  # sparse, as curl_matrix returns it
        monkeypatch.setattr(sequence, "curl_matrix", lambda mesh: (shifted, sdm, vdm))
        report = verify_exact_sequence(mesh)
        if _stacked_rank(D, shifted) > report.nullity_div:
            assert report.rank_combined is None, eps
            assert not report.checks["curl_spans_kernel"]
            flagged.append(eps)
    assert flagged and flagged[-1] == 1e-4


def test_certificate_takes_one_value_only_svd(monkeypatch):
    # C and B C stay sparse on a mesh: only D's interior-edge columns are
    # densified, for sv_gap.
    svd, calls = np.linalg.svd, []

    def recording_svd(a, *args, **kwargs):
        calls.append((a.shape, args, kwargs))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    d = verify_exact_sequence(make_mesh(4, "random", seed=9)).dims
    assert calls == [((d["n_cells"], d["interior_edges"]), (), {"compute_uv": False})]


def test_certificate_leaves_csgraph_unimported():
    # The component count is plain numpy, so neither certificate pulls in
    # scipy.sparse.csgraph; a fresh interpreter shows what they import.
    code = """
import sys
from quadseq.mesh import make_mesh
from quadseq.sequence import inf_sup_constant, verify_exact_sequence
mesh = make_mesh(4, "random", seed=0)
assert verify_exact_sequence(mesh).passed
assert inf_sup_constant(mesh) > 0
print("scipy.sparse.csgraph" in sys.modules)
"""
    src = os.path.dirname(os.path.dirname(sequence.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          check=True)
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize("kind,n", [(family, n) for family in ("rectangular", "trapezoidal", "random")
                                     for n in (2, 3, 8, 16)]
                         + [(domain, n) for domain in ("lshape", "punched") for n in (8, 16)])
def test_edge_column_svd_equals_the_full_svd(kind, n):
    # B touches only the edge unknowns, so the certificate's SVD of D's
    # interior-edge columns has the singular values of the full D.
    if kind in ("lshape", "punched"):
        mesh = _off_the_square(kind, n)
    else:
        mesh = make_mesh(n, kind, seed=9 if kind == "random" else 0)
    D, vdm = divergence_matrix(mesh)
    edge = vdm.edge_dofs[vdm.edge_dofs >= 0]
    assert D[:, np.setdiff1d(np.arange(vdm.ndof), edge)].nnz == 0
    report = verify_exact_sequence(mesh)
    r = report.rank_div
    full = np.linalg.svd(D.toarray(), compute_uv=False)
    part = np.linalg.svd(D[:, edge].toarray(), compute_uv=False)
    assert np.all(np.abs(part[:r] - full[:r]) <= 1e-13 * full[:r])
    assert report.sv_gap == (part[r - 1] / part[r] if r < len(part) and part[r] else np.inf)
    assert report.sv_gap >= 1e6
    if r < len(full) and full[r]:
        assert full[r - 1] / full[r] >= 1e6


def test_duplicated_curl_column_is_counted_not_raised(monkeypatch):
    # A duplicated column puts three entries in a row of C, so C is no
    # incidence matrix: its rank is None, which fails injectivity.
    mesh = make_mesh(4, "random", seed=9)
    C, sdm, vdm = curl_matrix(mesh)
    n_s = C.shape[1]
    duplicated = C[:, np.r_[0, 0, 2:n_s]]
    monkeypatch.setattr(sequence, "curl_matrix", lambda mesh: (duplicated, sdm, vdm))
    report = verify_exact_sequence(mesh)
    assert report.rank_curl is None
    assert not report.checks["curl_injective"]
    assert _strict_loads(report.to_json())["rank_curl"] is None


def _dense_ranks(mesh):
    """Dense oracle: rank D, nullity D, rank C and rank [C | ker D] from
    value-only SVDs of the dense D, C and D C, each at the relative cut
    CUTOFF, as ``verify_exact_sequence`` counted them before it counted them
    exactly."""
    def rank(s):
        return int((s > CUTOFF * s[0]).sum()) if len(s) and s[0] else 0

    D = divergence_matrix(mesh)[0].toarray()
    C = curl_matrix(mesh)[0].toarray()
    sv_div = np.linalg.svd(D, compute_uv=False)
    sv_curl = np.linalg.svd(C, compute_uv=False)
    rank_div, rank_curl = rank(sv_div), rank(sv_curl)
    nullity = D.shape[1] - rank_div
    cut = CUTOFF * sv_div[rank_div - 1] * sv_curl[0] if rank_div and rank_curl else 0.0
    rank_combined = nullity + int((np.linalg.svd(D @ C, compute_uv=False) > cut).sum())
    return [rank_div, nullity, rank_curl, rank_combined]


@pytest.mark.parametrize("family,seed", [
    ("rectangular", 0), ("trapezoidal", 0), ("random", 9),
])
@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_ranks_equal_the_dense_oracle(family, seed, n):
    mesh = make_mesh(n, family, seed=seed)
    report = verify_exact_sequence(mesh)
    got = [report.rank_div, report.nullity_div, report.rank_curl, report.rank_combined]
    assert got == _dense_ranks(mesh)


def _subset(mesh, keep):
    """The mesh of the cells ``keep``, without the vertices no kept cell uses."""
    cells = mesh.cells[keep]
    used = np.unique(cells)
    number = np.full(mesh.n_vertices, -1)
    number[used] = np.arange(len(used))
    return Mesh(mesh.vertices[used], number[cells])


def _off_the_square(domain, n):
    """The random mesh (seed 3) without some cells. The L-shape drops the
    cells with centres in (1/2, 1]^2 and is still simply connected; the
    punched mesh drops those with |x - 1/2| and |y - 1/2| below 0.2, so its
    Euler characteristic is 0 and ker D holds one field more than the
    rotated gradients span."""
    mesh = make_mesh(n, "random", seed=3)
    x, y = mesh.vertices[mesh.cells].mean(axis=1).T
    if domain == "lshape":
        return _subset(mesh, (x < 0.5) | (y < 0.5))
    return _subset(mesh, (np.abs(x - 0.5) >= 0.2) | (np.abs(y - 0.5) >= 0.2))


@pytest.mark.parametrize("domain", ["lshape", "punched"])
@pytest.mark.parametrize("n", [8, 16])
def test_ranks_equal_the_dense_oracle_off_the_square(domain, n):
    mesh = _off_the_square(domain, n)
    report = verify_exact_sequence(mesh)
    got = [report.rank_div, report.nullity_div, report.rank_curl, report.rank_combined]
    assert got == _dense_ranks(mesh)
    failing = [k for k, ok in report.checks.items() if not ok]
    if domain == "lshape":
        assert mesh.euler_characteristic() == 1 and failing == []
    else:
        assert mesh.euler_characteristic() == 0
        assert failing == ["nullity_is_scalar_dim", "alternating_sum_zero"]
        assert report.nullity_div == report.rank_curl + 1


def _random_incidence(rng):
    """A sparse matrix of the form ``_incidence_rank`` counts: each row
    empty, one entry of any value, or v and -v, with explicit zeros stored,
    rows repeated and columns that no row touches."""
    n_rows, n_cols = rng.integers(0, 10), rng.integers(1, 9)
    values = [1.0, -1.0, 0.5, -3.0, 1e-3, 7e3]
    used = rng.choice(n_cols, size=rng.integers(1, n_cols + 1), replace=False)
    rows, cols, vals = [], [], []
    for i in range(n_rows):
        kind = rng.integers(3) if len(used) > 1 else rng.integers(2)
        v = rng.choice(values)
        picked = rng.choice(used, size=kind, replace=False)
        rows += [i] * kind
        cols += list(picked)
        vals += [v, -v][:kind]
        if rng.random() < 0.2:  # an explicit zero, which the count drops
            rows.append(i), cols.append(rng.integers(n_cols)), vals.append(0.0)
    M = sp.coo_matrix((vals, (rows, cols)), shape=(n_rows, n_cols)).tocsr()
    repeat = rng.integers(n_rows, size=rng.integers(3)) if n_rows else []
    return sp.vstack([M, M[repeat]]).tocsr() if len(repeat) else M


def test_incidence_rank_equals_the_dense_rank():
    rng = np.random.default_rng(0)
    for draw in range(500):
        M = _random_incidence(rng)
        assert _incidence_rank(M) == np.linalg.matrix_rank(M.toarray()), draw


def _graph_incidence(n_cols, pairs, singles=()):
    """The incidence matrix with one row e_a - e_b per pair (a, b) and one
    row 2 e_a per single a, on n_cols columns, CSR."""
    M = np.zeros((len(pairs) + len(singles), n_cols))
    for i, (a, b) in enumerate(pairs):
        M[i, a], M[i, b] = 1.0, -1.0
    for i, a in enumerate(singles, start=len(pairs)):
        M[i, a] = 2.0
    return sp.csr_matrix(M)


def _hard_graphs():
    rng = np.random.default_rng(1)
    n = 40
    small = [(3 * k, 3 * k + 1) for k in range(13)] + [(3 * k + 1, 3 * k + 2) for k in range(13)]
    return {
        # A path whose every edge joins a node to the next smaller one.
        "decreasing_path": (n, [(k + 1, k) for k in reversed(range(n - 1))], ()),
        # A path through the nodes in random order.
        "shuffled_path": (n, list(zip(p := rng.permutation(n), p[1:])), ()),
        "star": (n, [(0, k) for k in range(1, n)], ()),
        "star_at_the_last_node": (n, [(k, n - 1) for k in range(n - 1)], ()),
        # Thirteen paths of three nodes and one isolated column.
        "many_small_components": (n, small, ()),
        "isolated_columns": (n, [(2, 7), (7, 30)], ()),
        # One-entry rows inside components, twice in one, and on an isolated column.
        "grounded_inside": (n, small, (4, 5, 20, 39)),
        "cycle": (n, [(k, (k + 1) % n) for k in range(n)], (17,)),
    }


@pytest.mark.parametrize("name", list(_hard_graphs()))
def test_incidence_rank_of_hard_graphs(name):
    from scipy.sparse.csgraph import connected_components

    n, pairs, singles = _hard_graphs()[name]
    M = _graph_incidence(n, pairs, singles)
    rank = _incidence_rank(M)
    assert type(rank) is int
    assert rank == np.linalg.matrix_rank(M.toarray())
    # The rank by scipy's component count, as the certificate once took it.
    a, b = zip(*pairs)
    graph = sp.csr_matrix((np.ones(len(pairs)), (a, b)), shape=(n, n))
    n_comp, label = connected_components(graph, directed=False)
    assert rank == n - (n_comp - np.unique(label[list(singles)]).size)


@pytest.mark.parametrize("rows", [
    [[1, 1, 1]],                            # three entries in a row
    [[1, 0, 0], [0, 1, 0], [0, 0, 0], [1, 1, 0]],  # a pair of one sign
    [[2, -1, 0]],                           # a pair of unequal magnitude
])
def test_incidence_rank_of_any_other_matrix_is_none(rows):
    M = sp.csr_matrix(np.array(rows, dtype=float))
    assert _incidence_rank(M) is None
    assert M.nnz == np.count_nonzero(rows)  # the count leaves M as it was


def test_repeated_certificates_are_bitwise_equal():
    mesh = make_mesh(16, "random", seed=3)
    first, second = verify_exact_sequence(mesh), verify_exact_sequence(mesh)
    assert first.to_dict() == second.to_dict()
    assert first.to_json() == second.to_json()


@pytest.mark.parametrize("vertices,cells", [
    ([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2, 3]]),
    ([[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]], [[0, 1, 4, 3], [1, 2, 5, 4]]),
])
def test_meshes_without_interior_vertices(vertices, cells):
    # No scalar DoFs, so C has no columns; one cell leaves D without columns.
    report = verify_exact_sequence(Mesh(vertices, cells))
    assert report.passed, report.checks
    assert report.rank_div == report.dims["pressure"] == len(cells) - 1
    assert report.rank_combined == report.nullity_div == 0


def test_infinite_gap_is_written_as_null():
    # One cell: D has no singular value, so the gap is infinite. The report
    # keeps it as a float, and its JSON holds null, which a strict parser reads.
    report = verify_exact_sequence(Mesh([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2, 3]]))
    assert report.rank_div == 0
    assert isinstance(report.sv_gap, float) and report.sv_gap == np.inf
    doc = _strict_loads(report.to_json())
    assert doc["sv_gap"] is None
    assert doc == report.to_dict()


def test_report_json_rejects_any_other_non_finite_field():
    report = verify_exact_sequence(make_mesh(2, "rectangular"))
    report.div_curl_max = np.nan
    with pytest.raises(ValueError):
        report.to_json()


def _rotated_gradient_field_dofs(geom, scalar_elt, c):
    """Oracle: the vector DoFs (n, 12) of the rotated gradients of the
    scalar fields with unit-shape DoF vectors ``c`` on the cells ``geom``,
    the field evaluated by its monomials at the physical edge Gauss points
    and vertices and integrated by ``vector_dof_values``."""
    h = geom.h[:, None]
    field_x = np.einsum("nj,njm->nm", c, scalar_elt.coeff_matrix @ DY.T) / h
    field_y = np.einsum("nj,njm->nm", c, -(scalar_elt.coeff_matrix @ DX.T)) / h

    def rotated_gradient(x, y):
        V = vandermonde(geom.to_local(np.stack([x, y], axis=-1)))
        return np.stack([np.einsum("nmk,nk->nm", V, f) for f in (field_x, field_y)], axis=-1)

    return vector_dof_values(geom, rotated_gradient)


@pytest.mark.parametrize("family", ["rectangular", "trapezoidal", "random"])
@pytest.mark.parametrize("n", [4, 16, 32])
def test_rotated_gradient_dofs_match_the_field_oracle(family, n):
    # The consistency check reads the DoFs of a rotated gradient off the DoF
    # table S of the rotated scalar basis; the field oracle, evaluated and
    # integrated on the physical cells, agrees to rounding.
    mesh = make_mesh(n, family, seed=3)
    geom = mesh.cell_geometry
    unit = QuadGeometry(geom.local_vertices)
    sdm = ScalarDofMap(mesh)
    w = np.random.default_rng(0).standard_normal(sdm.ndof)
    c = sdm.gather(w) * scalar_dof_scaling(geom.h)
    sc, vc = _build_pair(unit)
    got = _rotated_gradient_dofs(_curl_dofs(unit, sc, vc), c, geom.h)
    want = _rotated_gradient_field_dofs(geom, sc, c)
    assert np.abs(got - want).max() <= 1e-11


def test_divergence_rows_sum_to_zero_weighted():
    # Area-weighted rows of the divergence matrix add to the total flux,
    # which vanishes for every member of the constrained space.
    mesh = make_mesh(4, "trapezoidal")
    D, dm = divergence_matrix(mesh)
    assert np.abs(mesh.cell_geometry.area @ D).max() < 1e-12


@pytest.mark.parametrize("family", ["rectangular", "trapezoidal", "random"])
@pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
def test_divergence_of_curls_is_exactly_zero(family, n):
    # D is the signed edge incidence over the cell areas and C holds +-1, so
    # each entry of D C sums a and -a: zero in floating point, at every size.
    mesh = make_mesh(n, family, seed=3)
    D, _ = divergence_matrix(mesh)
    C, _, _ = curl_matrix(mesh)
    assert (D @ C).count_nonzero() == 0
    assert verify_exact_sequence(mesh).div_curl_max == 0.0


def test_flux_check_flags_a_field_whose_divergence_is_not_its_flux(monkeypatch):
    # Scaling the first edge field of every cell by 1 + 1e-6 keeps its
    # divergence constant, but its divergence no longer integrates to its
    # unit flux; the exact D C = 0 cannot see that, the flux check does.
    build_pair = sequence._build_pair

    def scaled(geom):
        sc, vc = build_pair(geom)
        vc.coeff_x[..., 0, :] *= 1 + 1e-6
        vc.coeff_y[..., 0, :] *= 1 + 1e-6
        return sc, vc

    monkeypatch.setattr(sequence, "_build_pair", scaled)
    report = verify_exact_sequence(make_mesh(4, "random", seed=9))
    assert report.div_flux_residual == pytest.approx(1e-6, rel=1e-6)
    assert not report.checks["divergence_is_flux"]
    assert report.div_curl_max == 0.0


def test_consistency_check_flags_a_curl_matrix_off_the_elements(monkeypatch):
    # Scaling the curl matrix by 1 + 1e-6 keeps D C = 0, every rank and
    # every per-cell identity; only the consistency check, which compares
    # C w with the rotated gradients c . S of the elements, sees it.
    curl_matrix = sequence.curl_matrix

    def scaled(mesh):
        C, sdm, vdm = curl_matrix(mesh)
        return C * (1 + 1e-6), sdm, vdm

    monkeypatch.setattr(sequence, "curl_matrix", scaled)
    report = verify_exact_sequence(make_mesh(4, "random", seed=9))
    assert 1e-8 < report.curl_global_consistency < 1e-4
    assert [k for k, ok in report.checks.items() if not ok] == ["curl_global_consistency"]


def test_curl_lands_in_divergence_kernel():
    mesh = make_mesh(4, "random", seed=1)
    D, _ = divergence_matrix(mesh)
    C, sdm, vdm = curl_matrix(mesh)
    assert sp.issparse(D) and D.format == "csr"
    assert sp.issparse(C) and C.format == "csr"
    assert np.abs((D @ C).toarray()).max() < 1e-12
    assert np.linalg.matrix_rank(C.toarray()) == sdm.ndof


def _loop_curl_matrix(mesh):
    """Reference: the rotated-gradient map assembled vertex by vertex and
    edge by edge."""
    sdm, vdm = ScalarDofMap(mesh), VectorDofMap(mesh)
    C = np.zeros((vdm.ndof, sdm.ndof))
    for v in range(mesh.n_vertices):
        if mesh.vertex_is_boundary[v]:
            continue
        wv, wx, wy = sdm.vertex_dofs[v]
        ux, uy = vdm.vertex_dofs[v]
        C[ux, wy] += 1.0
        C[uy, wx] += -1.0
    for ei in range(mesh.n_edges):
        ed = vdm.edge_dofs[ei]
        if ed < 0:
            continue
        a, b = mesh.edge_vertices[ei]
        for vert, sign in ((a, 1.0), (b, -1.0)):
            wv = sdm.vertex_dofs[vert][0]
            if wv >= 0:
                C[ed, wv] += sign
    return C


@pytest.mark.parametrize("family", ["rectangular", "trapezoidal", "random"])
def test_curl_matrix_equals_loop_reference(family):
    mesh = make_mesh(4, family, seed=6)
    assert np.array_equal(curl_matrix(mesh)[0].toarray(), _loop_curl_matrix(mesh))


def test_probe_divergence_projection_vanishes():
    # The interpolated rotated gradient is divergence free cellwise.
    mesh = make_mesh(4, "rectangular")
    geom = mesh.cell_geometry
    elt = build_vector_element(QuadGeometry(geom.local_vertices))
    sigma = vector_dof_values(geom, brinkman_sin_stream().velocity)
    div_const = ((sigma * vector_dof_scaling(geom.h)) * elt.divergence()[0]).sum(-1) / geom.h
    assert np.abs(div_const).max() < 1e-10


def test_inf_sup_witness_bounded():
    betas = [inf_sup_constant(make_mesh(n, "rectangular")) for n in (4, 8, 16)]
    assert all(b > 0.3 for b in betas)
    # mesh-independence: no collapse under refinement
    assert betas[-1] > 0.8 * betas[0]


def _cell_block_inf_sup(mesh):
    """Dense oracle: beta_h from the per-cell velocity blocks scattered into
    X and B directly, as ``inf_sup_constant`` formed them before it read
    them from the assembled Brinkman matrix, with B from the element's
    divergence constants (area times the constant divergence of each basis
    field), as assembly formed it before it took the edge incidence."""
    dm = VectorDofMap(mesh)
    loc, *_ = velocity_blocks(mesh, dm, 1.0, 1.0, DEFAULT_QUAD_ORDER,
                              lambda x, y: np.zeros(x.shape + (2,)))
    geom = mesh.cell_geometry
    div_constants = build_vector_element(QuadGeometry(geom.local_vertices)).divergence()[0]
    w = vector_dof_scaling(geom.h) * dm.cell_signs
    b_rows = w * div_constants / geom.h[:, None] * geom.area[:, None]
    dofs = dm.cell_dofs
    X = cell_matrix((dm.ndof, dm.ndof), [(dofs[:, :, None], dofs[:, None, :], loc)]).toarray()
    B = cell_matrix((mesh.n_cells, dm.ndof),
                    [(np.arange(mesh.n_cells)[:, None], dofs, b_rows)]).toarray()
    S = B @ np.linalg.solve(X, B.T)
    vals = scipy.linalg.eigh(S, np.diag(mesh.cell_geometry.area), eigvals_only=True)
    return float(np.sqrt(max(vals[1], 0.0)))


@pytest.mark.parametrize("family, seed", [("rectangular", 0), ("trapezoidal", 0),
                                          ("random", 0), ("random", 3)])
def test_inf_sup_equals_the_cell_block_oracle(family, seed):
    # random seed 3 at n = 8 is the mesh of tests/golden_batched.json.
    for n in (8, 16):
        mesh = make_mesh(n, family, seed=seed)
        assert inf_sup_constant(mesh) == pytest.approx(_cell_block_inf_sup(mesh), rel=1e-12,
                                                       abs=0), n


def test_repeated_inf_sup_constants_are_bitwise_equal():
    # eigsh starts from a fixed vector, so the Lanczos run repeats exactly.
    mesh = make_mesh(16, "random", seed=3)
    assert inf_sup_constant(mesh).hex() == inf_sup_constant(mesh).hex()


def test_inf_sup_of_a_mesh_with_a_hole_names_its_euler_characteristic():
    # The 4 x 4 grid without the four cells at its centre vertex (which goes
    # too) has Euler characteristic 0; the stream-function sweep needs 1.
    grid = make_mesh(4, "rectangular")
    cells = np.delete(grid.cells, [5, 6, 9, 10], axis=0)
    centre = 12
    assert not (cells == centre).any()
    mesh = Mesh(np.delete(grid.vertices, centre, axis=0), np.where(cells > centre, cells - 1, cells))
    assert mesh.euler_characteristic() == 0
    with pytest.raises(ValueError, match="needs a mesh of Euler characteristic 1 .* got Euler "
                                         "characteristic 0"):
        inf_sup_constant(mesh)


def test_inf_sup_of_one_cell_names_the_empty_pressure_space():
    # One cell has no mean-zero pressure, so there is nothing to bound.
    mesh = Mesh([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2, 3]])
    with pytest.raises(ValueError, match="mean-zero pressure space .* is empty"):
        inf_sup_constant(mesh)
