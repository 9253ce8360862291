import json

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import quadseq.sequence as sequence
from quadseq.assembly import DEFAULT_QUAD_ORDER, cell_matrix, velocity_blocks
from quadseq.dofmap import ScalarDofMap, VectorDofMap
from quadseq.mesh import Mesh, make_mesh
from quadseq.sequence import (
    CUTOFF,
    curl_matrix,
    divergence_matrix,
    inf_sup_constant,
    verify_exact_sequence,
)


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
    # wherever the dense oracle sees the column leave the kernel, so must the
    # rank-nullity count.
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
            assert report.rank_combined > report.nullity_div, eps
            assert not report.checks["curl_spans_kernel"]
            flagged.append(eps)
    assert flagged and flagged[-1] == 1e-4


def test_certificate_takes_one_value_only_svd(monkeypatch):
    # C and D C stay sparse on a mesh: only D is densified, for sv_gap.
    svd, calls = np.linalg.svd, []

    def recording_svd(a, *args, **kwargs):
        calls.append((a.shape, args, kwargs))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    d = verify_exact_sequence(make_mesh(4, "random", seed=9)).dims
    assert calls == [((d["n_cells"], d["vector"]), (), {"compute_uv": False})]


def test_duplicated_curl_column_is_counted_not_raised(monkeypatch):
    # C^T C is singular, so the sparse injectivity test cannot decide and
    # the rank falls back to the dense count.
    mesh = make_mesh(4, "random", seed=9)
    C, sdm, vdm = curl_matrix(mesh)
    n_s = C.shape[1]
    duplicated = C[:, np.r_[0, 0, 2:n_s]]
    monkeypatch.setattr(sequence, "curl_matrix", lambda mesh: (duplicated, sdm, vdm))
    report = verify_exact_sequence(mesh)
    assert report.rank_curl == n_s - 1
    assert not report.checks["curl_injective"]


def _dense_ranks(mesh):
    """Dense oracle: rank D, nullity D, rank C and rank [C | ker D] from
    value-only SVDs of the dense D, C and D C, as ``verify_exact_sequence``
    counted them before C and D C stayed sparse."""
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

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    doc = json.loads(report.to_json(), parse_constant=reject)
    assert doc["sv_gap"] is None
    assert doc == report.to_dict()


def test_report_json_rejects_any_other_non_finite_field():
    report = verify_exact_sequence(make_mesh(2, "rectangular"))
    report.div_curl_max = np.nan
    with pytest.raises(ValueError):
        report.to_json()


def test_divergence_rows_sum_to_zero_weighted():
    # Area-weighted rows of the divergence matrix add to the total flux,
    # which vanishes for every member of the constrained space.
    mesh = make_mesh(4, "trapezoidal")
    D, dm = divergence_matrix(mesh)
    assert np.abs(mesh.cell_geometry.area @ D).max() < 1e-12


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
    from quadseq.assembly import vector_dof_scaling
    from quadseq.cases import brinkman_sin_stream
    from quadseq.elements import build_vector_element, vector_dof_values
    from quadseq.geometry import QuadGeometry
    mesh = make_mesh(4, "rectangular")
    geom = mesh.cell_geometry
    elt = build_vector_element(QuadGeometry(geom.local_vertices))
    sigma = vector_dof_values(geom, brinkman_sin_stream().velocity)
    div_const = ((sigma * vector_dof_scaling(geom.h)) * elt.div_constants).sum(-1) / geom.h
    assert np.abs(div_const).max() < 1e-10


def test_inf_sup_witness_bounded():
    betas = [inf_sup_constant(make_mesh(n, "rectangular")) for n in (4, 8, 16)]
    assert all(b > 0.3 for b in betas)
    # mesh-independence: no collapse under refinement
    assert betas[-1] > 0.8 * betas[0]


def _cell_block_inf_sup(mesh):
    """Dense oracle: beta_h from the per-cell velocity blocks scattered into
    X and B directly, as ``inf_sup_constant`` formed them before it read
    them from the assembled Brinkman matrix."""
    dm = VectorDofMap(mesh)
    loc, b_rows, *_ = velocity_blocks(mesh, dm, 1.0, 1.0, DEFAULT_QUAD_ORDER,
                                      lambda x, y: np.zeros(x.shape + (2,)))
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
    mesh = make_mesh(8, family, seed=seed)
    assert inf_sup_constant(mesh) == pytest.approx(_cell_block_inf_sup(mesh), rel=1e-12, abs=0)


def test_inf_sup_of_one_cell_names_the_empty_pressure_space():
    # One cell has no mean-zero pressure, so there is nothing to bound.
    mesh = Mesh([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2, 3]])
    with pytest.raises(ValueError, match="mean-zero pressure space .* is empty"):
        inf_sup_constant(mesh)
