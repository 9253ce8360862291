import numpy as np
import pytest

from quadseq.dofmap import ScalarDofMap, VectorDofMap
from quadseq.mesh import make_mesh
from quadseq.sequence import (
    curl_matrix,
    divergence_matrix,
    inf_sup_constant,
    verify_exact_sequence,
)


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
    report = verify_exact_sequence(make_mesh(n, family, seed=seed))
    assert report.passed, report.checks
    assert report.rank_div == report.dims["pressure"]
    assert report.nullity_div == report.dims["scalar"]
    assert report.sv_gap > 1e6


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
    assert np.abs(D @ C).max() < 1e-12
    assert np.linalg.matrix_rank(C) == sdm.ndof


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
    assert np.array_equal(curl_matrix(mesh)[0], _loop_curl_matrix(mesh))


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
