"""Differential checks against values recorded from the per-cell implementation.

``golden_batched.json`` holds study errors, element coefficients, sequence
ranks, the inf-sup constant and random-mesh hashes as computed before cell
geometry, element construction, assembly and error norms were batched over
cells. Floats must agree to 1e-10 relative; coefficient matrices are
compared relative to their largest entry, since entries that are zero in
exact arithmetic carry rounding noise of either sign.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import quadseq.mesh as qmesh
from quadseq.elements import build_scalar_element, build_vector_element
from quadseq.geometry import QuadGeometry
from quadseq.mesh import make_mesh
from quadseq.poly import MONOMIALS
from quadseq.sequence import inf_sup_constant, verify_exact_sequence
from quadseq.study import run_brinkman_study, run_scalar_study

GOLDEN = json.loads((Path(__file__).parent / "golden_batched.json").read_text())
RTOL = 1e-10


def _assert_close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=RTOL * np.abs(want).max())


@pytest.mark.parametrize("key", sorted(GOLDEN["studies"]))
def test_study_errors_match_golden(key):
    problem, family = key.split("/")
    kwargs = dict(family=family, n_list=GOLDEN["n_list"], seed=GOLDEN["seed"])
    if problem == "scalar":
        report = run_scalar_study(eps=1.0, **kwargs)
    else:
        report = run_brinkman_study(nu=1.0, alpha=0.0, **kwargs)
    for norm, want in GOLDEN["studies"][key].items():
        np.testing.assert_allclose(report.errors[norm], want, rtol=RTOL, atol=0)


def test_element_coefficients_match_golden():
    # The golden coefficients were recorded on the 45 monomials of degree
    # <= 8; the table now stops at degree 6, its first 28 monomials, and the
    # recorded coefficients of degrees 7 and 8 are exact zeros.
    ref = GOLDEN["elements"]
    m = len(MONOMIALS)
    for k, verts in enumerate(ref["vertices"]):
        geom = QuadGeometry(verts)
        se = build_scalar_element(geom)
        ve = build_vector_element(geom)
        for got, key in ((se.coeff_matrix, "coeff_matrix"), (ve.coeff_x, "coeff_x"),
                         (ve.coeff_y, "coeff_y")):
            want = np.asarray(ref[key][k], dtype=float)
            assert want.shape[-1] == 45
            assert not want[..., m:].any()
            _assert_close(got, want[..., :m])
        _assert_close(ve.divergence()[0], ref["div_constants"][k])


def test_sequence_ranks_and_inf_sup_match_golden():
    ref = GOLDEN["sequence"]
    mesh = make_mesh(ref["n"], "random", seed=GOLDEN["seed"])
    rep = verify_exact_sequence(mesh)
    assert [rep.rank_div, rep.nullity_div, rep.rank_curl, rep.rank_combined] == ref["ranks"]
    assert inf_sup_constant(mesh) == pytest.approx(ref["beta_h"], rel=RTOL, abs=0)


@pytest.mark.parametrize("key", sorted(GOLDEN["mesh_hashes"]))
def test_random_mesh_hash_matches_golden(key):
    n, seed = (int(t) for t in key.split("/"))
    assert make_mesh(n, "random", seed=seed).content_hash() == GOLDEN["mesh_hashes"][key]


def test_forced_repair_draws_in_recorded_order(monkeypatch):
    # Flag fixed cells non-convex on the first repair pass only: their
    # interior vertices are redrawn, and the mesh hash pins the draw order.
    ref = GOLDEN["forced_repair"]
    real = qmesh._convexity_shape
    passes = []

    def flagged(cell_vertices):
        shape = real(cell_vertices)
        if not passes:
            shape[ref["cells"]] = np.inf
        passes.append(1)
        return shape

    monkeypatch.setattr(qmesh, "_convexity_shape", flagged)
    mesh = make_mesh(ref["n"], "random", seed=ref["seed"])
    assert len(passes) == 2
    assert mesh.content_hash() == ref["hash"]
