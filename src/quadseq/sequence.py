"""Discrete exact-sequence verification and the inf-sup witness.

The three global spaces form the chain

    scalar space --rotated gradient--> vector space --divergence--> pressures

and exactness is an integer statement: the divergence matrix D is onto the
mean-zero pressures, its kernel has the dimension of the scalar space, and
the rotated gradients of the scalar basis span that kernel. D C = 0 holds
exactly: the curl matrix C (+-1) and D (the signed edge incidence over the
cell areas) come from the DoF maps alone. The element enters through two
per-cell identities, which the element certificate (``quadseq.verify``) also
runs: each rotated scalar gradient re-interpolates to itself (C is the curl)
and each vector basis field's divergence integrates to its outward flux (D
is the divergence). They run on the element tasks of assembly
(``assembly._chunk_tasks``), walked on the caller thread by the
certificates' one helper (``verify._max_over_tasks``), once per distinct
unit shape of a chunk, in tasks of ``assembly.TASK_CELLS`` cells where a
chunk's shapes are all distinct, which bounds their temporaries: on a
random mesh with n = 32 the certificate peaks at 129 MB, against 163 MB
with all cells in one batch. The ranks are exact counts
(``_incidence_rank``): each row of C, and each row of B^T, where B is the
vector DoF map's incidence (``VectorDofMap.incidence``) and D = diag(1 /
area) B, is zero or a multiple of e_a or of
e_a - e_b, so each rank counts the components of a graph, and
rank [C | ker D] = nullity(D) when the integer product B C is zero. The
value-only SVD of D, the one dense matrix, gives only the gap at the
counted rank. The inf-sup constant forms no dense matrix: it is the
extreme eigenvalue of an operator that one stream-function sweep of the
Brinkman solve applies, so it needs a mesh of Euler characteristic 1, as
that solve does.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .assembly import _StreamSolver, assemble_brinkman
from .assembly import scalar_dof_scaling, vector_dof_scaling
from .dofmap import ScalarDofMap, VectorDofMap, curl_operator
from .elements import _build_pair
from .mesh import Mesh, _strict_json
from .verify import _curl_dofs, _curl_inclusion_residual, _div_flux_residual, _max_over_tasks

__all__ = [
    "divergence_matrix",
    "curl_matrix",
    "verify_exact_sequence",
    "SequenceReport",
    "inf_sup_constant",
]

TOL = 1e-10  # bound on the residuals of the exact identities


def divergence_matrix(mesh: Mesh):
    """Sparse CSR matrix of the cellwise divergence, vector DoFs -> cell
    constants, with the vector DoF map: the signed edge incidence
    (``VectorDofMap.incidence``) with each row divided by the cell area."""
    dm = VectorDofMap(mesh)
    return _over_area(mesh, dm.incidence()), dm


def _over_area(mesh: Mesh, B):
    """D = diag(1 / area) B, CSR."""
    return B.multiply(1 / mesh.cell_geometry.area[:, None]).tocsr()


def curl_matrix(mesh: Mesh):
    """Sparse CSR map taking scalar DoFs to the vector DoFs of the rotated
    gradient (``dofmap.curl_operator``), with the two DoF maps."""
    sdm, vdm = ScalarDofMap(mesh), VectorDofMap(mesh)
    return curl_operator(sdm, vdm), sdm, vdm


@dataclass
class SequenceReport:
    """The ranks, residuals and checks of ``verify_exact_sequence``.

    The ranks are exact counts. ``rank_curl`` is None when C is not an
    incidence matrix (``_incidence_rank``), and ``rank_combined``, the rank
    of [C | ker D], is None when B C is not zero; a None rank fails every
    check that compares it. ``sv_gap`` is sigma_r / sigma_{r+1} of D at the
    counted rank r = ``rank_div``, infinite when D has no sigma_{r+1} or it
    is zero (as on a one-cell mesh). ``to_dict`` and ``to_json`` write a
    non-finite gap and a None rank as null, so the JSON is strict: it holds
    no NaN or Infinity, and ``to_json`` raises rather than write one.
    sigma_{r+1} is at the rounding level, so ``sv_gap`` depends on the BLAS
    thread count (random mesh, n = 32, seed 3: 5.20e14 with one OpenBLAS
    thread, 3.02e14 with two), while every other field does not.
    """

    dims: dict
    rank_div: int
    nullity_div: int
    rank_curl: int | None
    rank_combined: int | None
    sv_gap: float
    div_curl_max: float
    curl_reinterp_residual: float
    div_flux_residual: float
    curl_global_consistency: float
    checks: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_dict(self) -> dict:
        gap = self.sv_gap if np.isfinite(self.sv_gap) else None
        return {**asdict(self), "sv_gap": gap, "passed": self.passed}

    def to_json(self) -> str:
        return _strict_json(self.to_dict())


def _incidence_rank(M):
    """The exact rank of the sparse M when each of its rows, zeros dropped,
    is empty, one entry or two entries v and -v, and None for any other M.

    Each such row is a nonzero multiple of e_a or of e_a - e_b, so M is the
    incidence matrix of a graph on its columns and one ground node, with
    its rows scaled. Its kernel holds the vectors constant on each component
    of the column graph (one edge per two-entry row) that no one-entry row
    touches, and zero elsewhere, so its rank is the number of columns less
    the number of those components.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    M = M.tocsr(copy=True)
    M.eliminate_zeros()
    starts, counts = M.indptr[:-1], np.diff(M.indptr)
    pairs = starts[counts == 2]
    if counts.max(initial=0) > 2 or np.any(M.data[pairs] + M.data[pairs + 1] != 0):
        return None
    n = M.shape[1]
    edges = csr_matrix((np.ones(len(pairs)), (M.indices[pairs], M.indices[pairs + 1])),
                       shape=(n, n))
    n_comp, label = connected_components(edges, directed=False)
    grounded = np.unique(label[M.indices[starts[counts == 1]]]).size
    return n - (n_comp - grounded)


def _rotated_gradient_dofs(S, c, h):
    """Vector DoFs (n, 12) of the rotated gradients of the scalar fields with
    unit-shape DoF vectors ``c`` on cells of diameter ``h``: c . S on the
    unit shapes (S of ``verify._curl_dofs``), rescaled as the fields are."""
    return (c[:, None, :] @ S)[:, 0, :] / (h[:, None] * vector_dof_scaling(h))


def verify_exact_sequence(mesh: Mesh) -> SequenceReport:
    """Check exactness of the discrete sequence on one mesh.

    Verifies: rotated gradients of the scalar basis land in the vector space
    (per-cell re-interpolation and global DoF consistency), the divergence
    matrix annihilates them, its rank is the pressure dimension N_K - 1, its
    nullity is the scalar dimension 3 N_V^i, the rotated-gradient image
    spans the kernel, and the flux identity of the basis fields. The flux
    identity also gives the commuting identity of the interpolant (its
    divergence integrates to its boundary flux), whose residual is a linear
    combination of the per-field residuals, so the report does not repeat it.

    The per-cell checks run on the element tasks of assembly: each task
    builds the elements of its distinct unit shapes, forms S, the vector
    DoFs of their rotated scalar basis (``verify._curl_dofs``), checks the
    re-interpolation on S and compares the rotated gradients c . S[inv] of
    its cells with the global curl matrix, and only the running maxima
    outlive it. A cell's residuals depend on its unit shape and its own
    coefficients only, so the report is the same bit for bit for every
    task size and with or without the deduplication.

    The ranks are exact: rank D is counted on the signed incidence B, as D
    = diag(1 / area) B with every area positive, and rank C on C, both by
    ``_incidence_rank``; and rank [C | ker D] = nullity(D) + rank(D C) is
    nullity(D) when the integer product B C is zero, and None, which fails
    ``curl_spans_kernel``, otherwise. The value-only SVD of D gives
    ``sv_gap`` at the counted rank of D.
    """
    geom, unit = mesh.cell_geometry, mesh.unit_geometry
    C, sdm, vdm = curl_matrix(mesh)
    B = vdm.incidence()
    D = _over_area(mesh, B)

    rank_div = _incidence_rank(B.T)
    nullity = vdm.ndof - rank_div
    rank_curl = _incidence_rank(C)
    rank_combined = nullity if (B @ C).count_nonzero() == 0 else None

    sv = np.linalg.svd(D.toarray(), compute_uv=False)
    gap = np.inf
    if 0 < rank_div < len(sv) and sv[rank_div]:
        gap = float(sv[rank_div - 1] / sv[rank_div])

    DC = D @ C
    div_curl_max = float(np.abs(DC.data).max(initial=0.0))

    # Global consistency: push a random scalar coefficient vector through the
    # matrix and compare against per-cell DoFs of the local rotated gradient.
    rng = np.random.default_rng(0)
    w = rng.standard_normal(sdm.ndof)
    c = sdm.gather(w) * scalar_dof_scaling(geom.h)
    sigma_global = vdm.gather(C @ w)

    def residuals(cells, shapes, inv):
        distinct = unit[shapes]
        sc, vc = _build_pair(distinct)  # one stream span and one pair of frames
        S = _curl_dofs(distinct, sc, vc)
        # Per shape: each rotated scalar basis gradient re-interpolates to
        # itself and each vector basis field's divergence integrates to its
        # flux; per cell, the DoFs of the rotated gradient match the curl
        # matrix.
        return {
            "reinterp": _curl_inclusion_residual(S, sc, vc)[0],
            "div_flux": _div_flux_residual(distinct, vc.divergence()[0]),
            "consistency": np.abs(_rotated_gradient_dofs(S[inv], c[cells], geom.h[cells])
                                  - sigma_global[cells]),
        }

    res = _max_over_tasks(unit, residuals)
    reinterp, div_flux, consistency = (float(v) for v in res.values())

    dims = {
        "scalar": sdm.ndof,
        "vector": vdm.ndof,
        "pressure": mesh.n_cells - 1,
        "n_cells": mesh.n_cells,
        "interior_vertices": mesh.n_interior_vertices,
        "interior_edges": mesh.n_interior_edges,
    }
    checks = {
        "rank_div_is_pressure_dim": rank_div == mesh.n_cells - 1,
        "nullity_is_scalar_dim": nullity == sdm.ndof,
        "curl_injective": rank_curl == sdm.ndof,
        "curl_spans_kernel": rank_combined == nullity,
        "div_curl_zero": div_curl_max <= TOL,
        "curl_reinterpolation": reinterp <= TOL,
        "divergence_is_flux": div_flux <= TOL,
        "curl_global_consistency": consistency <= 1e-8,
        "alternating_sum_zero": sdm.ndof - vdm.ndof + (mesh.n_cells - 1) == 0,
    }
    return SequenceReport(
        dims=dims, rank_div=rank_div, nullity_div=nullity, rank_curl=rank_curl,
        rank_combined=rank_combined, sv_gap=gap, div_curl_max=div_curl_max,
        curl_reinterp_residual=reinterp, div_flux_residual=div_flux,
        curl_global_consistency=consistency, checks=checks,
    )


def inf_sup_constant(mesh: Mesh) -> float:
    """Smallest nonzero generalized singular value of the divergence form.

    beta = min over mean-zero cell pressures q of
    max over v of b(v, q) / (||v||_1h ||q||_0), from the velocity H1 Gram
    matrix X and the cell-area pressure mass M_p = diag(a): beta^2 is the
    smallest nonzero generalized eigenvalue of S = B X^-1 B^T against M_p
    (Chapelle & Bathe, Comput. Struct. 47, 1993). X and the divergence B
    are the blocks [[X, -B^T, 0], [-B, 0, -c], ...] of the Brinkman matrix
    with nu = alpha = 1 (``assemble_brinkman``), and no dense matrix is
    formed: 1 / beta^2 is the largest eigenvalue (``eigsh``, from a fixed
    start vector, so repeated calls are bit-identical) of
    w -> P (sqrt(a) * S^+ (sqrt(a) * P w)), where P projects out sqrt(a),
    and one stream-function sweep of the Brinkman solve
    (``assembly._StreamSolver``) applies S^+ to a pressure of mean zero.

    A one-cell mesh has no mean-zero pressure and raises ``ValueError``, and
    so does a mesh whose Euler characteristic is not 1, which the sweep
    cannot solve on.
    """
    from scipy.sparse.linalg import LinearOperator, eigsh

    if mesh.n_cells < 2:
        raise ValueError("the mean-zero pressure space of a one-cell mesh is empty, "
                         "so it has no inf-sup constant")
    system = assemble_brinkman(mesh, 1.0, 1.0, lambda x, y: np.zeros(np.shape(x) + (2,)))
    solver = _StreamSolver(system)
    root = np.sqrt(solver.c)
    unit = root / np.linalg.norm(root)
    r = np.zeros(system.ndof)

    def project(w):
        return w - (unit @ w) * unit

    def apply(w):
        r[solver.pressure] = -root * project(w)
        return project(root * solver.sweep(r)[solver.pressure])

    n_p = system.n_pressure
    op = LinearOperator((n_p, n_p), matvec=apply, dtype=float)
    v0 = project(np.random.default_rng(0).standard_normal(n_p))
    lam = eigsh(op, k=1, which="LA", v0=v0, return_eigenvectors=False)[0]
    return float(1.0 / np.sqrt(lam))
