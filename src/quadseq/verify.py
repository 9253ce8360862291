"""Element identity certificates over sweeps of convex quadrilaterals.

For each sampled cell this checks, against closed forms or independent
quadrature: the three unisolvency determinants, nodal duality and the
aggregation constraints of both elements, the cubic edge-mean identity and
the weighted normal-trace identity on every nodal basis function, quadratic
and linear-vector reproduction, membership of the rotated scalar gradients
in the vector space, and the bubble trace relations. Residuals are
aggregated as maxima and compared against fixed thresholds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .elements import (
    _bubble_grids,
    _pack_grids,
    _swap,
    _vector_dof_rows,
    _vt,
    aggregation_coeffs_formula,
    build_scalar_element,
    build_vector_element,
    det_oracles,
    numeric_dets,
    scalar_dof_values,
    vector_dof_values,
)
from .geometry import REF_CORNERS, QuadGeometry
from .mesh import make_mesh
from .poly import DX, DY
from .quadrature import gauss01

__all__ = ["ElementCertificate", "element_certificate", "random_convex_quads"]

_ET, _EW = gauss01(5)

THRESHOLDS = {
    "det_rel_err": 1e-9,
    "scalar_duality": 1e-10,
    "scalar_constraint": 1e-10,
    "edge_mean_identity": 1e-10,
    "aggregation_crosscheck": 1e-8,
    "p2_reproduction": 1e-10,
    "vector_duality": 1e-10,
    "vector_constraint": 1e-10,
    "weighted_normal_identity": 1e-10,
    "p1_vector_reproduction": 1e-10,
    "curl_inclusion": 1e-10,
    "curl_flux_sum": 1e-10,
    "bubble_vertex_values": 1e-12,
    "bubble_trace_relation": 1e-10,
    "div_in_p0": 1e-10,
}


def random_convex_quads(samples: int, seed: int, max_skew: float = 0.95,
                        max_aspect: float | None = None):
    """Seeded stream of convex quads: shape vector in the diamond, then a
    random affine map and translation.

    With ``max_aspect`` set, the affine factor is built from rotations and a
    bounded-anisotropy stretch; unbounded affines exercise the
    affine-invariant checks (the unisolvency determinants), bounded ones the
    coefficient-space identities whose meaningful tolerance assumes
    reasonably shaped cells.
    """
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < samples:
        s = rng.uniform(-max_skew, max_skew, 2)
        if abs(s[0]) + abs(s[1]) > max_skew:
            continue
        verts = REF_CORNERS + np.array([1.0, -1.0, 1.0, -1.0])[:, None] * s[None, :]
        if max_aspect is None:
            L = rng.uniform(-1.0, 1.0, (2, 2))
            if np.linalg.det(L) < 0.25:
                continue
        else:
            th1, th2 = rng.uniform(0, 2 * np.pi, 2)

            def rot(t):
                return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])

            a = rng.uniform(1.0, max_aspect)
            L = rot(th1) @ np.diag([1.0, 1.0 / a]) @ rot(th2)
            if np.linalg.det(L) < 0:
                L = L @ np.diag([1.0, -1.0])
        scale = rng.uniform(0.5, 2.0)
        out.append(QuadGeometry(verts @ (scale * L).T + rng.uniform(-3, 3, 2)))
    return out


def _family_quads(family: str, seed: int, n: int = 4):
    mesh = make_mesh(n, family, seed=seed)
    return [mesh.geometry(ci) for ci in range(mesh.n_cells)]


def _edge_mean_identity_residual(geom: QuadGeometry, coeff: np.ndarray) -> float:
    """Cubic edge-mean identity: edge mean vs Simpson endpoint expression."""
    h = geom.h
    Vv = _vt(geom.local_vertices)
    vals_v = coeff @ Vv
    gx, gy = (coeff @ DX.T) @ Vv, (coeff @ DY.T) @ Vv
    worst = 0.0
    for i in range(4):
        t = geom.tangents[i]
        loc = geom.to_local(geom.edge_points(i, _ET))
        mean = (coeff @ _vt(loc)) @ _EW
        dt = (gx * t[0] + gy * t[1]) / h
        j = (i + 1) % 4
        resid = (
            mean - 0.5 * (vals_v[:, i] + vals_v[:, j])
            + geom.edge_len[i] / 12.0 * (dt[:, j] - dt[:, i])
        )
        worst = max(worst, float(np.abs(resid).max()))
    return worst


def _weighted_normal_identity_residual(geom: QuadGeometry, elt) -> float:
    """(1/|E|) int (v.n) xi ds = (v(V_{i+1}) - v(V_i)).n / 6 for basis fields."""
    worst = 0.0
    Vv = _vt(geom.local_vertices)
    vx_v = elt.coeff_x @ Vv
    vy_v = elt.coeff_y @ Vv
    for i in range(4):
        n = geom.normals[i]
        loc = geom.to_local(geom.edge_points(i, _ET))
        V = _vt(loc)
        vn = (elt.coeff_x @ V) * n[0] + (elt.coeff_y @ V) * n[1]
        xi = geom.edge_param_coeffs[i]
        xi_vals = xi[0] + xi[1] * loc[:, 0] + xi[2] * loc[:, 1]
        lhs = vn @ (_EW * xi_vals)
        j = (i + 1) % 4
        rhs = ((vx_v[:, j] - vx_v[:, i]) * n[0] + (vy_v[:, j] - vy_v[:, i]) * n[1]) / 6.0
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def _curl_inclusion_residual(geom: QuadGeometry, scalar_elt, vector_elt):
    """Re-interpolating each rotated scalar gradient must reproduce it.

    The residual is the max coefficient of the difference, divided by the
    coefficient magnitude of the rotated gradients when that exceeds one
    (strongly skewed cells carry large local coefficients; the identity
    itself holds to relative rounding there).
    """
    curl_x = scalar_elt.coeff_matrix @ DY.T
    curl_y = -(scalar_elt.coeff_matrix @ DX.T)
    S = _swap(_vector_dof_rows(curl_x, curl_y, geom)[:12])
    rx = S @ vector_elt.coeff_x - curl_x
    ry = S @ vector_elt.coeff_y - curl_y
    flux = float(np.abs(S[:, :4].sum(axis=1)).max())
    scale = max(1.0, np.abs(curl_x).max(), np.abs(curl_y).max())
    resid = max(float(np.abs(rx).max()), float(np.abs(ry).max())) / scale
    return resid, flux


def _reproduction_residuals(geom: QuadGeometry):
    """Quadratic (scalar) and linear (vector) reproduction through the DoFs."""
    b, h = geom.b, geom.h

    def u(x, y):
        X, Y = (x - b[0]) / h, (y - b[1]) / h
        return 0.4 - 1.1 * X + 0.7 * Y + 0.9 * X * X - 1.3 * X * Y + 0.5 * Y * Y

    def gu(x, y):
        X, Y = (x - b[0]) / h, (y - b[1]) / h
        return np.stack([(-1.1 + 1.8 * X - 1.3 * Y) / h, (0.7 - 1.3 * X + 1.0 * Y) / h], -1)

    se = build_scalar_element(geom)
    dofs = scalar_dof_values(geom, u, gu)
    rng = np.random.default_rng(11)
    ref = rng.uniform(-1, 1, (40, 2))
    pts = geom.map_reference(ref)
    err_s = np.abs(se.tabulate(pts)[0] @ dofs - u(pts[:, 0], pts[:, 1])).max()

    def v(x, y):
        X, Y = (x - b[0]) / h, (y - b[1]) / h
        return np.stack([0.3 + 0.8 * Y - 0.2 * X, -0.6 + 0.5 * X + 0.9 * Y], -1)

    ve = build_vector_element(geom)
    vdofs = vector_dof_values(geom, v)
    err_v = np.abs(
        np.einsum("qjc,j->qc", ve.tabulate(pts)[0], vdofs) - v(pts[:, 0], pts[:, 1])
    ).max()
    return float(err_s), float(err_v), se, ve


def _bubble_residuals(geom: QuadGeometry) -> tuple[float, float]:
    C = _pack_grids(_bubble_grids(geom))
    Cx, Cy = C @ DX.T, C @ DY.T
    h = geom.h
    Vv = _vt(geom.local_vertices)
    vals = max(np.abs(C @ Vv).max(), np.abs(Cx @ Vv).max() / h, np.abs(Cy @ Vv).max() / h)

    # Tangential trace of the rotated gradient vs normal-derivative mean.
    worst = 0.0
    for i in range(4):
        n, t = geom.normals[i], geom.tangents[i]
        Ve = _vt(geom.to_local(geom.edge_points(i, _ET)))
        gxe, gye = Cx @ Ve, Cy @ Ve
        # int curl b . t ds = -|E| * mean(db/dn)
        curl_t = ((gye * t[0] - gxe * t[1]) / h) @ _EW * geom.edge_len[i]
        dn_mean = ((gxe * n[0] + gye * n[1]) / h) @ _EW
        worst = max(worst, float(np.abs(curl_t + geom.edge_len[i] * dn_mean).max()))
    return float(vals), worst


@dataclass
class ElementCertificate:
    family: str
    samples: int
    identity_samples: int
    seed: int
    residuals: dict = field(default_factory=dict)
    thresholds: dict = field(default_factory=lambda: dict(THRESHOLDS))

    @property
    def passed(self) -> bool:
        return all(self.residuals[k] <= self.thresholds[k] for k in self.residuals)

    def failing(self) -> list:
        return [k for k in self.residuals if self.residuals[k] > self.thresholds[k]]

    def to_json(self) -> str:
        return json.dumps({
            "family": self.family,
            "samples": self.samples,
            "identity_samples": self.identity_samples,
            "seed": self.seed,
            "residuals": self.residuals,
            "thresholds": self.thresholds,
            "passed": self.passed,
        }, sort_keys=True, indent=2) + "\n"

    def to_markdown(self) -> str:
        lines = [
            f"**element certificate** family={self.family} "
            f"samples={self.samples} (identities on {self.identity_samples}) seed={self.seed}",
            "",
            "| check | max residual | threshold | status |",
            "|---|---|---|---|",
        ]
        for k in sorted(self.residuals):
            ok = "pass" if self.residuals[k] <= self.thresholds[k] else "FAIL"
            lines.append(f"| {k} | {self.residuals[k]:.3e} | {self.thresholds[k]:.1e} | {ok} |")
        lines.append("")
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def element_certificate(samples: int = 1000, seed: int = 1, family: str = "sweep",
                        identity_samples: int | None = None) -> ElementCertificate:
    """Run the full identity battery.

    The determinant oracles (affine invariant) run on all ``samples`` quads
    with skew up to 0.95 and unbounded affine distortion; the
    coefficient-space identity battery runs on ``identity_samples``
    shape-bounded quads (default: min(samples, 200), skew up to 0.8, aspect
    up to 2), where the 1e-10 tolerances are meaningful.
    """
    if samples < 1 or (identity_samples is not None and identity_samples < 1):
        raise ValueError("samples and identity_samples must be at least 1")
    identity_samples = identity_samples or min(samples, 200)
    if family == "sweep":
        quads = random_convex_quads(samples, seed)
        identity_quads = random_convex_quads(
            identity_samples, seed + 1, max_skew=0.8, max_aspect=2.0
        )
    elif family in ("rectangular", "trapezoidal", "random"):
        cells = _family_quads(family, seed)
        quads = (cells * (samples // len(cells) + 1))[:samples]
        identity_quads = (cells * (identity_samples // len(cells) + 1))[:identity_samples]
    else:
        raise ValueError(f"unknown family {family!r}")

    res = {k: 0.0 for k in THRESHOLDS}
    for geom in quads:
        num = np.array(numeric_dets(geom))
        orc = np.array(det_oracles(*geom.s))
        res["det_rel_err"] = max(res["det_rel_err"], float(np.abs((num - orc) / orc).max()))

    for geom in identity_quads:
        err_s, err_v, se, ve = _reproduction_residuals(geom)
        res["p2_reproduction"] = max(res["p2_reproduction"], err_s)
        res["p1_vector_reproduction"] = max(res["p1_vector_reproduction"], err_v)
        res["scalar_duality"] = max(res["scalar_duality"], se.duality_defect)
        res["scalar_constraint"] = max(res["scalar_constraint"], se.constraint_residual)
        res["vector_duality"] = max(res["vector_duality"], ve.duality_defect)
        res["vector_constraint"] = max(res["vector_constraint"], ve.constraint_residual)
        res["div_in_p0"] = max(res["div_in_p0"], ve.div_residual)
        res["edge_mean_identity"] = max(
            res["edge_mean_identity"], _edge_mean_identity_residual(geom, se.coeff_matrix)
        )
        res["aggregation_crosscheck"] = max(
            res["aggregation_crosscheck"],
            float(np.abs(se.aggregation - aggregation_coeffs_formula(geom, se)).max()),
        )
        res["weighted_normal_identity"] = max(
            res["weighted_normal_identity"], _weighted_normal_identity_residual(geom, ve)
        )
        incl, flux = _curl_inclusion_residual(geom, se, ve)
        res["curl_inclusion"] = max(res["curl_inclusion"], incl)
        res["curl_flux_sum"] = max(res["curl_flux_sum"], flux)
        bv, btr = _bubble_residuals(geom)
        res["bubble_vertex_values"] = max(res["bubble_vertex_values"], bv)
        res["bubble_trace_relation"] = max(res["bubble_trace_relation"], btr)

    return ElementCertificate(
        family=family, samples=len(quads), identity_samples=identity_samples,
        seed=seed, residuals=res,
    )
