"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).

Reference errors and orders are the published convergence data for the
built-in manufactured solutions on the unit square; error entries carry a 2%
relative tolerance (the reference prints are truncated to four digits),
orders the per-criterion absolute windows.
"""

import time

import numpy as np
import pytest

from quadseq.assembly import vector_dof_scaling
from quadseq.cases import brinkman_sin_stream
from quadseq.elements import build_vector_element, det_oracles, numeric_dets, vector_dof_values
from quadseq.geometry import QuadGeometry
from quadseq.mesh import make_mesh
from quadseq.sequence import verify_exact_sequence
from quadseq.study import (
    run_brinkman_study,
    run_scalar_interpolation_study,
    run_scalar_study,
    run_vector_interpolation_study,
)
from quadseq.verify import element_certificate, random_convex_quads

N_FULL = [4, 8, 16, 32, 64]

REF = {
    "scalar_eps1_errors": [2.913, 1.315, 5.914e-1, 2.804e-1, 1.368e-1],
    "scalar_eps1_order": 1.04,
    "scalar_eps12_order": 2.03,
    "scalar_poisson_order": 2.04,
    "stokes_velocity_errors": [3.186, 1.503, 6.926e-1, 3.324e-1, 1.631e-1],
    "stokes_velocity_order": 1.03,
    "darcy_velocity_errors": [1.236e-1, 2.354e-2, 5.017e-3, 1.171e-3, 2.847e-4],
    "darcy_velocity_order": 2.04,
    "darcy_pressure_errors": [1.586e-1, 7.995e-2, 4.005e-2, 2.003e-2, 1.001e-2],
    "darcy_pressure_order": 1.00,
    "stokes_pressure_order": 1.11,
    "trap_orders": {
        "scalar_biharmonic": 1.02, "scalar_eps1": 1.02, "scalar_eps6": 1.06,
        "scalar_eps12": 1.93, "scalar_poisson": 1.94,
        "stokes_velocity": 1.02, "nu12_velocity": 1.05, "nu24_velocity": 1.84,
        "darcy_velocity": 1.84, "stokes_pressure": 1.03, "darcy_pressure": 1.00,
    },
    "random_orders": {
        "scalar_eps1": 1.03, "scalar_eps12": 1.97,
        "stokes_velocity": 1.01, "darcy_velocity": 1.96,
        "stokes_pressure": 1.10, "darcy_pressure": 1.00,
    },
}


def rel_close(ours, ref, tol=0.02):
    return all(abs(a - b) / abs(b) <= tol for a, b in zip(ours, ref))


def report(criterion, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}"
    print(line)
    assert ok, line


# -- shared studies ----------------------------------------------------------

@pytest.fixture(scope="module")
def rect_eps1():
    t0 = time.perf_counter()
    rep = run_scalar_study(eps=1.0, n_list=N_FULL)
    rep.runtime_s = time.perf_counter() - t0
    return rep


@pytest.fixture(scope="module")
def rect_eps12():
    return run_scalar_study(eps=2.0**-12, n_list=N_FULL)


@pytest.fixture(scope="module")
def rect_poisson():
    return run_scalar_study(eps=0.0, n_list=N_FULL)


@pytest.fixture(scope="module")
def rect_stokes():
    return run_brinkman_study(nu=1.0, alpha=0.0, n_list=N_FULL)


@pytest.fixture(scope="module")
def rect_darcy():
    return run_brinkman_study(nu=0.0, alpha=1.0, n_list=N_FULL)


# -- criteria ----------------------------------------------------------------

def test_criterion_01_unisolvency_oracles():
    t0 = time.perf_counter()
    worst = 0.0
    for v in random_convex_quads(1000, seed=1, max_skew=0.95).vertices:
        geom = QuadGeometry(v)
        num = np.array(numeric_dets(geom))
        orc = np.array(det_oracles(*geom.s))
        worst = max(worst, float(np.abs((num - orc) / orc).max()))
    elapsed = time.perf_counter() - t0
    at_zero = det_oracles(0.0, 0.0)
    exact = (abs(at_zero[0] - 4.0) < 1e-14 and abs(at_zero[1] - 4.0) < 1e-14
             and abs(at_zero[2] + 1.0 / 810.0) < 1e-18)
    ok = worst <= 1e-9 and elapsed < 10.0 and exact
    report(1, ok, f"1000-quad determinant sweep, max rel err {worst:.2e}, "
                  f"origin values exact, {elapsed:.1f}s")


def test_criterion_02_table_scalar_eps1(rect_eps1):
    errs = rect_eps1.errors["energy"]
    digits = rel_close(errs, REF["scalar_eps1_errors"])
    order = rect_eps1.order_last("energy")
    ok = digits and abs(order - REF["scalar_eps1_order"]) <= 0.05
    ok = ok and rect_eps1.runtime_s < 60.0
    report(2, ok, f"eps=1 rectangular errors {['%.4e' % e for e in errs]}, "
                  f"order {order:.3f}, study runtime {rect_eps1.runtime_s:.1f}s")


def test_criterion_03_scalar_limit_orders(rect_eps12, rect_poisson):
    o12 = rect_eps12.order_last("energy")
    op = rect_poisson.order_last("energy")
    ok = (abs(o12 - REF["scalar_eps12_order"]) <= 0.1
          and abs(op - REF["scalar_poisson_order"]) <= 0.1)
    report(3, ok, f"eps=2^-12 order {o12:.3f} (ref 2.03), "
                  f"second-order limit order {op:.3f} (ref 2.04)")


def test_criterion_04_stokes_darcy_velocity(rect_stokes, rect_darcy):
    sv = rect_stokes.errors["velocity_ah"]
    dv = rect_darcy.errors["velocity_ah"]
    digits = (rel_close(sv, REF["stokes_velocity_errors"])
              and rel_close(dv, REF["darcy_velocity_errors"]))
    so = rect_stokes.order_last("velocity_ah")
    do = rect_darcy.order_last("velocity_ah")
    ok = digits and abs(so - REF["stokes_velocity_order"]) <= 0.05 \
        and abs(do - REF["darcy_velocity_order"]) <= 0.05
    report(4, ok, f"Stokes velocity order {so:.3f} (ref 1.03), "
                  f"Darcy velocity order {do:.3f} (ref 2.04), digits within 2%")


def test_criterion_05_pressure_rows(rect_stokes, rect_darcy):
    dp = rect_darcy.errors["pressure_l2"]
    digits = rel_close(dp, REF["darcy_pressure_errors"])
    do = rect_darcy.order_last("pressure_l2")
    so = rect_stokes.order_last("pressure_l2")
    ok = digits and abs(do - REF["darcy_pressure_order"]) <= 0.02 \
        and abs(so - REF["stokes_pressure_order"]) <= 0.15
    report(5, ok, f"Darcy pressure digits within 2%, order {do:.3f} (ref 1.00); "
                  f"Stokes pressure order {so:.3f} (ref 1.11, order-based)")


def test_criterion_06_trapezoidal_orders():
    got = {}
    got["scalar_biharmonic"] = run_scalar_study(
        biharmonic=True, family="trapezoidal", n_list=N_FULL).order_last("energy")
    for key, eps in [("scalar_eps1", 1.0), ("scalar_eps6", 2.0**-6),
                     ("scalar_eps12", 2.0**-12), ("scalar_poisson", 0.0)]:
        got[key] = run_scalar_study(
            eps=eps, family="trapezoidal", n_list=N_FULL).order_last("energy")
    flows = {
        "stokes": run_brinkman_study(nu=1.0, alpha=0.0, family="trapezoidal", n_list=N_FULL),
        "nu12": run_brinkman_study(nu=2.0**-12, alpha=1.0, family="trapezoidal", n_list=N_FULL),
        "nu24": run_brinkman_study(nu=2.0**-24, alpha=1.0, family="trapezoidal", n_list=N_FULL),
        "darcy": run_brinkman_study(nu=0.0, alpha=1.0, family="trapezoidal", n_list=N_FULL),
    }
    got["stokes_velocity"] = flows["stokes"].order_last("velocity_ah")
    got["nu12_velocity"] = flows["nu12"].order_last("velocity_ah")
    got["nu24_velocity"] = flows["nu24"].order_last("velocity_ah")
    got["darcy_velocity"] = flows["darcy"].order_last("velocity_ah")
    got["stokes_pressure"] = flows["stokes"].order_last("pressure_l2")
    got["darcy_pressure"] = flows["darcy"].order_last("pressure_l2")

    deviations = {k: got[k] - REF["trap_orders"][k] for k in got}
    ok = all(abs(d) <= 0.1 for d in deviations.values())
    detail = ", ".join(f"{k} {got[k]:.3f} (ref {REF['trap_orders'][k]})" for k in got)
    report(6, ok, "trapezoidal orders within +/-0.1: " + detail)


def test_criterion_07_random_orders():
    rows = []
    for seed in (1, 2, 3):
        sc1 = run_scalar_study(eps=1.0, family="random", seed=seed, n_list=N_FULL)
        sc12 = run_scalar_study(eps=2.0**-12, family="random", seed=seed, n_list=N_FULL)
        st = run_brinkman_study(nu=1.0, alpha=0.0, family="random", seed=seed, n_list=N_FULL)
        da = run_brinkman_study(nu=0.0, alpha=1.0, family="random", seed=seed, n_list=N_FULL)
        rows.append({
            "scalar_eps1": sc1.order_last("energy"),
            "scalar_eps12": sc12.order_last("energy"),
            "stokes_velocity": st.order_last("velocity_ah"),
            "darcy_velocity": da.order_last("velocity_ah"),
            "stokes_pressure": st.order_last("pressure_l2"),
            "darcy_pressure": da.order_last("pressure_l2"),
        })
    ok = True
    details = []
    for key, ref in REF["random_orders"].items():
        vals = [r[key] for r in rows]
        ok = ok and all(abs(v - ref) <= 0.15 for v in vals)
        details.append(f"{key} {['%.2f' % v for v in vals]} (ref {ref})")
    report(7, ok, "random-mesh orders across seeds 1,2,3: " + "; ".join(details))


def test_criterion_08_element_identities():
    cert = element_certificate(samples=200, seed=1, identity_samples=200)
    checks = {
        "p2_reproduction": 1e-10,
        "p1_vector_reproduction": 1e-10,
        "edge_mean_identity": 1e-10,
        "weighted_normal_identity": 1e-10,
        "scalar_duality": 1e-10,
        "vector_duality": 1e-10,
    }
    ok = all(cert.residuals[k] <= tol for k, tol in checks.items())

    # Degeneration on rectangles: the auxiliary space contains x^3 y and x y^3.
    from quadseq.elements import build_scalar_element, scalar_dof_values
    from quadseq.geometry import QuadGeometry
    from quadseq.poly import vandermonde
    adini_ok = True
    rng = np.random.default_rng(0)
    for verts in ([[0, 0], [1, 0], [1, 1], [0, 1]],
                  [[0.2, 0.1], [1.7, 0.1], [1.7, 0.6], [0.2, 0.6]]):
        g = QuadGeometry(verts)
        e = build_scalar_element(g)
        b, h = g.b, g.h
        for i, j in [(3, 1), (1, 3)]:
            u = lambda x, y: ((x - b[0]) / h) ** i * ((y - b[1]) / h) ** j
            def gu(x, y):
                X, Y = (x - b[0]) / h, (y - b[1]) / h
                return np.stack([i * X ** (i - 1) * Y**j / h,
                                 j * X**i * Y ** (j - 1) / h], -1)
            dofs = scalar_dof_values(g, u, gu)
            pts = g.map_reference(rng.uniform(-1, 1, (25, 2)))
            vals = vandermonde(g.to_local(pts)) @ (dofs @ e.aux_matrix())
            adini_ok = adini_ok and np.abs(vals - u(pts[:, 0], pts[:, 1])).max() < 1e-10
    ok = ok and adini_ok
    resid = {k: f"{cert.residuals[k]:.1e}" for k in checks}
    report(8, ok, f"200-quad identity battery {resid}, rectangle degeneration "
                  f"{'ok' if adini_ok else 'failed'}")


def _commuting_residual(mesh):
    """Oracle of the commuting identity for a smooth probe: per cell, the
    divergence of the interpolant integrates to its boundary flux. The
    sequence report checks the flux identity of every basis field, of
    which this residual is a linear combination."""
    geom = mesh.cell_geometry
    div_constants = build_vector_element(QuadGeometry(geom.local_vertices)).divergence()[0]
    sigma = vector_dof_values(geom, brinkman_sin_stream().velocity)
    div_const = ((sigma * vector_dof_scaling(geom.h)) * div_constants).sum(-1) / geom.h
    return float(np.abs(div_const * geom.area - sigma[:, :4].sum(-1)).max())


def test_criterion_09_exact_sequence():
    ok = True
    details = []
    for family, seed in [("rectangular", 0), ("trapezoidal", 0), ("random", 9)]:
        for n in (2, 4, 8):
            mesh = make_mesh(n, family, seed=seed)
            rep = verify_exact_sequence(mesh)
            good = (rep.passed and rep.sv_gap >= 1e6
                    and _commuting_residual(mesh) <= 1e-10
                    and rep.curl_reinterp_residual <= 1e-10)
            ok = ok and good
            details.append(f"{family[:4]}/n={n} gap {rep.sv_gap:.0e}")
    report(9, ok, "rank/nullity/kernel-span and commuting identity on all "
                  "families, n in {2,4,8}: " + ", ".join(details))


def test_criterion_10_parameter_robustness():
    ns = [4, 8, 16, 32]
    eps_values = [1.0, 2.0**-3, 2.0**-6, 2.0**-9, 2.0**-12]
    errors_at_32 = []
    orders = []
    for eps in eps_values:
        rep = run_scalar_study(eps=eps, n_list=ns)
        errors_at_32.append(rep.errors["energy"][-1])
        orders.append(rep.order_last("energy"))
    monotone = all(a >= b - 1e-12 for a, b in zip(errors_at_32, errors_at_32[1:]))
    bounded = all(e <= errors_at_32[0] + 1e-12 for e in errors_at_32)
    scalar_ok = (monotone or bounded) and min(orders) >= 0.95

    nu_orders = []
    nu_errors = []
    for nu_sqrt in (1.0, 2.0**-6, 2.0**-12):
        rep = run_brinkman_study(nu=nu_sqrt**2, alpha=1.0, n_list=ns)
        nu_errors.append(rep.errors["velocity_ah"][-1])
        nu_orders.append(rep.order_last("velocity_ah"))
    flow_monotone = all(a >= b - 1e-12 for a, b in zip(nu_errors, nu_errors[1:]))
    flow_bounded = all(e <= nu_errors[0] + 1e-12 for e in nu_errors)
    flow_ok = (flow_monotone or flow_bounded) and min(nu_orders) >= 0.95

    ok = scalar_ok and flow_ok
    report(10, ok, f"eps sweep orders {['%.2f' % o for o in orders]}, "
                   f"errors at n=32 decrease with eps: {monotone}; "
                   f"nu sweep orders {['%.2f' % o for o in nu_orders]}")


def test_criterion_11_interpolation_rates():
    rs = run_scalar_interpolation_study(n_list=N_FULL)
    rv = run_vector_interpolation_study(n_list=N_FULL)
    h2 = rs.order_fit("h2")
    h1 = rs.order_fit("h1")
    vh1 = rv.order_fit("velocity_h1")
    vl2 = rv.order_fit("velocity_l2")
    ok = (abs(h2 - 1.0) <= 0.1 and abs(h1 - 2.0) <= 0.1
          and abs(vh1 - 1.0) <= 0.1 and abs(vl2 - 2.0) <= 0.1)
    report(11, ok, f"interpolant orders: scalar H2 {h2:.3f} (ref 1), H1 {h1:.3f} "
                   f"(ref 2); velocity H1 {vh1:.3f} (ref 1), L2 {vl2:.3f} (ref 2)")
