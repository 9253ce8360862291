"""The benchmark's full-size goldens as a tier-1 check.

``benchmarks/golden.json`` pins the outputs of the benchmark workloads at
their full size (``benchmarks/workloads.py``: studies at n = 4 to 64,
certificates at n = 4, 8, 16). ``tests/golden_batched.json`` stops at
n = 16, while rounding drift grows with n, so these tests read the
benchmark's file (read only) and check one seed of each workload at its
tolerance: every float within 1e-10 relative, every integer equal.
"""

import json
from pathlib import Path

from quadseq.mesh import make_mesh
from quadseq.sequence import inf_sup_constant, verify_exact_sequence
from quadseq.study import run_brinkman_study, run_scalar_study

GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "benchmarks" / "golden.json")
                    .read_text())
RTOL = 1e-10
LEVELS = (4, 8, 16, 32, 64)
CERT_LEVELS = (4, 8, 16)


def _assert_close(got, want, what):
    """As the benchmark compares: integers exactly, floats to RTOL relative."""
    if isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), what
        for k, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{what}[{k}]")
    elif isinstance(want, int):
        assert got == want, what
    else:
        assert abs(got - want) <= RTOL * abs(want), \
            f"{what}: {got!r} vs {want!r}, drift {abs(got - want) / abs(want):.3g}"


def test_stokes_rect_matches_the_full_golden():
    report = run_brinkman_study(nu=1.0, alpha=0.0, family="rectangular", n_list=LEVELS)
    want = GOLDEN["stokes-rect"]["full"]["*"]
    assert sorted(report.errors) == sorted(want)
    for norm, values in want.items():
        _assert_close(report.errors[norm], values, norm)


def test_scalar_random_matches_the_full_golden():
    report = run_scalar_study(eps=1.0, family="random", seed=0, n_list=LEVELS)
    want = GOLDEN["scalar-random"]["full"]["0"]
    assert sorted(report.errors) == sorted(want)
    for norm, values in want.items():
        _assert_close(report.errors[norm], values, norm)


def test_certify_random_matches_the_full_golden():
    meshes = [make_mesh(n, "random", seed=0) for n in CERT_LEVELS]
    reports = [verify_exact_sequence(mesh) for mesh in meshes]
    want = GOLDEN["certify-random"]["full"]["0"]
    _assert_close([[r.rank_div, r.nullity_div, r.rank_curl, r.rank_combined] for r in reports],
                  want["ranks"], "ranks")
    _assert_close([inf_sup_constant(mesh) for mesh in meshes], want["beta_h"], "beta_h")
