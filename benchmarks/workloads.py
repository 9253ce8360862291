"""The three benchmark workloads and the checks on their outputs.

Each workload drives quadseq through its public API. Its calls are looked
up on the quadseq modules at call time, so that the traced run sees the
wrapped names (see layers.py).

- scalar-random: the eps = 1 fourth-order study on random meshes. Every
  cell has its own shape, so every cell builds its own elements: element
  construction, cell geometry and the per-cell loops of assembly and norms
  dominate.
- stokes-rect: the Stokes study on rectangular meshes. One cell shape serves
  every cell (one element build per study), and the bordered saddle-point LU
  is about half of the time.
- certify-random: the element identity certificate, then the exact-sequence
  certificate and the inf-sup constant on random meshes. Dense SVD and eigh,
  no sparse assembly and no LU.
"""

from __future__ import annotations

import math
import traceback
from dataclasses import dataclass

import quadseq.mesh as qmesh
import quadseq.sequence as sequence
import quadseq.study as study
import quadseq.verify as verify

@dataclass(frozen=True)
class Size:
    levels: tuple        # mesh resolutions n of a study
    cert_levels: tuple   # mesh resolutions of the sequence certificate
    samples: int         # quads of the element certificate (both sweeps)
    full: bool           # the reference bands hold only at full size


FULL = Size(levels=(4, 8, 16, 32, 64), cert_levels=(4, 8, 16), samples=200, full=True)
# For the benchmark's own smoke test: the same calls on the coarsest meshes.
TINY = Size(levels=(4, 8), cert_levels=(4,), samples=10, full=False)

# Published Stokes velocity errors on rectangular meshes (2 % tolerance, the
# printed values are truncated) and the order bands of the acceptance suite.
STOKES_VELOCITY_REF = [3.186, 1.503, 6.926e-1, 3.324e-1, 1.631e-1]
STOKES_VELOCITY_ORDER = (1.03, 0.05)
STOKES_PRESSURE_ORDER = (1.11, 0.15)
SCALAR_RANDOM_ORDER = (1.03, 0.15)
SV_GAP_MIN = 1e6
GOLDEN_RTOL = 1e-10


def operations(name: str, size: Size) -> int:
    """Operations one repetition attempts: level solves or certificates."""
    if name == "certify-random":
        return 1 + 2 * len(size.cert_levels)
    return len(size.levels)


def golden_key(name: str, seed: int) -> str:
    """Rectangular meshes do not depend on the seed."""
    return "*" if name == "stokes-rect" else str(seed)


def prepare(name: str, seed: int, size: Size):
    """Inputs the program receives, made before the timed calls: the
    certificate workload's meshes."""
    if name == "certify-random":
        return [qmesh.make_mesh(n, "random", seed=seed) for n in size.cert_levels]
    return None


def run(name: str, seed: int, size: Size, inputs):
    """One repetition. Returns (outputs as plain JSON data, failed operations)."""
    if name == "scalar-random":
        rep = study.run_scalar_study(eps=1.0, family="random", seed=seed,
                                     n_list=size.levels)
        return {"errors": rep.errors, "order_energy": rep.order_last("energy")}, 0
    if name == "stokes-rect":
        rep = study.run_brinkman_study(nu=1.0, alpha=0.0, family="rectangular",
                                       n_list=size.levels)
        return {"errors": rep.errors,
                "order_velocity": rep.order_last("velocity_ah"),
                "order_pressure": rep.order_last("pressure_l2")}, 0
    if name == "certify-random":
        return _certify(seed, size, inputs)
    raise ValueError(f"unknown workload {name!r}")


def _certify(seed, size, meshes):
    """Each certificate is its own operation, so one failure counts once."""
    out = {"levels": list(size.cert_levels), "certificate_failing": None,
           "sequence_failing": [], "sv_gap": [], "ranks": [], "beta_h": []}
    failed = 0
    try:
        cert = verify.element_certificate(samples=size.samples,
                                          identity_samples=size.samples, seed=seed)
        out["certificate_failing"] = cert.failing()
    except Exception as exc:  # noqa: BLE001 - counted, then reported by the checks
        traceback.print_exc()
        failed += 1
        out["certificate_failing"] = [f"raised {exc!r}"]
    for mesh in meshes:
        try:
            rep = sequence.verify_exact_sequence(mesh)
            out["sequence_failing"].append([k for k, ok in rep.checks.items() if not ok])
            out["sv_gap"].append(float(rep.sv_gap))
            out["ranks"].append([rep.rank_div, rep.nullity_div, rep.rank_curl,
                                 rep.rank_combined])
        except Exception as exc:  # noqa: BLE001
            traceback.print_exc()
            failed += 1
            out["sequence_failing"].append([f"raised {exc!r}"])
            out["sv_gap"].append(0.0)
            out["ranks"].append(None)
        try:
            out["beta_h"].append(float(sequence.inf_sup_constant(mesh)))
        except Exception:  # noqa: BLE001
            traceback.print_exc()
            failed += 1
            out["beta_h"].append(0.0)
    return out, failed


def golden_values(name: str, outputs: dict) -> dict:
    """The part of the outputs pinned by the golden file."""
    if name == "certify-random":
        return {"beta_h": outputs["beta_h"], "ranks": outputs["ranks"]}
    return dict(outputs["errors"])


def _close(got, want) -> bool:
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_close(g, w) for g, w in zip(got, want)))
    if isinstance(want, int) or want is None:
        return got == want
    return abs(got - want) <= GOLDEN_RTOL * abs(want)


def _band(value, centre_tol):
    centre, tol = centre_tol
    return value is not None and abs(value - centre) <= tol


def checks(name: str, seed: int, size: Size, outputs: dict, golden: dict) -> list:
    """(check, passed, detail) for each output check of one workload run."""
    out = []
    if name in ("scalar-random", "stokes-rect"):
        errs = [e for v in outputs["errors"].values() for e in v]
        out.append(("errors_finite_positive",
                    all(math.isfinite(e) and e > 0 for e in errs), ""))
    if name == "scalar-random":
        if size.full:
            o = outputs["order_energy"]
            out.append(("energy_order", _band(o, SCALAR_RANDOM_ORDER),
                        f"order {o:.4f}, want 1.03 +/- 0.15"))
    elif name == "stokes-rect":
        vel = outputs["errors"]["velocity_ah"]
        ref = STOKES_VELOCITY_REF[:len(vel)]
        out.append(("velocity_reference_table",
                    all(abs(a - b) <= 0.02 * abs(b) for a, b in zip(vel, ref)),
                    f"errors {[f'{e:.4e}' for e in vel]}"))
        if size.full:
            ov, op = outputs["order_velocity"], outputs["order_pressure"]
            out.append(("velocity_order", _band(ov, STOKES_VELOCITY_ORDER),
                        f"order {ov:.4f}, want 1.03 +/- 0.05"))
            out.append(("pressure_order", _band(op, STOKES_PRESSURE_ORDER),
                        f"order {op:.4f}, want 1.11 +/- 0.15"))
    elif name == "certify-random":
        failing = outputs["certificate_failing"]
        out.append(("element_certificate", failing == [], f"failing {failing}"))
        for n, fail, gap, beta in zip(outputs["levels"], outputs["sequence_failing"],
                                      outputs["sv_gap"], outputs["beta_h"]):
            out.append((f"sequence_n{n}", fail == [], f"failing {fail}"))
            out.append((f"sv_gap_n{n}", gap >= SV_GAP_MIN, f"gap {gap:.3e}"))
            out.append((f"beta_h_n{n}", beta > 0, f"beta_h {beta:.6f}"))
    pinned = golden.get(name, {}).get("full" if size.full else "tiny", {})
    want = pinned.get(golden_key(name, seed))
    if want is not None:
        got = golden_values(name, outputs)
        for key in sorted(want):
            out.append((f"golden_{key}", _close(got.get(key), want[key]),
                        f"rtol {GOLDEN_RTOL:g}"))
    return [(check, bool(ok), detail) for check, ok, detail in out]
