"""Command-line interface: convergence studies, verifications, mesh export.

Every command is a pure function of its flags (plus seeds); written
artifacts contain no timestamps or timing, so repeated runs are
byte-identical. Exit codes: 0 success, 1 numerical failure or failed
verification, 2 usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .assembly import DEFAULT_QUAD_ORDER, SolverError
from .cases import scalar_sin_squared
from .elements import ElementConditioningError
from .mesh import Mesh, MeshGenerationError, make_mesh
from .sequence import verify_exact_sequence
from .study import run_brinkman_study, run_scalar_study
from .verify import element_certificate

FAMILY_ALIASES = {
    "rect": "rectangular", "rectangular": "rectangular",
    "trap": "trapezoidal", "trapezoidal": "trapezoidal",
    "random": "random",
}
FORMATS = ("csv", "md", "json")
CERTIFICATE_FORMATS = ("md", "json")


def _parse_n_list(text: str):
    try:
        ns = [int(t) for t in text.split(",") if t]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad n list {text!r}")
    if not ns or any(n < 2 for n in ns):
        raise argparse.ArgumentTypeError("every n must be an integer >= 2")
    return ns


def _formats(allowed):
    """Parser of a comma-separated list of artifact formats out of ``allowed``."""
    def parse(text: str):
        fmts = [t for t in text.split(",") if t]
        for f in fmts:
            if f not in allowed:
                raise argparse.ArgumentTypeError(
                    f"unknown format {f!r}; use {','.join(allowed)}"
                )
        if not fmts:
            raise argparse.ArgumentTypeError(f"no format selected; use {','.join(allowed)}")
        return fmts
    return parse


def _family(text: str) -> str:
    if text not in FAMILY_ALIASES:
        raise argparse.ArgumentTypeError(
            f"unknown mesh family {text!r}; use rect, trap, or random"
        )
    return FAMILY_ALIASES[text]


def _element_family(text: str) -> str:
    """The cell family of ``verify element``: the shape sweep or a mesh family."""
    return text if text == "sweep" else _family(text)


def _add_mesh_flags(p: argparse.ArgumentParser):
    p.add_argument("--mesh", type=_family, default="rectangular",
                   help="mesh family: rect, trap, or random")
    p.add_argument("--delta", type=float, default=None,
                   help="displacement amplitude as a fraction of the grid "
                        "spacing (default: family-specific)")
    p.add_argument("--seed", type=int, default=0, help="random-family seed")


def _add_study_flags(p: argparse.ArgumentParser):
    _add_mesh_flags(p)
    p.add_argument("--n", type=_parse_n_list, default=[4, 8, 16, 32, 64],
                   help="comma-separated mesh resolutions")
    p.add_argument("--quad-order", type=int, default=DEFAULT_QUAD_ORDER,
                   help="per-axis Gauss order for assembly (default %(default)s, the 16-node rule)")
    p.add_argument("--error-quad-order", type=int, default=None,
                   help="per-axis Gauss order for error integration (default quad order + 2)")
    p.add_argument("--format", type=_formats(FORMATS), default=list(FORMATS),
                   help="comma-separated artifact formats for --out (csv,md,json)")
    p.add_argument("--out", type=str, default=None,
                   help="output path prefix; writes PREFIX.csv/.md/.json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadseq",
        description="Nodal nonconforming quadrilateral elements: convergence "
                    "studies, element/sequence verification, mesh export.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    study = sub.add_parser("study", help="run a convergence study")
    study_sub = study.add_subparsers(dest="problem", required=True)

    sc = study_sub.add_parser("scalar", help="fourth-order singular perturbation problem")
    sc.add_argument("--eps", type=float, default=1.0,
                    help="perturbation parameter (0 gives the second-order limit)")
    sc.add_argument("--biharmonic", action="store_true",
                    help="drop the second-order term (pure fourth-order operator)")
    sc.add_argument("--frequency", type=int, default=1,
                    help="frequency index of the manufactured solution")
    _add_study_flags(sc)

    br = study_sub.add_parser("brinkman", help="velocity/pressure flow problem")
    br.add_argument("--nu", type=float, default=1.0, help="viscosity coefficient")
    br.add_argument("--alpha", type=float, default=1.0, help="zeroth-order coefficient")
    _add_study_flags(br)

    verify = sub.add_parser("verify", help="run verification batteries")
    verify_sub = verify.add_subparsers(dest="target", required=True)

    ve = verify_sub.add_parser("element", help="per-cell element identities")
    ve.add_argument("--samples", type=int, default=1000)
    ve.add_argument("--seed", type=int, default=1)
    ve.add_argument("--family", type=_element_family, default="sweep",
                    help="sweep, rect, trap, or random")
    ve.add_argument("--format", type=_formats(CERTIFICATE_FORMATS),
                    default=list(CERTIFICATE_FORMATS),
                    help="comma-separated artifact formats for --out (md,json)")
    ve.add_argument("--out", type=str, default=None)

    vs = verify_sub.add_parser("sequence", help="global exact-sequence ranks")
    _add_mesh_flags(vs)
    vs.add_argument("--n", type=int, default=2)
    vs.add_argument("--out", type=str, default=None)

    mesh = sub.add_parser("mesh", help="export a mesh as JSON")
    _add_mesh_flags(mesh)
    mesh.add_argument("--n", type=int, default=2)
    mesh.add_argument("--out", type=str, required=True)
    mesh.add_argument("--roundtrip-check", action="store_true",
                      help="re-read the file and verify the content hash")

    return parser


def _check_out(path, is_file):
    """Raise ``ValueError`` unless the directory of ``--out`` (``path``, or
    the files ``path.<format>``) exists and is writable and ``path`` names
    no directory: it ends in no separator and its last component is not
    ``.`` or ``..`` (a prefix ``DIR/`` or ``.`` would write the hidden files
    ``DIR/.json`` or ``..json``), nor, where the command writes ``path``
    itself (``is_file``), is it one. Runs before any work, so a bad path
    costs no study."""
    if path is None:
        return
    directory = os.path.dirname(path) or "."
    if not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
        raise ValueError(f"--out {path}: directory {directory!r} does not exist "
                         "or is not writable")
    if os.path.basename(path) in ("", os.curdir, os.pardir) or is_file and os.path.isdir(path):
        raise ValueError(f"--out {path}: names a directory, not a file")


def _write_report(report, fmts, prefix):
    if prefix is None:
        return
    for fmt in fmts:
        method = {"csv": "to_csv", "md": "to_markdown", "json": "to_json"}[fmt]
        with open(f"{prefix}.{fmt}", "w") as fh:
            fh.write(getattr(report, method)())


def _cmd_study(args) -> int:
    levels = dict(family=args.mesh, n_list=args.n, delta=args.delta, seed=args.seed,
                  quad_order=args.quad_order, error_quad_order=args.error_quad_order)
    if args.problem == "scalar":
        report = run_scalar_study(eps=args.eps, biharmonic=args.biharmonic,
                                  case=scalar_sin_squared(frequency=args.frequency), **levels)
    else:
        report = run_brinkman_study(nu=args.nu, alpha=args.alpha, **levels)
    print(report.to_markdown())
    print(f"(runtime {report.runtime_s:.2f}s)")
    _write_report(report, args.format, args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.target == "element":
        cert = element_certificate(samples=args.samples, seed=args.seed, family=args.family)
        print(cert.to_markdown())
        _write_report(cert, args.format, args.out)
        return 0 if cert.passed else 1

    mesh = make_mesh(args.n, args.mesh, delta=args.delta, seed=args.seed)
    report = verify_exact_sequence(mesh)
    d = report.dims
    print(f"dims: scalar {d['scalar']}, vector {d['vector']}, pressure {d['pressure']}")
    print(f"rank(div) = {report.rank_div}, nullity = {report.nullity_div}, "
          f"sv gap = {report.sv_gap:.2e}")
    for name, ok in report.checks.items():
        print(f"  {name}: {'pass' if ok else 'FAIL'}")
    _write_report(report, ["json"], args.out)
    return 0 if report.passed else 1


def _cmd_mesh(args) -> int:
    mesh = make_mesh(args.n, args.mesh, delta=args.delta, seed=args.seed)
    mesh.save(args.out)
    print(f"wrote {args.out}: {mesh.n_vertices} vertices, {mesh.n_edges} edges, "
          f"{mesh.n_cells} cells (euler {mesh.euler_characteristic()})")
    if args.roundtrip_check:
        again = Mesh.load(args.out)
        if again.content_hash() != mesh.content_hash():
            print("error: round-trip hash mismatch", file=sys.stderr)
            return 1
        print(f"round-trip hash ok: {mesh.content_hash()[:16]}...")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(args.out, is_file=args.command == "mesh")
        if args.command == "study":
            return _cmd_study(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_mesh(args)
    except (SolverError, MeshGenerationError, ElementConditioningError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # invalid flag combinations surface as usage errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
