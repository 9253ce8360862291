"""Convergence studies over mesh refinements, with CSV/Markdown/JSON reports.

A study solves (or interpolates) one configuration over a list of mesh
resolutions, records the requested broken-norm errors, and derives two
convergence orders per norm: the last-pair log2 ratio and a least-squares
fit over the final three pairs. Written artifacts are pure functions of the
configuration; wall-clock time is kept out of the serialized files so that
repeated runs are byte-identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .assembly import DEFAULT_QUAD_ORDER, assemble_brinkman, assemble_fourth_order, solve
from .assembly import unit_shape_elements
from .cases import brinkman_sin_stream, scalar_sin_squared
from .elements import (
    build_scalar_element,
    build_vector_element,
    scalar_dof_values,
    vector_dof_values,
)
from .mesh import DEFAULT_DELTA, _strict_json, make_mesh
from .norms import DEFAULT_ERROR_QUAD, brinkman_error_norms, scalar_error_norms
from .quadrature import check_order

__all__ = [
    "StudyReport",
    "run_scalar_study",
    "run_brinkman_study",
    "run_scalar_interpolation_study",
    "run_vector_interpolation_study",
    "pairwise_orders",
    "fit_order",
]


FIT_PAIRS = 3  # the pairs of levels ``fit_order`` fits


def pairwise_orders(n_list, errors):
    """log(e_prev/e_next) / log(n_next/n_prev) for consecutive resolutions.
    A zero error gives a NaN or infinite order, without a warning."""
    out = [None]
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(1, len(errors)):
            ratio = errors[k - 1] / errors[k] if errors[k] > 0 else np.nan
            out.append(float(np.log(ratio) / np.log(n_list[k] / n_list[k - 1])))
    return out


def fit_order(n_list, errors):
    """Least-squares slope of log e against log(1/n) over the last FIT_PAIRS
    pairs. A zero error gives a NaN or infinite slope, without a warning."""
    m = min(FIT_PAIRS + 1, len(errors))
    if m < 2:
        return None
    ns = np.log(1.0 / np.asarray(n_list[-m:], dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        es = np.log(np.asarray(errors[-m:], dtype=float))
        slope = np.polyfit(ns, es, 1)[0]
    return float(slope)


@dataclass
class StudyReport:
    """Errors and derived orders of one convergence study."""

    problem: str
    params: dict
    family: str
    delta: float
    seed: int
    n_list: list
    quad_order: int
    error_quad_order: int
    norms: list
    errors: dict = field(default_factory=dict)   # norm -> list of floats
    runtime_s: float = 0.0

    def orders(self, norm: str):
        return pairwise_orders(self.n_list, self.errors[norm])

    def order_last(self, norm: str):
        return self.orders(norm)[-1]

    def order_fit(self, norm: str):
        return fit_order(self.n_list, self.errors[norm])

    # -- serialization -------------------------------------------------------

    def to_csv(self) -> str:
        """One row per level: the errors, then per norm the order from the
        previous level and the fit over the levels up to this one."""
        header = ["n"] + list(self.norms) + ["order_last", "order_fit"]
        for norm in self.norms[1:]:
            header += [f"order_last_{norm}", f"order_fit_{norm}"]
        lines = [",".join(header)]
        orders = {nm: self.orders(nm) for nm in self.norms}
        for k, n in enumerate(self.n_list):
            row = [str(n)]
            row += [f"{self.errors[nm][k]:.6e}" for nm in self.norms]
            for nm in self.norms:
                o = orders[nm][k]
                fo = fit_order(self.n_list[: k + 1], self.errors[nm][: k + 1])
                row.append("" if o is None else f"{o:.4f}")
                row.append("" if fo is None else f"{fo:.4f}")
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def to_markdown(self) -> str:
        cols = [""] + [f"n={n}" for n in self.n_list] + ["order", "order(fit)"]
        lines = [
            "| " + " | ".join(cols) + " |",
            "|" + "---|" * len(cols),
        ]
        for nm in self.norms:
            cells = [nm] + [f"{e:.3e}" for e in self.errors[nm]]
            ol, of = self.order_last(nm), self.order_fit(nm)
            cells.append("" if ol is None else f"{ol:.2f}")
            cells.append("" if of is None else f"{of:.2f}")
            lines.append("| " + " | ".join(cells) + " |")
        title = f"{self.problem} {self.params} on {self.family} meshes"
        if self.family != "rectangular":
            title += f" (delta={self.delta}, seed={self.seed})"
        return f"**{title}**\n\n" + "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {
            "problem": self.problem,
            "params": self.params,
            "family": self.family,
            "delta": self.delta,
            "seed": self.seed,
            "n_list": list(self.n_list),
            "quad_order": self.quad_order,
            "error_quad_order": self.error_quad_order,
            "norms": list(self.norms),
            "errors": self.errors,
            "orders": {nm: self.orders(nm) for nm in self.norms},
            "order_last": {nm: self.order_last(nm) for nm in self.norms},
            "order_fit": {nm: self.order_fit(nm) for nm in self.norms},
        }
        return _strict_json(doc, nullable=("orders", "order_last", "order_fit"))


def _study(problem, params, norms, level_errors, *, family, n_list, delta, seed,
           quad_order, error_quad_order) -> StudyReport:
    """Collect ``norms`` of ``level_errors(mesh)`` (a dict norm -> error) on
    the mesh of every n of ``n_list``, which must be non-empty and
    increase strictly."""
    n_list = list(n_list)
    if not n_list or any(n_next <= n for n, n_next in zip(n_list, n_list[1:])):
        raise ValueError(f"n_list must be non-empty and increase strictly, got {n_list}")
    t0 = time.perf_counter()
    errors = {nm: [] for nm in norms}
    for n in n_list:
        level = level_errors(make_mesh(n, family, delta=delta, seed=seed))
        for nm in norms:
            errors[nm].append(float(level[nm]))
    return StudyReport(
        problem=problem, params=params, family=family,
        delta=DEFAULT_DELTA[family] if delta is None else delta, seed=seed,
        n_list=n_list, quad_order=quad_order, error_quad_order=error_quad_order,
        norms=list(norms), errors=errors, runtime_s=time.perf_counter() - t0,
    )


def _error_order(quad_order, error_quad_order):
    """Check both rule orders before any level runs; return the error order."""
    check_order(quad_order, "quad_order")
    if error_quad_order is None:
        check_order(quad_order + 2, "error_quad_order (default quad_order + 2)")
        return quad_order + 2
    check_order(error_quad_order, "error_quad_order")
    return error_quad_order


def run_scalar_study(eps: float = 1.0, *, biharmonic: bool = False,
                     family: str = "rectangular", n_list=(4, 8, 16, 32, 64),
                     delta: float | None = None, seed: int = 0,
                     quad_order: int = DEFAULT_QUAD_ORDER, error_quad_order: int | None = None,
                     case=None) -> StudyReport:
    """Solve the fourth-order problem over refinements; energy/H1/H2 errors.

    The energy error weights the broken H2 part by eps; for the pure
    fourth-order mode (biharmonic=True) the weight is 1.
    """
    case = case or scalar_sin_squared()
    eq = _error_order(quad_order, error_quad_order)
    f = case.source_biharmonic() if biharmonic else case.source(eps)

    def level_errors(mesh):
        system = assemble_fourth_order(
            mesh, eps, f, quad_order=quad_order, biharmonic=biharmonic
        )
        dofs = system.dofmap.gather(solve(system))
        norms = scalar_error_norms(mesh, system.elements, dofs, case, eps=eps, quad_order=eq)
        if biharmonic:
            # the natural energy of the pure fourth-order operator
            norms["energy"] = norms["h2"]
        return norms

    params = {"mode": "biharmonic"} if biharmonic else {"eps": eps}
    return _study("scalar", params, ["energy", "h1", "h2"], level_errors,
                  family=family, n_list=n_list, delta=delta, seed=seed,
                  quad_order=quad_order, error_quad_order=eq)


def run_brinkman_study(nu: float = 1.0, alpha: float = 1.0, *,
                       family: str = "rectangular", n_list=(4, 8, 16, 32, 64),
                       delta: float | None = None, seed: int = 0,
                       quad_order: int = DEFAULT_QUAD_ORDER, error_quad_order: int | None = None,
                       case=None) -> StudyReport:
    """Solve the flow problem over refinements; a_h velocity and L2 pressure errors."""
    case = case or brinkman_sin_stream()
    eq = _error_order(quad_order, error_quad_order)
    f = case.source(nu, alpha)

    def level_errors(mesh):
        system = assemble_brinkman(mesh, nu, alpha, f, g=case.divergence,
                                   quad_order=quad_order)
        u, p, _ = system.split(solve(system))
        return brinkman_error_norms(mesh, system.elements, system.dofmap.gather(u), case,
                                    nu, alpha, pressure_values=p, quad_order=eq)

    return _study("brinkman", {"nu": nu, "alpha": alpha},
                  ["velocity_ah", "pressure_l2", "velocity_l2", "velocity_h1"],
                  level_errors, family=family, n_list=n_list, delta=delta,
                  seed=seed, quad_order=quad_order, error_quad_order=eq)


def run_scalar_interpolation_study(*, family: str = "rectangular",
                                   n_list=(4, 8, 16, 32, 64),
                                   delta: float | None = None, seed: int = 0,
                                   error_quad_order: int = DEFAULT_ERROR_QUAD,
                                   case=None) -> StudyReport:
    """Broken H1/H2 errors of the nodal interpolant of the scalar solution."""
    case = case or scalar_sin_squared()
    check_order(error_quad_order, "error_quad_order")

    def level_errors(mesh):
        elements = unit_shape_elements(mesh.unit_geometry, build_scalar_element)
        dofs = scalar_dof_values(mesh.cell_geometry, case.u, case.grad)
        return scalar_error_norms(mesh, elements, dofs, case, eps=0.0,
                                  quad_order=error_quad_order)

    return _study("scalar-interpolation", {}, ["h2", "h1"], level_errors,
                  family=family, n_list=n_list, delta=delta, seed=seed,
                  quad_order=0, error_quad_order=error_quad_order)


def run_vector_interpolation_study(*, family: str = "rectangular",
                                   n_list=(4, 8, 16, 32, 64),
                                   delta: float | None = None, seed: int = 0,
                                   error_quad_order: int = DEFAULT_ERROR_QUAD,
                                   case=None) -> StudyReport:
    """L2 and broken H1 errors of the nodal interpolant of the flow velocity."""
    case = case or brinkman_sin_stream()
    check_order(error_quad_order, "error_quad_order")

    def level_errors(mesh):
        elements = unit_shape_elements(mesh.unit_geometry, build_vector_element)
        dofs = vector_dof_values(mesh.cell_geometry, case.velocity)
        return brinkman_error_norms(mesh, elements, dofs, case, nu=1.0, alpha=1.0,
                                    quad_order=error_quad_order)

    return _study("vector-interpolation", {}, ["velocity_h1", "velocity_l2"],
                  level_errors, family=family, n_list=n_list, delta=delta,
                  seed=seed, quad_order=0, error_quad_order=error_quad_order)
