"""Span tracer for the benchmark's traced run.

The tracer replaces quadseq's public names in the modules that look them up
(``quadseq.study``, ``quadseq.assembly``, ``quadseq.mesh``,
``quadseq.sequence``, ``quadseq.verify``) with wrappers that time each call.
Because the package calls these names through its own module globals, the
spans nest the way the calls do, and a span's self time is its duration
minus the time of the spans it encloses. Nothing inside the package is
edited, and an untraced worker installs no wrapper.

Every metric is kept per mesh level (the ``n`` of the mesh the enclosing
top-level call works on) and reported as a total over levels plus the value
at the finest level of the workload. Times and counts add up over levels;
the solver residual takes the maximum and the inf-sup constant the minimum.
"""

from __future__ import annotations

import time
import types
from collections import defaultdict

# (name, unit) of every per-layer metric, in report order. The suffix .n64
# is the finest level of the two study workloads, .n16 that of the
# certificate workload; a layer a workload never calls reads 0.
_STUDY_LAYER = [
    ("elements.build_s", "s"),
    ("elements.builds", "count"),
    ("geometry.quad_geometry_s", "s"),
    ("geometry.quad_geometry_calls", "count"),
    ("assembly.assemble_s", "s"),
    ("assembly.self_s", "s"),
    ("assembly.ndof", "count"),
    ("assembly.nnz", "count"),
    ("assembly.solve_s", "s"),
    ("assembly.lu_factor_s", "s"),
    ("assembly.lu_fill", "count"),
    ("assembly.residual", "ratio"),
    ("norms.error_norms_s", "s"),
    ("mesh.make_mesh_s", "s"),
    ("mesh.cells", "count"),
    ("dofmap.build_s", "s"),
]
_SEQUENCE_LAYER = [
    ("sequence.verify_exact_sequence_s", "s"),
    ("sequence.inf_sup_constant_s", "s"),
    ("sequence.rank_div", "count"),
    ("sequence.beta_h", "ratio"),
]
STUDY_FINE, CERTIFY_FINE = 64, 16

PER_LAYER = (
    _STUDY_LAYER
    + [(f"{m}.n{STUDY_FINE}", u) for m, u in _STUDY_LAYER]
    + _SEQUENCE_LAYER
    + [(f"{m}.n{CERTIFY_FINE}", u) for m, u in _SEQUENCE_LAYER]
    + [
        ("verify.element_certificate_s", "s"),
        ("verify.samples", "count"),
        ("study.study_s", "s"),
        ("study.self_s", "s"),
        ("trace.overhead_s", "s"),
        ("checks.fail_frac", "ratio"),
    ]
)

_AGGREGATE = {"assembly.residual": max, "sequence.beta_h": min}
_SELF_TIME = {"assembly.assemble_s": "assembly.self_s", "study.study_s": "study.self_s"}


class _Span:
    __slots__ = ("metric", "level", "start", "children")

    def __init__(self, metric, level, start):
        self.metric, self.level, self.start, self.children = metric, level, start, 0.0


def _mesh_level(mesh, *args, **kwargs):
    return mesh.n


def _system_level(system, *args, **kwargs):
    return system.dofmap.mesh.n


def _n_level(n, *args, **kwargs):
    return n


class Tracer:
    """Records nested spans and counts, keyed by metric name and mesh level."""

    def __init__(self):
        self._stack: list[_Span] = []
        self.values: dict = {}

    def reset(self):
        self._stack.clear()
        self.values = {}

    def record(self, metric, level, value):
        key = (metric, level)
        if key in self.values:
            value = _AGGREGATE.get(metric, sum)((self.values[key], value))
        self.values[key] = value

    def _enter(self, metric, level):
        if level is None and self._stack:
            level = self._stack[-1].level
        span = _Span(metric, level, time.perf_counter())
        self._stack.append(span)
        return span

    def _exit(self, span):
        duration = time.perf_counter() - span.start
        self._stack.pop()
        if self._stack:
            self._stack[-1].children += duration
        self.record(span.metric, span.level, duration)
        if span.metric in _SELF_TIME:
            self.record(_SELF_TIME[span.metric], span.level, duration - span.children)

    def wrap(self, module, attr, metric, *, level=None, after=None):
        """Replace ``module.attr`` by a traced call; ``after(tracer, level,
        result, *args, **kwargs)`` records counts once the span has closed."""
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            span = self._enter(metric, level(*args, **kwargs) if level else None)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if after is not None:
                after(self, span.level, out, *args, **kwargs)
            return out

        traced.__wrapped__ = fn
        setattr(module, attr, traced)

    def install(self):
        """Wrap the layer boundaries of an imported quadseq."""
        import numpy as np
        import quadseq.assembly as assembly
        import quadseq.mesh as qmesh
        import quadseq.sequence as sequence
        import quadseq.study as study
        import quadseq.verify as verify

        def record(metric, value=lambda out: 1):
            return lambda tr, level, out, *a, **k: tr.record(metric, level, value(out))

        def system_size(tr, level, system, *a, **k):
            tr.record("assembly.ndof", level, system.ndof)
            tr.record("assembly.nnz", level, system.matrix.nnz)

        def residual(tr, level, x, system, *a, **k):
            b = system.rhs
            r = np.linalg.norm(system.matrix @ x - b) / (np.linalg.norm(b) or 1.0)
            tr.record("assembly.residual", level, float(r))

        for name in ("run_scalar_study", "run_brinkman_study"):
            self.wrap(study, name, "study.study_s")
        self.wrap(study, "make_mesh", "mesh.make_mesh_s", level=_n_level,
                  after=record("mesh.cells", lambda mesh: mesh.n_cells))
        for name in ("assemble_fourth_order", "assemble_brinkman"):
            self.wrap(study, name, "assembly.assemble_s", level=_mesh_level,
                      after=system_size)
        self.wrap(study, "solve", "assembly.solve_s", level=_system_level, after=residual)
        for name in ("scalar_error_norms", "brinkman_error_norms"):
            self.wrap(study, name, "norms.error_norms_s", level=_mesh_level)

        for name in ("build_scalar_element", "build_vector_element"):
            self.wrap(assembly, name, "elements.build_s", after=record("elements.builds"))
        for module in (assembly, qmesh):
            self.wrap(module, "QuadGeometry", "geometry.quad_geometry_s",
                      after=record("geometry.quad_geometry_calls"))
        for module in (assembly, sequence):
            for name in ("ScalarDofMap", "VectorDofMap"):
                self.wrap(module, name, "dofmap.build_s")
        # splu is looked up on the scipy module object assembly holds, so the
        # traced call goes into a copy of that module's namespace.
        spla = types.ModuleType(assembly.spla.__name__)
        spla.__dict__.update(vars(assembly.spla))
        assembly.spla = spla
        self.wrap(spla, "splu", "assembly.lu_factor_s",
                  after=record("assembly.lu_fill", lambda lu: lu.L.nnz + lu.U.nnz))

        self.wrap(sequence, "verify_exact_sequence", "sequence.verify_exact_sequence_s",
                  level=_mesh_level,
                  after=record("sequence.rank_div", lambda rep: rep.rank_div))
        self.wrap(sequence, "inf_sup_constant", "sequence.inf_sup_constant_s",
                  level=_mesh_level, after=record("sequence.beta_h", float))
        self.wrap(verify, "element_certificate", "verify.element_certificate_s",
                  after=record("verify.samples",
                               lambda cert: cert.samples + cert.identity_samples))

    def metrics(self) -> dict:
        """Per-layer metrics of the spans recorded since the last reset."""
        by_metric = defaultdict(dict)
        for (metric, level), value in self.values.items():
            by_metric[metric][level] = value
        out = {}
        for metric, levels in by_metric.items():
            out[metric] = _AGGREGATE.get(metric, sum)(levels.values())
            for level, value in levels.items():
                if level is not None:
                    out[f"{metric}.n{level}"] = value
        return out
