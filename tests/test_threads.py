"""Element tasks on worker threads: results do not depend on how the cells
are split into tasks or on the number of workers, errors name the lowest bad
cell, and importing or certifying starts no thread."""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import quadseq.assembly as assembly
import quadseq.study as study
from quadseq.assembly import assemble_fourth_order, unit_shape_elements
from quadseq.cases import scalar_sin_squared
from quadseq.elements import ElementConditioningError, ScalarElement, build_scalar_element
from quadseq.geometry import QuadGeometry
from quadseq.mesh import make_mesh
from quadseq.verify import random_convex_quads

STUDIES = [
    ("scalar", lambda family: study.run_scalar_study(1.0, family=family, n_list=(16, 32), seed=2)),
    ("brinkman", lambda family: study.run_brinkman_study(family=family, n_list=(16, 32), seed=2)),
    ("scalar-interpolation", lambda family: study.run_scalar_interpolation_study(
        family=family, n_list=(16, 32), seed=2)),
    ("vector-interpolation", lambda family: study.run_vector_interpolation_study(
        family=family, n_list=(16, 32), seed=2)),
]
FAMILIES = ("rectangular", "trapezoidal", "random")


def _outcomes(monkeypatch):
    """Study errors and the CSR arrays and right-hand side of every system
    the studies solve, at n = 16 and 32 on all three mesh families."""
    systems, solve = [], study.solve

    def recording(system):
        m = system.matrix
        systems.append((m.data.copy(), m.indices.copy(), m.indptr.copy(), system.rhs.copy()))
        return solve(system)

    monkeypatch.setattr(study, "solve", recording)
    errors = {(name, family): run(family).errors for name, run in STUDIES for family in FAMILIES}
    monkeypatch.setattr(study, "solve", solve)
    return errors, systems


@pytest.fixture(scope="module")
def serial():
    # One task per chunk, on the caller thread: no chunk is split.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assembly, "THREADED_CHUNK", assembly.CELL_CHUNK + 1)
        mp.setattr(assembly, "WORKERS", 1)
        return _outcomes(mp)


@pytest.mark.parametrize("task_cells, workers", [(16, 4), (64, 1), (100, 2), (1024, 2)])
def test_results_do_not_depend_on_tasks_or_workers(serial, task_cells, workers, monkeypatch):
    # Every chunk of distinct shapes is split, n = 16 included; 100-cell
    # tasks leave a shorter last one in each chunk. A fresh pool of more
    # workers than CPUs, switching threads often, stresses the row writes.
    monkeypatch.setattr(assembly, "THREADED_CHUNK", 1)
    monkeypatch.setattr(assembly, "TASK_CELLS", task_cells)
    monkeypatch.setattr(assembly, "WORKERS", workers)
    monkeypatch.setattr(assembly, "_POOL", None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        errors, systems = _outcomes(monkeypatch)
    finally:
        sys.setswitchinterval(interval)
        if assembly._POOL is not None:
            assembly._POOL.shutdown()
    want_errors, want_systems = serial
    assert repr(errors) == repr(want_errors)
    assert len(systems) == len(want_systems) == 12
    for got, want in zip(systems, want_systems, strict=True):
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def _random_unit_shapes_with_flat(cells):
    """1024 random convex unit shapes, near-flat (of distinct shapes, so
    the chunk keeps 1024 distinct ones) at the given cells."""
    vertices = random_convex_quads(1024, 7, max_skew=0.8, max_aspect=2.0).vertices.copy()
    ref = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]], dtype=float)
    for k, cell in enumerate(cells):
        shape = np.array([0.999999 - 1e-7 * k, 0.0])
        vertices[cell] = ref + np.array([1.0, -1.0, 1.0, -1.0])[:, None] * shape
    return QuadGeometry(QuadGeometry(vertices).local_vertices)


@pytest.mark.parametrize("flat", [(700, 5), (700,)])
def test_conditioning_error_names_the_lowest_cell_across_tasks(flat, monkeypatch):
    # The bad cells fall into different tasks of one chunk. The task of the
    # lowest one is held back, so a later task fails first; the error still
    # names the lowest bad cell.
    monkeypatch.setattr(assembly, "WORKERS", 2)
    unit = _random_unit_shapes_with_flat(flat)
    [tasks] = assembly._chunk_tasks(unit)
    assert len(tasks) == 1024 // assembly.TASK_CELLS

    def slow_first(geom):
        if min(flat) in geom.index:
            time.sleep(0.2)
        return build_scalar_element(geom)

    threads = threading.active_count()
    with pytest.raises(ElementConditioningError, match=f"cell {min(flat)}:"):
        unit_shape_elements(unit, slow_first)
    mesh = make_mesh(32, "random", seed=1)
    system = assemble_fourth_order(mesh, 1.0, scalar_sin_squared().source(1.0))
    assert system.elements.kind is ScalarElement
    assert threading.active_count() <= threads + assembly.WORKERS


def test_import_and_certificates_start_no_thread():
    # Only split chunks (n >= 32 on random meshes) use the pool: importing
    # quadseq and certifying a random n = 16 mesh leave one thread and do
    # not import the thread pool module.
    code = """
import sys, threading
sys.path.insert(0, sys.argv[1])
import quadseq
from quadseq import inf_sup_constant, make_mesh, verify_exact_sequence
def idle():
    return threading.active_count() == 1 and "concurrent.futures.thread" not in sys.modules
assert idle()
mesh = make_mesh(16, "random", seed=3)
verify_exact_sequence(mesh)
inf_sup_constant(mesh)
assert idle()
"""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code, str(src)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_a_forked_child_makes_its_own_pool(monkeypatch):
    # A child forked after the pool started has none of its threads; a
    # pool inherited from the parent would never run the child's tasks.
    monkeypatch.setattr(assembly, "WORKERS", 2)
    mesh, f = make_mesh(32, "random", seed=1), scalar_sin_squared().source(1.0)
    want = assemble_fourth_order(mesh, 1.0, f).rhs
    assert assembly._POOL is not None
    pid = os.fork()
    if pid == 0:
        os._exit(0 if np.array_equal(assemble_fourth_order(mesh, 1.0, f).rhs, want) else 1)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0
