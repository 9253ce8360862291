"""Element tasks on worker threads: results do not depend on how the cells
are split into tasks or on the number of workers, errors name the lowest bad
cell, a call's pool ends with it, and importing or certifying starts no
thread."""

import os
import signal
import subprocess
import sys
import threading
import time
from concurrent import futures
from pathlib import Path

import numpy as np
import pytest

import quadseq.assembly as assembly
import quadseq.study as study
from quadseq.assembly import assemble_brinkman, assemble_fourth_order, unit_shape_elements
from quadseq.cases import scalar_sin_squared
from quadseq.elements import ElementConditioningError, ScalarElement, build_scalar_element
from quadseq.geometry import QuadGeometry
from quadseq.mesh import make_mesh
from quadseq.norms import scalar_error_norms
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
    """Study errors and the compressed arrays and right-hand side of every system
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
        mp.setattr(assembly, "TASK_CELLS", assembly.CELL_CHUNK)
        mp.setattr(assembly, "WORKERS", 1)
        return _outcomes(mp)


@pytest.mark.parametrize("task_cells, workers, cell_chunk",
                         [(16, 4, 256), (64, 1, 1024), (100, 2, 1024), (1024, 2, 1024)],
                         ids=["16-4", "64-1", "100-2", "1024-2"])
def test_results_do_not_depend_on_tasks_or_workers(serial, task_cells, workers, cell_chunk,
                                                   monkeypatch):
    # Every chunk of more than TASK_CELLS shapes is split, n = 16 included,
    # and a call of a full chunk's worth of tasks runs on the pool: at
    # n = 32 with the default chunk, and at n = 16 too with 256-cell chunks,
    # which also changes which cells share an element on a trapezoidal mesh.
    # 100-shape tasks leave a shorter last one in each chunk. A pool of more workers than
    # CPUs, switching threads often, stresses the row writes.
    monkeypatch.setattr(assembly, "CELL_CHUNK", cell_chunk)
    monkeypatch.setattr(assembly, "TASK_CELLS", task_cells)
    monkeypatch.setattr(assembly, "WORKERS", workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        errors, systems = _outcomes(monkeypatch)
    finally:
        sys.setswitchinterval(interval)
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
    # The bad cells fall into different tasks of one call. The task of the
    # lowest one is held back, so a later task fails first; the error still
    # names the lowest bad cell, and no pool thread outlives the call.
    monkeypatch.setattr(assembly, "WORKERS", 2)
    unit = _random_unit_shapes_with_flat(flat)
    assert len(assembly._chunk_tasks(unit)) == 1024 // assembly.TASK_CELLS

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
    assert threading.active_count() == threads


def test_import_and_certificates_start_no_thread():
    # Only calls of a full chunk's worth of tasks (n >= 32 on random meshes)
    # use the pool: importing quadseq and certifying a random n = 16 mesh
    # leave one thread and do not import the thread pool module.
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


def test_threaded_assembly_and_norms_leave_no_thread():
    # A pool lives for one call: after a random n = 32 assembly and its
    # error norms (a pool each, for their 16 tasks), only the main thread
    # is left.
    code = """
import sys, threading
sys.path.insert(0, sys.argv[1])
import quadseq.assembly as assembly
from quadseq import assemble_fourth_order, make_mesh, scalar_error_norms, solve
from quadseq.cases import scalar_sin_squared
assembly.WORKERS = 2
case = scalar_sin_squared()
mesh = make_mesh(32, "random", seed=1)
system = assemble_fourth_order(mesh, 1.0, case.source(1.0))
x = solve(system)
scalar_error_norms(mesh, system.elements, system.dofmap.gather(x), case, eps=1.0)
assert threading.active_count() == 1, threading.enumerate()
"""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code, str(src)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.fixture
def pools(monkeypatch):
    """The thread pools started while the test runs, with two workers."""
    started = []

    class Counted(futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(assembly, "WORKERS", 2)
    monkeypatch.setattr(futures, "ThreadPoolExecutor", Counted)
    return started


def test_one_pool_per_call(pools):
    # The 64 tasks of the four chunks of a random n = 64 mesh share one pool:
    # a pool per chunk starts threads while the last ones may still hold
    # their malloc arenas, and the extra arena raises the peak memory.
    system = assemble_fourth_order(make_mesh(64, "random", seed=1), 1.0,
                                   scalar_sin_squared().source(1.0))
    assert [len(cells) for cells, *_ in system.elements.tasks] == [64] * 64
    assert len(pools) == 1


@pytest.mark.parametrize("n, family, per_call", [
    (16, "random", 0), (64, "rectangular", 0), (32, "random", 1)])
def test_only_a_full_chunk_of_tasks_pools(pools, n, family, per_call):
    # A call runs on the pool when it has CELL_CHUNK // TASK_CELLS tasks:
    # the 16 of the one 1024-cell chunk of a random n = 32 mesh do, the four
    # tasks of a random n = 16 mesh and the four one-task chunks of a
    # rectangular n = 64 mesh do not. Each of the scalar assembly, the
    # Brinkman assembly and the error norms is one call.
    case, mesh = scalar_sin_squared(), make_mesh(n, family, seed=1)
    system = assemble_fourth_order(mesh, 1.0, case.source(1.0))
    assert len(pools) == per_call
    scalar_error_norms(mesh, system.elements, np.zeros((mesh.n_cells, 12)), case, eps=1.0)
    assert len(pools) == 2 * per_call
    assemble_brinkman(mesh, 1.0, 1.0, lambda x, y: np.zeros(np.shape(x) + (2,)))
    assert len(pools) == 3 * per_call


def test_a_forked_child_makes_its_own_pool(monkeypatch):
    # A child forked after threaded work has none of the parent's threads;
    # its assembly makes its own pools and gives the parent's results.
    monkeypatch.setattr(assembly, "WORKERS", 2)
    mesh, f = make_mesh(32, "random", seed=1), scalar_sin_squared().source(1.0)
    want = assemble_fourth_order(mesh, 1.0, f).rhs
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
