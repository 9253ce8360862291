"""Sparse system assembly and direct solves for both model problems.

The cell is a batch axis (Cuvelier, Japhet & Scarella, BIT Numer. Math. 56,
2016): geometry, elements, quadrature tables and local matrices of all cells
are built as stacked arrays (elements and tables in chunks of CELL_CHUNK
cells, which bounds their temporaries), the local matrices are formed with
batched products, and the global matrix comes from one COO scatter.
Elements are built on the cells' unit shapes, the vertex positions in the
cell-local frame (x - b) / h, whose geometry the mesh forms once
(``Mesh.unit_geometry``); this keeps the local systems well conditioned
at every mesh size. The physical local matrices follow from the unit-shape
integrals by exact powers of the cell diameter together with a diagonal DoF
rescaling (gradient DoFs scale with h in the scalar element, edge-integral
DoFs with 1/h in the vector element). User callables are evaluated once per
mesh on point arrays of shape (n_cells, npts), and checked
(``geometry._values``).

Within each chunk, cells whose unit shapes agree bit for bit share one
element: ``unit_shape_elements`` builds each distinct shape once, the
shape-only work (tabulation, Gram matrices) runs per shape, and its results
are gathered back to the cells. A rectangular mesh has one shape, a
trapezoidal one a few dozen; on a random mesh every cell is its own shape.
Each mesh level's elements are built once: assembly returns them on the
system as an ``ElementBatch`` (the mesh's unit geometry and each chunk's
span weights), and the error norms of the solution re-form them from it
instead of building them again.

The per-cell element work runs in tasks of at most TASK_CELLS cells, on
both CPUs where the chunk is large. Every chunk whose unit shapes are all
distinct (every chunk of a random mesh) is split into tasks of TASK_CELLS
cells, so no task holds the temporaries of more cells than that. The tasks
of a chunk that splits into a full chunk's worth of them, CELL_CHUNK //
TASK_CELLS (every chunk of a random mesh from n = 32 on), build their
elements and integrals (assembly) or field tables (error norms) on a pool
of WORKERS = min(2, CPUs) threads that lives for one call, so no quadseq
thread outlives it (``_run``); numpy releases the GIL in the power,
matmul, einsum and linalg kernels of that work. The tasks of smaller
chunks run in order on the caller thread, as do chunks with repeated
shapes (one task each), the user callables and everything outside the
tasks. The certificates (``quadseq.verify``, ``quadseq.sequence``) walk
the same tasks (``_chunk_tasks``) on the caller thread. A task writes only
its own rows of arrays the caller allocated, and a cell's results are
those of its own build, so no result depends on the number of workers or
the task size. The tasks are small because glibc gives each thread its own
malloc arena, which keeps freed memory resident: against one thread, the
peak RSS of a random-mesh scalar study to n = 64 rose by 3.7 % with
64-cell tasks, 7.1 % with 128, 14 % with 256 and 28 % with 512 (32-cell
tasks took 2.2 % but ran 9 % slower). For the same reason a chunk of a few
tasks stays on the caller thread: pooling the four tasks of the assembly
of a random n = 16 mesh raised the peak RSS of a run of the three
certificates on random meshes to n = 16 by 6 %. Elements hold no lazily
filled state, so a task may call any of their diagnostics.

Batched products keep the operand layouts and reduction kernels a loop over
cells would use (a matmul or an einsum per cell, ``np.dot``-style inner
products), so every cell's local matrix and load equal its one-cell values
bit for bit. Gathers keep the memory layout of the per-shape tables (numpy's
``table[inv]`` allocates the gathered rows in the table's axis order), so
the per-cell kernels that read them see the strides they saw before the
shapes were shared. That matters: the fourth-order solve amplifies rounding
differences in the matrix by its condition number.

Allocate in the layout the kernel reads. The element tables are written in
place into arrays allocated in the layout their kernels read (see
``elements._table``), the local matrices are formed in place with ``out=``
ufuncs, in the order of their defining expressions, and ``cell_matrix``
writes every block straight into one array per part: these rules took the
peak RSS of a random-mesh scalar study to n = 64 from 168 to about 146 MB,
without changing a bit of any result.

Solves are direct sparse LU factorizations (``spla.splu``). The Brinkman
matrix keeps its mean-zero border, but ``solve`` factors neither it nor the
saddle block: it goes through the exact sequence (``_StreamSolver``).
The relative residual is always measured on the assembled matrix. Each
factorization is the memory high point of its study, so it starts from a
heap that holds only live data and one copy of the matrix it factors: the
scalar matrix is stored in the CSC layout ``splu`` reads, the stream solver
reads the velocity block in place in the Brinkman matrix, and freed memory,
which glibc keeps resident (in the main heap and in the element threads'
arenas), is handed back to the system just before the scalar factor and the
stream factor (``_release_freed_memory``). Together these took the peak RSS
of the random-mesh scalar study to n = 64 from 151 to about 137 MB, and of
the Stokes study on rectangular meshes from 122 to about 111 MB.

scipy is imported by the first sparse call, not with the module. Each
sparse entry point (``cell_matrix``, ``solve``, ``_factor_spd`` and
``_StreamSolver``) first binds ``scipy.sparse`` and ``scipy.sparse.linalg``
as the module globals ``sp`` and ``spla`` (``_bind_sparse``), and before
that the module ``__getattr__`` serves ``assembly.sp`` and
``assembly.spla`` to readers outside. A name already bound keeps its
binding, so a stand-in put in ``spla`` (a test's recorder, the
benchmark's tracer) takes every ``splu`` call. The elements, the element
certificate and the meshes need only numpy, and ``import quadseq`` no
longer pays for scipy: cold starts went from 0.41 to 0.18 s and from 62
to 35 MB peak RSS (medians of 14, 2-vCPU x86-64, Python 3.11, SciPy
1.17). The first assembly, solve or sequence certificate of a process
pays the scipy import instead (about 0.18 s).
"""

from __future__ import annotations

import ctypes
import os
from concurrent import futures

import numpy as np

from .dofmap import ScalarDofMap, VectorDofMap, curl_operator
from .elements import build_scalar_element, build_vector_element
from .geometry import QuadGeometry, _dot, _pow2, _values
from .mesh import Mesh, _first_appearance, _nonnegative
from .quadrature import QuadratureRule

__all__ = [
    "ElementBatch",
    "SparseSystem",
    "SolverError",
    "assemble_fourth_order",
    "assemble_brinkman",
    "solve",
    "unit_shape_elements",
]

DEFAULT_QUAD_ORDER = 4  # the 16-node tensor rule
CELL_CHUNK = 1024       # cells per element batch
TASK_CELLS = 64         # cells per task of a chunk of distinct shapes
WORKERS = min(2, os.cpu_count() or 1)  # threads that run the tasks of a split chunk
RESIDUAL_TOL = 1e-9     # largest relative residual ``solve`` accepts


class SolverError(RuntimeError):
    """Direct factorization failed or left a large residual."""


def _bind_sparse():
    """Bind ``scipy.sparse`` and ``scipy.sparse.linalg`` as the module
    globals ``sp`` and ``spla``, keeping a name that is already bound (a
    stand-in put there by a test or a tracer); see the module docstring."""
    import scipy.sparse
    import scipy.sparse.linalg

    globals().setdefault("sp", scipy.sparse)
    globals().setdefault("spla", scipy.sparse.linalg)


def __getattr__(name):
    # Serves ``sp`` and ``spla`` to readers outside the module before the
    # first sparse call has bound them (PEP 562).
    if name in ("sp", "spla"):
        _bind_sparse()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


try:  # glibc; other C libraries keep no such call, and there it does nothing
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes = [ctypes.c_size_t]
    _malloc_trim.restype = ctypes.c_int
except (AttributeError, OSError, TypeError):
    _malloc_trim = None


def _release_freed_memory():
    """Hand the freed memory of every malloc arena back to the system
    (glibc ``malloc_trim(0)``), so that the factorization that follows is
    not stacked on top of it. Changes no allocator setting."""
    if _malloc_trim is not None:
        _malloc_trim(0)


def scalar_dof_scaling(h) -> np.ndarray:
    """Unit-shape to physical basis rescaling (..., 12) for the scalar element."""
    return np.where(np.arange(12) < 4, 1.0, np.asarray(h)[..., None])


def vector_dof_scaling(h) -> np.ndarray:
    """Unit-shape to physical basis rescaling (..., 12) for the vector element."""
    return np.where(np.arange(12) < 4, 1.0 / np.asarray(h)[..., None], 1.0)


def unit_shape_rule(geom: QuadGeometry, unit: QuadGeometry, g: int):
    """A g x g Gauss rule on the unit shapes ``unit`` of the cells ``geom``
    (``Mesh.unit_geometry``, as an element batch holds it).

    Returns its quadrature points (..., g*g, 2), the matching physical
    points and the unit-shape weights (..., g*g); physical weights are these
    times h^2.
    """
    pts, wts = QuadratureRule(g).cell_points(unit)
    return pts, geom.from_local(pts), wts


def _run(chunks, work):
    """``work(*task)`` of every task, one list per chunk of tasks, in task
    order. The tasks of a chunk of at least CELL_CHUNK // TASK_CELLS tasks
    (and at least two) run on one pool of WORKERS threads that lives for
    this call, and those of a chunk of fewer tasks run in order on the
    caller thread, so a call without such a chunk starts no thread. A pool
    per chunk starts its threads while the last ones may still hold their
    malloc arenas, and the extra arena glibc then makes raised the peak RSS
    of a random-mesh scalar study to n = 64 by 4 MB. The first failing task
    in order raises, once the tasks not yet started are cancelled and those
    running have ended."""
    pooled = [WORKERS > 1 and len(tasks) >= max(2, CELL_CHUNK // TASK_CELLS) for tasks in chunks]
    if not any(pooled):
        return [[work(*task) for task in tasks] for tasks in chunks]
    with futures.ThreadPoolExecutor(WORKERS, thread_name_prefix="quadseq") as pool:
        return [list(pool.map(work, *zip(*tasks))) if threaded else [work(*t) for t in tasks]
                for tasks, threaded in zip(chunks, pooled)]


class ElementBatch:
    """The unit-shape elements of one mesh level, as ``unit_shape_elements``
    built them.

    ``unit`` is the unit-shape geometry of all cells (for a mesh, its
    ``unit_geometry`` itself, not a copy) and ``kind`` the element class.
    ``chunks`` holds per chunk its tasks ``(cells, shapes, inv, X)``, with
    ``cells``, ``shapes`` and ``inv`` as ``unit_shape_elements`` passes them
    to its ``use`` and X (n_shapes, 16, 12) the span weights of the task's
    element. An element is its span and X, so the batch keeps X, not the
    larger coefficient arrays, and ``walk`` re-forms each task's element
    from a recomputed span bit for bit, without a 16x16 solve
    (``from_solution``: it has no frames, DoF rows or condition numbers, so
    it serves tabulation, not the diagnostics that read them).
    """

    def __init__(self, unit: QuadGeometry, kind, chunks):
        self.unit = unit
        self.kind = kind
        self.chunks = chunks

    def walk(self, use):
        """``use(cells, shapes, element, inv)`` on every task's element, run
        as ``unit_shape_elements`` ran the builds."""
        def task(cells, shapes, inv, X):
            use(cells, shapes, self.kind.from_solution(self.unit[shapes], X), inv)

        _run(self.chunks, task)


def _chunk_tasks(unit: QuadGeometry):
    """The tasks ``(cells, shapes, inv)`` of each chunk of ``unit``, one list
    per chunk (see ``unit_shape_elements``): one task for a chunk with
    repeated shapes, else tasks of TASK_CELLS cells, whatever the chunk's
    size (``_run`` decides where they run)."""
    for start in range(0, len(unit), CELL_CHUNK):
        stop = min(start + CELL_CHUNK, len(unit))
        cells = slice(start, stop)
        v = np.ascontiguousarray(unit.vertices[cells])
        first, inv = _first_appearance(v.view(np.uint64).reshape(len(v), -1))
        if len(first) < len(v):
            yield [(cells, start + first, inv)]
        else:
            parts = (slice(a, min(a + TASK_CELLS, stop)) for a in range(start, stop, TASK_CELLS))
            yield [(part, part, slice(None)) for part in parts]


def unit_shape_elements(unit: QuadGeometry, build, use=None) -> ElementBatch:
    """Build the elements of the distinct unit shapes of the cells (``unit``,
    a mesh's ``unit_geometry``), one build per shape and chunk, into an
    ``ElementBatch``.

    ``build`` is an element builder. The cells run in consecutive chunks of
    at most CELL_CHUNK cells, and each chunk in tasks ``(cells, shapes,
    inv)``: ``cells`` is a slice of consecutive mesh cells, ``shapes``
    indexes the first mesh cell of each distinct shape in it, in order of
    first occurrence, the task's element is built on ``unit[shapes]``, and
    ``inv`` maps each cell of ``cells`` to its shape, so ``table[inv]``
    turns a per-shape table into a per-cell one. A chunk with repeated
    shapes is one task. A chunk without them (as on a random mesh) has
    ``shapes = cells`` and ``inv = slice(None)``, so its gathers are views
    that copy nothing; it is split into tasks of TASK_CELLS cells, which
    run on a pool that ends with the call if they are a full chunk's worth,
    else in order on the caller thread (``_run``).
    ``use(cells, shapes, element, inv)``, if given, takes what it needs from
    each element (built, so with its frames and every diagnostic) and
    writes only the rows ``cells`` of its arrays; the
    element and the tables ``use`` made from it are freed when the task
    ends, so at most WORKERS tasks hold theirs at once. Every cell's
    results are those of its one-cell build, whatever the task size and
    the number of workers.

    Shapes are keyed on the bits of the vertex coordinates, not their values
    (``-0.0`` and ``0.0`` differ), so cells that share an element would
    build bit-identical ones. An ill-conditioned shape is reported at the
    first mesh cell that has it, and of several in the first task in cell
    order, so the error names the lowest bad cell. Deduplicating per chunk,
    not per mesh, bounds the temporaries of the build and of the tables
    callers take from it. Gather a table in the memory layout the per-cell
    kernel reads it in (``table[inv]`` keeps the layout of ``table``, even
    of a transposed view): a C-contiguous copy of the vector value table
    changes the summation order of the load ``einsum`` and the last bits of
    the load.
    """
    def task(cells, shapes, inv):
        element = build(unit[shapes])
        if use is not None:
            use(cells, shapes, element, inv)
        return type(element), element.solution

    chunks = list(_chunk_tasks(unit))
    kind, batch = None, []
    for tasks, built in zip(chunks, _run(chunks, task)):
        kind = built[0][0]
        batch.append([(*t, X) for t, (_, X) in zip(tasks, built)])
    return ElementBatch(unit, kind, batch)


def cell_matrix(shape, blocks):
    """COO matrix of per-cell blocks ``(rows, cols, vals)``, rows and cols
    broadcast to the shape (n_cells, ...) of vals, keeping the entries whose
    row and column are free (>= 0). Entries run cell by cell and block by
    block within a cell, and ``.toarray()`` adds duplicates up in that
    order, as a cell loop would (a CSR conversion sums them in another
    order).

    Each of rows, cols and vals is written block by block into one
    (n_cells, width) array, without a broadcast copy or a concatenation,
    and the indices are compressed to the kept entries before the values
    are written: at the n = 64 scalar assembly that lowers the heap's high
    point, and the peak RSS of the random-mesh study, by about 4.5 MB. The
    indices are built in the COO index type, so the constructor keeps them
    without a copy. Int64 indices, which it copies to int32, measure within
    the run-to-run spread (about 1 MB) of the peak RSS of the random-mesh
    scalar study to n = 64: 134.4 against 135.5 MB, medians of five runs."""
    _bind_sparse()
    idx = np.int32 if max(shape) <= np.iinfo(np.int32).max else np.int64
    rows, cols, vals = zip(*blocks)
    vals = [np.asarray(v) for v in vals]
    n_cells = len(vals[0])
    width = sum(v.size // n_cells for v in vals)

    def fill(parts, dtype):
        out, start = np.empty((n_cells, width), dtype), 0
        for part, v in zip(parts, vals):
            stop = start + v.size // n_cells
            out[:, start:stop].reshape(v.shape, copy=False)[...] = part
            start = stop
        return out

    rows, cols = fill(rows, idx), fill(cols, idx)
    keep = (rows >= 0) & (cols >= 0)
    rows, cols = rows[keep], cols[keep]
    return sp.coo_matrix((fill(vals, np.result_type(*vals))[keep], (rows, cols)), shape=shape)


def _load(dofs, F, ndof):
    # bincount of no free DoF returns int64 zeros, which g cannot update.
    free = dofs >= 0
    return np.bincount(dofs[free], weights=F[free], minlength=ndof).astype(float, copy=False)


class SparseSystem:
    """Assembled sparse linear system with DoF metadata and the
    ``ElementBatch`` assembly built (``elements``), which the error norms
    of its solution take.

    ``matrix`` is stored in the layout its solver reads, so that the solve
    needs no second copy of it: CSC for a scalar system, which ``splu``
    factors as it is, and CSR for a Brinkman system, whose rows
    ``_StreamSolver`` slices. Either is converted from the CSR matrix of
    the input: a direct COO to CSC conversion sums duplicate entries in
    another order, and so changes the last bits of the matrix.
    """

    def __init__(self, matrix, rhs, kind, dofmap, n_velocity=None, n_pressure=None,
                 elements=None):
        matrix = matrix.tocsr()
        self.matrix = matrix.tocsc() if kind == "scalar" else matrix
        self.rhs = rhs
        self.kind = kind            # "scalar" or "brinkman"
        self.dofmap = dofmap
        self.n_velocity = n_velocity
        self.n_pressure = n_pressure
        self.elements = elements

    @property
    def ndof(self) -> int:
        return self.matrix.shape[0]

    def split(self, x: np.ndarray):
        """Brinkman solution -> (velocity coefficients, cell pressures, multiplier)."""
        if self.kind != "brinkman":
            raise ValueError("split applies to Brinkman systems only")
        nu_, np_ = self.n_velocity, self.n_pressure
        return x[:nu_], x[nu_:nu_ + np_], float(x[-1])


def assemble_fourth_order(mesh: Mesh, eps: float, f, quad_order: int = DEFAULT_QUAD_ORDER,
                          biharmonic: bool = False) -> SparseSystem:
    """Assemble eps^2 * (broken Hessian) + (broken gradient) with load f.

    eps = 0 gives the second-order limit; biharmonic=True drops the gradient
    term entirely (pure fourth-order operator): its matrix is the eps^2 term
    at eps = 1 without the gradient term, formed in the same order. f is a
    vectorized callable of (x, y). Clamped boundary conditions are built
    into the DoF map.
    """
    _nonnegative(eps, "eps")
    dm = ScalarDofMap(mesh)
    geom = mesh.cell_geometry
    pts, x, wts = unit_shape_rule(geom, mesh.unit_geometry, quad_order)
    fv = _values(f, "source f", x, x.shape[:-1])
    A_hat, B_hat = np.empty((mesh.n_cells, 12, 12)), np.empty((mesh.n_cells, 12, 12))
    F_hat = np.empty((mesh.n_cells, 12))

    def integrate(cells, shapes, element, inv):
        val, grad, hess = element.tabulate(pts[shapes])
        w = wts[shapes]
        A_hat[cells] = np.einsum("nq,nqicd,nqjcd->nij", w, hess, hess)[inv]
        B_hat[cells] = np.einsum("nq,nqic,nqjc->nij", w, grad, grad)[inv]
        F_hat[cells] = np.matmul(np.swapaxes(val[inv], -1, -2),
                                 (wts[cells] * fv[cells])[..., None])[..., 0]

    elements = unit_shape_elements(mesh.unit_geometry, build_scalar_element, integrate)

    h2 = _pow2(geom.h[:, None])
    lam = scalar_dof_scaling(geom.h)
    # K_loc = scale * (eps^2 * A_hat / h^2 + B_hat), with eps^2 = 1 and no
    # B_hat in the biharmonic mode, formed in A_hat in that order; B_hat
    # holds the scale once added. Both are freed before the scatter, and
    # K_loc before the CSR conversion.
    K_loc, scale = A_hat, B_hat
    np.multiply(1.0 if biharmonic else eps**2, K_loc, out=K_loc)
    np.divide(K_loc, h2[..., None], out=K_loc)
    if not biharmonic:
        np.add(K_loc, B_hat, out=K_loc)
    np.multiply(lam[:, :, None], lam[:, None, :], out=scale)
    np.multiply(scale, K_loc, out=K_loc)
    del A_hat, B_hat, scale
    dofs = dm.cell_dofs
    K = cell_matrix((dm.ndof, dm.ndof), [(dofs[:, :, None], dofs[:, None, :], K_loc)])
    del K_loc
    return SparseSystem(K, _load(dofs, lam * F_hat * h2, dm.ndof), "scalar", dm,
                        elements=elements)


def assemble_brinkman(mesh: Mesh, nu: float, alpha: float, f, g=None,
                      quad_order: int = DEFAULT_QUAD_ORDER) -> SparseSystem:
    """Assemble the velocity/pressure saddle system with a mean-zero multiplier.

    Block layout: [[A, -B^T, 0], [-B, 0, -c], [0, -c^T, 0]] acting on
    (velocity, cell pressures, multiplier), where c holds the cell areas; the
    bordering row enforces the zero pressure mean symmetrically. nu and
    alpha are non-negative and not both zero; f maps (x, y) to (..., 2) and
    g, if given, to (...,). B is the DoF map's edge signs (``verify._div_flux_residual``).
    """
    _nonnegative(nu, "nu")
    _nonnegative(alpha, "alpha")
    if nu == 0 and alpha == 0:
        raise ValueError("nu and alpha cannot both vanish")
    dm = VectorDofMap(mesh)
    n_u, n_p = dm.ndof, mesh.n_cells
    ndof = n_u + n_p + 1
    A_loc, F_hat, (x, wts), elements = velocity_blocks(mesh, dm, nu, alpha, quad_order, f)

    dofs = dm.cell_dofs
    p_dofs = n_u + np.arange(n_p)
    pd, border = p_dofs[:, None], np.full((n_p, 1), ndof - 1)
    area = mesh.cell_geometry.area[:, None]
    K = cell_matrix((ndof, ndof), [
        (dofs[:, :, None], dofs[:, None, :], A_loc),
        (pd, dofs[:, :4], -dm.cell_signs[:, :4]),
        (dofs[:, :4], pd, -dm.cell_signs[:, :4]),
        (pd, border, -area),
        (border, pd, -area),
    ])
    del A_loc

    h2 = _pow2(mesh.cell_geometry.h[:, None])
    w = vector_dof_scaling(mesh.cell_geometry.h) * dm.cell_signs
    rhs = _load(dofs, w * F_hat * h2, ndof)
    del F_hat
    if g is not None:
        rhs[p_dofs] -= _dot(wts, _values(g, "source g", x, x.shape[:-1])) * h2[:, 0]
    del x, wts  # blocks, loads and points are freed before the CSR conversion
    return SparseSystem(K, rhs, "brinkman", dm, n_velocity=n_u, n_pressure=n_p,
                        elements=elements)


# Its return frees M_hat (A_loc is formed in G_hat) before the scatter: inlined, the peak RSS
# of the rectangular Stokes study to n = 64 was 112.2 vs 110.8 MB (medians of five runs).
def velocity_blocks(mesh: Mesh, dm: VectorDofMap, nu: float, alpha: float, g: int, f):
    """Per-cell blocks of the velocity equations on a g x g rule.

    Returns the local matrices nu * (broken gradient) + alpha * (mass) in
    the global edge-sign convention; the unit-shape load integrals of f;
    the physical points and unit-shape weights of the rule; and the
    ``ElementBatch`` of the vector elements. The divergence reads no element.
    """
    geom = mesh.cell_geometry
    pts, x, wts = unit_shape_rule(geom, mesh.unit_geometry, g)
    fv = _values(f, "source f", x, x.shape[:-1] + (2,))
    G_hat, M_hat = np.empty((mesh.n_cells, 12, 12)), np.empty((mesh.n_cells, 12, 12))
    F_hat = np.empty((mesh.n_cells, 12))

    def integrate(cells, shapes, element, inv):
        val, grad = element.tabulate(pts[shapes])
        w = wts[shapes]
        G_hat[cells] = np.einsum("nq,nqicd,nqjcd->nij", w, grad, grad)[inv]
        M_hat[cells] = np.einsum("nq,nqic,nqjc->nij", w, val, val)[inv]
        F_hat[cells] = np.einsum("nqjc,nq,nqc->nj", val[inv], wts[cells], fv[cells])

    elements = unit_shape_elements(mesh.unit_geometry, build_vector_element, integrate)

    h = geom.h
    w = vector_dof_scaling(h) * dm.cell_signs
    # A_loc = (w w^T) * (nu * G_hat + alpha * h^2 * M_hat), formed in G_hat
    # in that order; M_hat holds the mass term, then w w^T.
    A_loc = np.multiply(nu, G_hat, out=G_hat)
    np.multiply(alpha * _pow2(h[:, None, None]), M_hat, out=M_hat)
    np.add(A_loc, M_hat, out=A_loc)
    np.multiply(np.multiply(w[:, :, None], w[:, None, :], out=M_hat), A_loc, out=A_loc)
    return A_loc, F_hat, (x, wts), elements


def solve(system: SparseSystem) -> np.ndarray:
    """Direct sparse LU solve with a relative-residual guarantee.

    Scalar systems are factored as they are: ``splu`` takes the stored CSC
    matrix itself, without a copy, after ``_release_freed_memory``. A
    Brinkman system is solved through the exact sequence
    (``_StreamSolver``), which needs a mesh of Euler characteristic 1 and
    raises ``ValueError`` on any other before it factors anything. In both
    cases the relative residual is measured on the stored
    ``system.matrix``, and a failed factorization, a non-finite solution or
    a residual above ``RESIDUAL_TOL`` raises ``SolverError``.
    """
    _bind_sparse()
    try:
        if system.kind == "brinkman":
            x = _StreamSolver(system).solve(system.rhs)
        else:
            _release_freed_memory()
            x = spla.splu(system.matrix).solve(system.rhs)
    except RuntimeError as exc:  # singular factorization
        raise SolverError(f"sparse factorization failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SolverError("factorization produced non-finite entries")
    rnorm = np.linalg.norm(system.rhs)
    resid = np.linalg.norm(system.matrix @ x - system.rhs) / (rnorm if rnorm > 0 else 1.0)
    if resid > RESIDUAL_TOL:
        raise SolverError(f"solver residual {resid:.3e} exceeds {RESIDUAL_TOL:.1e}")
    return x


def _factor_spd(M):
    """LU factor of a symmetric positive definite matrix, ordered on its
    symmetric structure and pivoted on the diagonal."""
    _bind_sparse()
    return spla.splu(M.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True})


class _StreamSolver:
    """Solves [[A, -B^T, 0], [-B, 0, -c], [0, -c^T, 0]] (u, p, lam) = b, the
    Brinkman matrix K of ``system``, through the exact sequence (Girault &
    Raviart, 1986, ch. III), without factoring the saddle block.

    The clamped velocity space makes the pressure rows of B sum to zero, so
    summing the pressure equations gives lam = -sum(b_p) / sum(c), and
    B u = -b_p - c lam. A particular velocity u_g = B^T y meets it, with y
    from the cell graph matrix B B^T (B is +-1 on the edge DoFs) with the
    first pressure pinned to 0. On a mesh of Euler characteristic 1 the
    sequence is exact, so the rest of u is C psi for the curl matrix C, and
    C^T B^T = 0 leaves the SPD stream-function system
    C^T A C psi = C^T (b_u - A u_g), the scalar element's own matrix. The
    pressure follows from B B^T p = B (A u - b_u), pinned the same way, and
    a constant shift, which lies in the kernel of B^T, gives c^T p = -b[-1].
    ``sweep`` is that solve; ``solve`` adds one refinement sweep on the
    residual of the bordered system, which brings that residual to the
    level an LU of the whole bordered matrix leaves; without it the
    residual is 5 to 1900 times larger (rectangular, trapezoidal and random
    meshes, n = 16 and 32).

    Any other mesh raises ``ValueError`` before anything is factored.

    The solver keeps no copy of A. ``rows`` is a CSR view of the velocity
    rows of K, over K's own ``data``, ``indices`` and the head of its
    ``indptr``; it is applied to vectors and to C padded with zeros in the
    pressure and multiplier slots (``_apply_A``). Each sorted row of K holds
    its -B^T entries after its velocity columns, so a product with the view
    sums A's terms in A's order and then adds only zeros (none at all for
    the padded C, whose extra rows are empty): every result keeps the bits
    of the product with a copied A. The stream matrix is factored before
    the graph matrix, just after ``_release_freed_memory``, because C^T A C
    is the larger factor and the graph factor would sit under it: the other
    order raises the peak RSS of the Stokes study on rectangular meshes to
    n = 64 by about 1 MB.
    """

    def __init__(self, system: SparseSystem):
        _bind_sparse()
        mesh = system.dofmap.mesh
        chi = mesh.euler_characteristic()
        if chi != 1:
            raise ValueError(f"the stream-function solve needs a mesh of Euler characteristic 1 "
                             f"(a disk), got Euler characteristic {chi}")
        K, n_u, n = system.matrix, system.n_velocity, system.ndof
        self.K = K
        self.velocity, self.pressure = slice(0, n_u), slice(n_u, n - 1)
        self.rows = sp.csr_matrix((K.data, K.indices, K.indptr[:n_u + 1]), shape=(n_u, n))
        self.B = B = -K[self.pressure, self.velocity]
        self.c = -K[self.pressure, n - 1].toarray()[:, 0]  # cell areas, from the border column
        self.total = self.c.sum()
        self.C = C = curl_operator(ScalarDofMap(mesh), system.dofmap)
        padded = sp.csr_matrix((C.data, C.indices, np.pad(C.indptr, (0, n - n_u), "edge")),
                               shape=(n, C.shape[1]))
        stream = (C.T @ (self.rows @ padded)).tocsc()
        _release_freed_memory()
        self.stream = _factor_spd(stream)
        del stream
        self.graph = _factor_spd((B @ B.T)[1:, 1:])

    def _apply_A(self, u):
        """A u, from the velocity rows and u padded with zeros."""
        padded = np.zeros(self.K.shape[1])
        padded[self.velocity] = u
        return self.rows @ padded

    def _pinned(self, r):
        q = np.zeros(len(r))
        q[1:] = self.graph.solve(r[1:])
        return q

    def sweep(self, r):
        """One solve of K x = r through the sequence."""
        B, C, c = self.B, self.C, self.c
        r_u, r_p = r[self.velocity], r[self.pressure]
        lam = -r_p.sum() / self.total
        u = B.T @ self._pinned(-r_p - lam * c)
        u += C @ self.stream.solve(C.T @ (r_u - self._apply_A(u)))
        p = self._pinned(B @ (self._apply_A(u) - r_u))
        p += (-r[-1] - c @ p) / self.total
        return np.concatenate([u, p, [lam]])

    def solve(self, b):
        """K x = b: a sweep and one refinement sweep."""
        x = self.sweep(b)
        return x + self.sweep(b - self.K @ x)
