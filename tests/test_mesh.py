import json

import numpy as np
import pytest
from conftest import affine_factor, intermediate_vertices

import quadseq.assembly as assembly
import quadseq.cli as cli
from quadseq.geometry import QuadGeometry
from quadseq.mesh import Mesh, MeshGenerationError, _first_appearance, _grid, make_mesh
from quadseq.verify import random_convex_quads


def test_two_by_two_counts():
    mesh = make_mesh(2, "rectangular")
    assert mesh.n_vertices == 9
    assert mesh.n_edges == 12
    assert mesh.n_interior_edges == 4
    assert mesh.n_cells == 4
    assert mesh.n_interior_vertices == 1


@pytest.mark.parametrize("family", ["rectangular", "trapezoidal", "random"])
@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_euler_identity(family, n):
    mesh = make_mesh(n, family, seed=2)
    assert mesh.euler_characteristic() == 1


def test_rectangular_cells_are_parallelograms():
    mesh = make_mesh(3, "rectangular")
    for ci in range(mesh.n_cells):
        np.testing.assert_allclose(mesh.cell_geometry[ci].s, [0.0, 0.0], atol=1e-14)
        assert mesh.cell_geometry[ci].area == pytest.approx(1.0 / 9.0)


def test_trapezoid_delta_zero_equals_rectangular():
    a = make_mesh(5, "trapezoidal", delta=0.0)
    b = make_mesh(5, "rectangular")
    np.testing.assert_array_equal(a.vertices, b.vertices)
    np.testing.assert_array_equal(a.cells, b.cells)


def test_random_determinism():
    a = make_mesh(4, "random", delta=0.2, seed=42)
    b = make_mesh(4, "random", delta=0.2, seed=42)
    np.testing.assert_array_equal(a.vertices, b.vertices)
    c = make_mesh(4, "random", delta=0.2, seed=43)
    assert not np.array_equal(a.vertices, c.vertices)


@pytest.mark.parametrize("family", ["trapezoidal", "random"])
def test_boundary_vertices_fixed(family):
    mesh = make_mesh(6, family, seed=1)
    ref = make_mesh(6, "rectangular")
    onb = mesh.vertex_is_boundary
    np.testing.assert_array_equal(mesh.vertices[onb], ref.vertices[onb])


def test_random_cells_convex():
    mesh = make_mesh(8, "random", delta=0.25, seed=7)
    for ci in range(mesh.n_cells):
        QuadGeometry(mesh.vertices[mesh.cells[ci]])  # raises if non-convex


def _edge_normals(mesh):
    """n_E per edge: the counterclockwise rotation of the unit edge direction
    taken from the lower to the higher vertex index."""
    vec = mesh.vertices[mesh.edge_vertices[:, 1]] - mesh.vertices[mesh.edge_vertices[:, 0]]
    vec /= np.linalg.norm(vec, axis=1)[:, None]
    return np.column_stack([-vec[:, 1], vec[:, 0]])


def _dot_product_signs(mesh):
    """The signs by their definition: +1 where the cell's outward normal
    points along n_E, -1 where it points against it."""
    start, end = mesh.cells, np.roll(mesh.cells, -1, axis=1)
    t = mesh.vertices[end] - mesh.vertices[start]
    outward = np.stack([t[..., 1], -t[..., 0]], axis=-1)
    return np.where((outward * _edge_normals(mesh)[mesh.cell_edges]).sum(-1) > 0, 1, -1)


def _permuted(mesh, seed):
    """``mesh`` with its vertices renumbered at random and each cell's
    vertex list rotated to start at a random corner (still counterclockwise)."""
    rng = np.random.default_rng(seed)
    new = rng.permutation(mesh.n_vertices)
    vertices = np.empty_like(mesh.vertices)
    vertices[new] = mesh.vertices
    shift = rng.integers(0, 4, mesh.n_cells)
    cells = new[mesh.cells][np.arange(mesh.n_cells)[:, None], (np.arange(4) + shift[:, None]) % 4]
    return Mesh(vertices, cells)


def test_cell_edge_signs_consistent():
    # The signs come from the vertex numbers; the oracle derives them from
    # the outward normals and n_E, as the mesh did before, also on meshes
    # whose vertices are numbered at random.
    for mesh in (make_mesh(3, "trapezoidal"), make_mesh(8, "rectangular"),
                 make_mesh(8, "random", seed=5), _permuted(make_mesh(6, "random", seed=1), 0),
                 _permuted(make_mesh(5, "trapezoidal"), 1)):
        want = _dot_product_signs(mesh)
        assert mesh.cell_edge_signs.dtype == want.dtype
        assert np.array_equal(mesh.cell_edge_signs, want)
        dots = (mesh.cell_geometry.normals * _edge_normals(mesh)[mesh.cell_edges]).sum(-1)
        np.testing.assert_allclose(dots * mesh.cell_edge_signs, 1.0, rtol=0, atol=1e-12)
        # Each interior edge is run once in each direction, by its two cells.
        sums = np.bincount(mesh.cell_edges.ravel(), weights=mesh.cell_edge_signs.ravel())
        assert np.array_equal(sums[~mesh.edge_is_boundary], np.zeros(mesh.n_interior_edges))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("family", ["rectangular", "trapezoidal", "random"])
@pytest.mark.parametrize("n", [2, 8, 16])
def test_unit_geometry_is_the_geometry_of_the_local_vertices(family, n):
    # Every slot equals that of a fresh build bit for bit, sign bits
    # included, also after a JSON round trip.
    mesh = make_mesh(n, family, seed=1)
    for m in (mesh, Mesh.from_json(mesh.to_json())):
        want = QuadGeometry(m.cell_geometry.local_vertices)
        for name in QuadGeometry.__slots__:
            assert _same_bits(getattr(m.unit_geometry, name), getattr(want, name)), name
        assert m.unit_geometry.vertices is m.cell_geometry.local_vertices


@pytest.mark.parametrize("family", ["rectangular", "random"])
@pytest.mark.parametrize("k", range(-12, 13))
def test_scaled_meshes_stay_valid(family, k):
    # The degeneracy tests are relative to each cell's size: a 4 x 4 mesh
    # scaled by 1e-7 used to raise "singular affine factor".
    mesh = make_mesh(4, family, seed=1)
    scaled = Mesh(mesh.vertices * 10.0**k, mesh.cells)
    assert np.array_equal(scaled.cell_edge_signs, mesh.cell_edge_signs)
    np.testing.assert_allclose(scaled.cell_geometry.s, mesh.cell_geometry.s, rtol=0, atol=1e-13)
    np.testing.assert_allclose(scaled.unit_geometry.vertices, mesh.unit_geometry.vertices,
                               rtol=0, atol=1e-14)


def test_interior_edges_have_two_cells():
    mesh = make_mesh(4, "random", seed=3)
    n_adj = np.bincount(mesh.cell_edges.ravel(), minlength=mesh.n_edges)
    np.testing.assert_array_equal(n_adj, np.where(mesh.edge_is_boundary, 1, 2))


def _edges_by_their_own_numbering(mesh):
    """Test oracle: edge_vertices and cell_edges as the mesh numbered its
    edges before the first-appearance numbering had one home."""
    start, end = mesh.cells, np.roll(mesh.cells, -1, axis=1)
    lo, hi = np.minimum(start, end).ravel(), np.maximum(start, end).ravel()
    _, first, inverse = np.unique(lo * mesh.n_vertices + hi,
                                  return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return (np.column_stack([lo[first[order]], hi[first[order]]]),
            rank[inverse.ravel()].reshape(-1, 4))


def _tasks_by_their_own_numbering(unit):
    """Test oracle: the tasks of ``assembly._chunk_tasks`` with the shapes of
    each chunk numbered by the idiom it used before the first-appearance
    numbering had one home, in blocks of TASK_CELLS shapes."""
    tasks, size = [], assembly.TASK_CELLS
    for start in range(0, len(unit), assembly.CELL_CHUNK):
        v = np.ascontiguousarray(unit.vertices[start:start + assembly.CELL_CHUNK])
        keys = v.view(np.uint64).reshape(len(v), -1)
        _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
        order = np.argsort(first)
        inv = np.argsort(order)[inverse.ravel()]
        for k in range(0, len(first), size):
            mine = np.flatnonzero((k <= inv) & (inv < k + size))
            tasks.append((start + mine, start + first[order][k:k + size], inv[mine] - k))
    return tasks


def _same_tasks(got, want):
    assert len(got) == len(want)
    for task, old_task in zip(got, want):
        for a, b in zip(task, old_task, strict=True):
            assert _same_bits(a, b)


def test_first_appearance_numbers_keys_and_rows():
    first, position = _first_appearance(np.array([5, 3, 5, 9, 3]))
    assert first.tolist() == [0, 1, 3] and position.tolist() == [0, 1, 0, 2, 1]
    first, position = _first_appearance(np.array([[2, 1], [0, 7], [2, 1], [0, 7], [1, 1]]))
    assert first.tolist() == [0, 1, 4] and position.tolist() == [0, 1, 0, 1, 2]


@pytest.mark.parametrize("family", ["rectangular", "trapezoidal", "random"])
@pytest.mark.parametrize("n", [2, 5, 16, 33])
def test_edges_and_shapes_keep_their_first_appearance_numbers(family, n):
    # Mesh edges and the repeated shapes of a chunk are numbered by one
    # helper; the oracles are the two copies of the idiom it replaced.
    meshes = [make_mesh(n, family, seed=3)]
    if family == "random":
        meshes.append(_permuted(meshes[0], n))
    for mesh in meshes:
        for got, want in zip((mesh.edge_vertices, mesh.cell_edges),
                             _edges_by_their_own_numbering(mesh)):
            assert _same_bits(got, want)
        _same_tasks(assembly._chunk_tasks(mesh.unit_geometry),
                    _tasks_by_their_own_numbering(mesh.unit_geometry))


def test_repeated_shapes_out_of_order_keep_their_numbers():
    # Shapes that appear in another order than their sorted keys: the first
    # appearances come in cell order, and each cell maps to its shape.
    shapes = np.array([[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
                       [[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]],
                       [[0.1, 0.0], [0.9, 0.1], [1.0, 1.0], [0.0, 0.8]]])
    which = np.array([2, 0, 2, 1, 0, 1, 2])
    unit = QuadGeometry(shapes[which])
    keys = np.ascontiguousarray(unit.vertices).view(np.uint64).reshape(len(which), -1)
    sorted_first = np.unique(keys, axis=0, return_index=True)[1]
    assert not np.all(np.diff(sorted_first) > 0)  # the sort reorders the shapes
    [(cells, first, inv)] = assembly._chunk_tasks(unit)
    assert cells.tolist() == list(range(7))
    assert first.tolist() == [0, 1, 3] and inv.tolist() == [0, 1, 0, 2, 1, 2, 0]
    _same_tasks(assembly._chunk_tasks(unit), _tasks_by_their_own_numbering(unit))


@pytest.mark.parametrize("family", ["rectangular", "trapezoidal", "random"])
def test_intermediate_vertex_reconstruction(family):
    mesh = make_mesh(4, family, seed=13)
    for ci in range(mesh.n_cells):
        geom = mesh.cell_geometry[ci]
        mapped = affine_factor(geom, intermediate_vertices(geom))
        np.testing.assert_allclose(mapped, geom.vertices, atol=1e-12)


def test_json_round_trip(tmp_path):
    mesh = make_mesh(4, "random", delta=0.15, seed=11)
    path = tmp_path / "mesh.json"
    mesh.save(path)
    again = Mesh.load(path)
    assert again.content_hash() == mesh.content_hash()
    np.testing.assert_array_equal(again.vertices, mesh.vertices)
    np.testing.assert_array_equal(again.cells, mesh.cells)
    assert again.family == "random"
    assert again.seed == 11


@pytest.mark.parametrize("field, value, message", [
    ("schema", "other-9", "mesh JSON schema must be 'quadseq-mesh-1', got 'other-9'"),
    ("family", [1, 2], r"family must be a string, got \[1, 2\]"),
])
def test_foreign_mesh_json_is_refused_by_field(field, value, message):
    doc = json.loads(make_mesh(3, "random", seed=1).to_json())
    with pytest.raises(ValueError, match=message):
        Mesh.from_json(json.dumps(dict(doc, **{field: value})))
    del doc["schema"]  # a file without a schema still loads
    assert Mesh.from_json(json.dumps(doc)).content_hash() == make_mesh(3, "random",
                                                                       seed=1).content_hash()


def _grid_with(cell, *extra):
    """The 2 x 2 grid with one more cell on the added vertices ``extra``."""
    vertices, cells = _grid(2)
    return np.vstack([vertices, extra]), np.vstack([cells, [cell]])


def test_cells_that_overlap_across_an_edge_are_refused(monkeypatch, capsys):
    # Cell 4 lies over cell 0 and runs their shared edge 0-1 in the same
    # direction. The mesh is refused by name before the sequence
    # certificate, whose rank count has no answer for it, is reached.
    vertices, cells = _grid_with([0, 1, 10, 9], [0.0, 0.3], [0.5, 0.3])
    message = (r"cell 4: it runs the edge of vertices \[0, 1\] in the same direction "
               r"as cell 0, so the two cells overlap")
    with pytest.raises(ValueError, match=message):
        Mesh(vertices, cells)
    reached = []
    monkeypatch.setattr(cli, "make_mesh", lambda *args, **kwargs: Mesh(vertices, cells))
    monkeypatch.setattr(cli, "verify_exact_sequence", lambda *args: reached.append(args))
    assert cli.main(["verify", "sequence"]) == 2
    assert "cell 4:" in capsys.readouterr().err and not reached


def test_non_manifold_error_names_the_edge_and_a_cell():
    # Cell 4 lies over cell 1 and is a third cell on the edge 1-4.
    vertices, cells = _grid_with([1, 9, 10, 4], [0.8, 0.0], [0.8, 0.5])
    with pytest.raises(ValueError, match=r"non-manifold mesh: the edge of vertices \[1, 4\] "
                                         r"has 3 cells, the first of them cell 0"):
        Mesh(vertices, cells)


def test_validation_errors():
    with pytest.raises(ValueError):
        make_mesh(1, "rectangular")
    with pytest.raises(ValueError):
        make_mesh(4, "hexagonal")
    with pytest.raises(ValueError):
        make_mesh(4, "random", delta=0.4)


SQUARE = [[0, 0], [1, 0], [1, 1], [0, 1]]


@pytest.mark.parametrize("vertices, cells, message", [
    (SQUARE, [[0, 1, 2.7, 3]], r"cells: cell 0 has vertex indices \[0.0, 1.0, 2.7, 3.0\]"),
    (SQUARE, [[0, 1, 2, 3], [0, 1, 2, 4]], r"cells: cell 1 .* not all integers in \[0, 4\)"),
    (SQUARE, [[0, 1, 2, 3], [0, 1, 2, -1]], r"cells: cell 1 "),
    (SQUARE, [[0, 1, 2, float("nan")]], r"cells: cell 0 "),
    (SQUARE, [[0, 1, 2], [0, 2, 3], [1, 2, 3], [0, 1, 3]],
     r"cells must have shape \(m, 4\), got \(4, 3\)"),
    (SQUARE, [0, 1, 2, 3], r"cells must have shape \(m, 4\), got \(4,\)"),
    (SQUARE, [["a", "b", "c", "d"]], "cells must hold vertex indices"),
    (SQUARE, [[0, 1, 2, 3], [0, 1]], "cells is not a numeric array"),
    ([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], [[0, 1, 2, 3]],
     r"vertices must have shape \(n, 2\), got \(4, 3\)"),
    ([[0, 0], [1, 0], [1]], [[0, 1, 2, 3]], "vertices is not a numeric array"),
])
def test_malformed_mesh_input_names_the_field(vertices, cells, message):
    with pytest.raises(ValueError, match=message):
        Mesh(vertices, cells)


def test_integer_valued_float_indices_keep_the_hash():
    assert Mesh(SQUARE, [[0.0, 1.0, 2.0, 3.0]]).content_hash() == \
        Mesh(SQUARE, [[0, 1, 2, 3]]).content_hash()


def test_unused_vertex_is_rejected_by_name():
    # A spare vertex counted as interior: a 4 x 4 mesh reported 10 interior
    # vertices and Euler characteristic 2, and its scalar solve failed with
    # an unnamed singular factorization.
    mesh = make_mesh(4, "rectangular")
    vertices = np.vstack([mesh.vertices[:3], [[0.5, 0.5]], mesh.vertices[3:]])
    cells = np.where(mesh.cells >= 3, mesh.cells + 1, mesh.cells)
    with pytest.raises(ValueError, match="vertices: vertex 3 is used by no cell"):
        Mesh(vertices, cells)
    doc = json.loads(mesh.to_json())
    doc["vertices"].append([0.5, 0.5])
    with pytest.raises(ValueError, match="vertices: vertex 25 is used by no cell"):
        Mesh.from_json(json.dumps(doc))


@pytest.mark.parametrize("family, digest", [
    ("rectangular", "a976c9f715c4003df18167ebe1dbc22ccb2c456a8b6cff09caf1c05281f9d6fd"),
    ("trapezoidal", "02f227449c0f52b3ea331b4571556cc230a63bcc312d8128d4145218e878da2f"),
    ("random", "3803e15bb53432cdd460b98c49cae9cb78c67565cdc7f763925ee99cb01f680c"),
])
def test_valid_meshes_keep_their_content_hash(family, digest):
    mesh = make_mesh(4, family, seed=1)
    assert mesh.content_hash() == digest
    assert Mesh.from_json(mesh.to_json()).content_hash() == digest


@pytest.mark.parametrize("text, message", [
    ("{}", "mesh JSON has no 'vertices' field"),
    ('{"vertices": [[0, 0]]}', "mesh JSON has no 'cells' field"),
    ("[1, 2]", "mesh JSON must be an object, got list"),
])
def test_malformed_mesh_json_names_the_field(text, message):
    with pytest.raises(ValueError, match=message):
        Mesh.from_json(text)


@pytest.mark.parametrize("family", ["rectangular", "random"])
def test_negative_seed_is_named(family):
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        make_mesh(4, family, seed=-1)


def test_convexity_shape_is_the_geometry_shape_vector():
    # The repair loop and QuadGeometry share one solve for s, so on valid
    # cells |s1| + |s2| is the geometry's bit for bit, in a batch or one
    # cell at a time; a cell with a singular affine factor reads inf and
    # leaves the others' bits alone.
    import quadseq.mesh as m
    cells = np.concatenate([random_convex_quads(300, 6).vertices,
                            make_mesh(8, "random", seed=1).cell_geometry.vertices])
    want = np.abs(QuadGeometry(cells).s).sum(-1)
    assert np.array_equal(m._convexity_shape(cells), want)
    assert all(m._convexity_shape(cell) == w for cell, w in zip(cells[:20], want[:20]))
    flat = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    got = m._convexity_shape(np.concatenate([cells[:5], flat[None], cells[5:10]]))
    assert np.array_equal(got, np.concatenate([want[:5], [np.inf], want[5:10]]))
    assert m._convexity_shape(flat) == np.inf


def test_resample_cap_raises(monkeypatch):
    import quadseq.mesh as m
    monkeypatch.setattr(m, "_MAX_RESAMPLES", 0)
    monkeypatch.setattr(m, "_convexity_shape", lambda cells: np.full(len(cells), np.inf))
    with pytest.raises(MeshGenerationError):
        make_mesh(3, "random", seed=0)


@pytest.mark.parametrize("kwargs, message", [
    (dict(n=2.5), "n must be an integer, got 2.5"),
    (dict(n="4"), "n must be an integer, got '4'"),
    (dict(n=True), "n must be an integer, got True"),
    (dict(seed=1.5), "seed must be an integer, got 1.5"),
    (dict(seed=True), "seed must be an integer, got True"),
    (dict(delta="0.1"), r"delta must be a number in \[0, 0.25\], got '0.1'"),
    (dict(delta=True), r"delta must be a number in \[0, 0.25\], got True"),
])
def test_make_mesh_names_a_wrongly_typed_argument(kwargs, message):
    args = dict(n=4, family="random", seed=1) | kwargs
    with pytest.raises(ValueError, match=message):
        make_mesh(**args)


def test_numpy_integers_keep_the_hash():
    mesh = make_mesh(np.int64(4), "random", seed=np.uint8(1))
    assert mesh.content_hash() == make_mesh(4, "random", seed=1).content_hash()
    assert type(mesh.n) is int and type(mesh.seed) is int


@pytest.mark.parametrize("fields, message", [
    (dict(seed=True, n=2.5, delta="x"), "n must be an integer, got 2.5"),
    (dict(seed=True), "seed must be an integer, got True"),
    (dict(seed=-1), "seed must be non-negative, got -1"),
    (dict(n=1), "n must be at least 2, got 1"),
    (dict(delta="x"), r"delta must be a number in \[0, 0.25\], got 'x'"),
    (dict(delta=None), r"delta must be a number in \[0, 0.25\], got None"),
])
def test_mesh_json_names_bad_metadata(fields, message):
    # Mesh checks n, delta and seed by the rules of make_mesh, so a loaded
    # mesh cannot carry metadata that make_mesh would refuse.
    doc = json.loads(make_mesh(4, "random", seed=1).to_json()) | fields
    with pytest.raises(ValueError, match=message):
        Mesh.from_json(json.dumps(doc))


def test_mesh_metadata_may_be_unset():
    mesh = Mesh(SQUARE, [[0, 1, 2, 3]], n=np.int64(2), seed=None)
    assert type(mesh.n) is int and mesh.seed is None
    again = Mesh.from_json(mesh.to_json())
    assert (again.n, again.delta, again.seed) == (2, 0.0, None)
    assert again.content_hash() == mesh.content_hash()


def test_a_mesh_without_cells_is_rejected_by_name():
    with pytest.raises(ValueError, match="cells: a mesh needs at least one cell"):
        Mesh(np.zeros((0, 2)), np.zeros((0, 4), int))


@pytest.mark.parametrize("seed, message", [
    (1.5, "seed must be an integer, got 1.5"),
    (True, "seed must be an integer, got True"),
    (-1, "seed must be non-negative, got -1"),
])
def test_random_convex_quads_names_a_bad_seed(seed, message):
    with pytest.raises(ValueError, match=message):
        random_convex_quads(4, seed)
