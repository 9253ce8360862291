"""The certificates walk their cells in the element tasks of assembly.

The distinct cells of a chunk go into tasks of at most
``assembly.TASK_CELLS``, each with the cells that repeat them. Every
certificate residual is a maximum over cells, so the maximum over the
tasks is the same number whatever the slice size and with or without the
deduplication: the certificate JSON, the sequence report and the inf-sup
constant are byte-identical for one cell per slice, for slices that leave
a short last one, and for one slice of all cells, and equal the walk in
64-cell slices that checked every cell (``conftest``). An error still
names the bad cell by its position in the whole batch, and the traced peak
memory stays that of one slice.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import sliced_certificate_residuals, sliced_sequence_residuals

import quadseq.assembly as assembly
import quadseq.verify as verify
from quadseq.elements import ElementConditioningError
from quadseq.geometry import REF_CORNERS, QuadGeometry
from quadseq.mesh import make_mesh
from quadseq.sequence import inf_sup_constant, verify_exact_sequence
from quadseq.verify import element_certificate

SLICE_SIZES = (1, 7, 64, 10**6)


def _outputs():
    # 130 and 75 samples are multiples of none of the slice sizes but 1.
    out = {f"certificate/{family}": element_certificate(130, seed=4, family=family,
                                                        identity_samples=75).to_json()
           for family in ("sweep", "random")}
    for family in ("random", "rectangular"):
        mesh = make_mesh(8, family, seed=4)
        out[f"sequence/{family}"] = verify_exact_sequence(mesh).to_json()
        out[f"inf_sup/{family}"] = repr(inf_sup_constant(mesh))
    return out


@pytest.fixture(scope="module")
def by_slice_size():
    outputs = {}
    with pytest.MonkeyPatch.context() as mp:
        for size in SLICE_SIZES:
            mp.setattr(assembly, "TASK_CELLS", size)
            outputs[size] = _outputs()
    return outputs


@pytest.mark.parametrize("size", SLICE_SIZES[:-1])
def test_certificates_do_not_depend_on_the_slice_size(by_slice_size, size):
    # 10**6 cells per slice is one slice of all cells, as before slicing.
    assert by_slice_size[size] == by_slice_size[10**6]


def test_certificates_pass_on_every_slice_size(by_slice_size):
    for outputs in by_slice_size.values():
        for key, text in outputs.items():
            if not key.startswith("inf_sup"):
                assert '"passed": true' in text, key


@pytest.mark.parametrize("family", ["rectangular", "trapezoidal", "random"])
def test_certificates_equal_the_walk_that_checks_every_cell(family):
    # The element certificate checks the 16 cells of a mesh once each, and
    # the walk all 200 samples cycled through them; the sequence certificate
    # builds one element pair per distinct unit shape.
    cert = element_certificate(200, seed=2, family=family)
    assert cert.residuals == sliced_certificate_residuals(family, 200, 2, 200)
    for n in (4, 8):
        mesh = make_mesh(n, family, seed=2)
        report = verify_exact_sequence(mesh)
        got = (report.curl_reinterp_residual, report.div_flux_residual,
               report.curl_global_consistency)
        assert got == sliced_sequence_residuals(mesh)


def _with_flat_identity_cell(cell, random_convex_quads=verify.random_convex_quads):
    """``random_convex_quads`` whose shape-bounded batch (the identity cells)
    holds a convex but near-flat cell, whose element is ill-conditioned."""
    def sample(samples, seed, max_skew=0.95, max_aspect=None):
        geom = random_convex_quads(samples, seed, max_skew, max_aspect)
        if max_aspect is None:
            return geom
        vertices = geom.vertices.copy()
        shape = np.array([0.999999, 0.0])
        vertices[cell] = REF_CORNERS + np.array([1.0, -1.0, 1.0, -1.0])[:, None] * shape
        return QuadGeometry(vertices)
    return sample


@pytest.mark.parametrize("cell", [100, 149])
def test_conditioning_error_names_the_cell_in_the_whole_batch(monkeypatch, cell):
    # The flat cell lies in the second or third 64-cell slice (the last
    # one short); the error names its position among all identity cells.
    assert assembly.TASK_CELLS <= cell
    monkeypatch.setattr(verify, "random_convex_quads", _with_flat_identity_cell(cell))
    with pytest.raises(ElementConditioningError, match=f"cell {cell}:"):
        element_certificate(200, seed=2, identity_samples=150)


def _traced_peak_mb(fn):
    fn()  # fills the caches the call reads
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


# Peak traced allocation of two certificates, with NumPy 2.4.6 and SciPy
# 1.17.1. Walking the cells in 64-cell slices took the element certificate
# on 1000 + 1000 samples from 53.7 to 4.6 MB and the sequence certificate of
# a random n = 16 mesh from 11.4 to 4.3 MB. The sequence certificate now
# densifies only D's interior-edge columns (0.94 MB) and peaks at 3.0 MB in
# the walk of one 64-cell element task (1.4 MB with 16-cell tasks); the
# bounds sit about 15 % above the sliced values.
@pytest.mark.parametrize("certify, bound_mb", [
    (lambda: element_certificate(1000, identity_samples=1000), 5.3),
    (lambda: verify_exact_sequence(make_mesh(16, "random", seed=1)), 3.5),
], ids=["element", "sequence"])
def test_certificate_peak_memory(certify, bound_mb):
    assert _traced_peak_mb(certify) < bound_mb
