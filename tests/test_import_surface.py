"""What quadseq imports, checked in fresh interpreters.

The elements, their oracles, the element certificate and the meshes need
only numpy, so neither ``import quadseq`` nor those calls may load scipy
(or any other third-party package): scipy is imported inside the
functions that use it, and ``quadseq.assembly`` binds
``scipy.sparse.linalg`` as its one module global ``spla``, the seam a
tracer may replace, on its first factorization or when it is read.
Each case runs in its own interpreter, because this test process has scipy
loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Run by the child: the third-party top-level packages that ``code`` loads
# (stdlib, numpy and quadseq not counted), and whether scipy is among them.
# Modules without an import spec, such as the ``cython_runtime`` that
# numpy.random's extensions register, are no package and are not counted.
_PROBE = """
import json, sys
before = set(sys.modules)
{code}
tops = {{m.partition(".")[0] for m in set(sys.modules) - before}}
tops = {{t for t in tops if getattr(sys.modules.get(t), "__spec__", None) is not None}}
extra = sorted(tops - set(sys.stdlib_module_names) - {{"numpy", "quadseq"}})
print(json.dumps({{"scipy": "scipy" in sys.modules, "third_party": extra}}))
"""


def _fresh(code, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip().splitlines()[-1]


def _loaded(code, cwd):
    return json.loads(_fresh(_PROBE.format(code=code), cwd))


NUMPY_ONLY = {
    "import": "import quadseq",
    "make_mesh": "from quadseq import make_mesh\n"
                 "make_mesh(4, 'random', seed=1)",
    "element builds": "from quadseq import build_scalar_element, build_vector_element, make_mesh\n"
                      "geom = make_mesh(3, 'random', seed=1).cell_geometry\n"
                      "build_scalar_element(geom)\n"
                      "build_vector_element(geom)",
    "element certificate": "from quadseq import element_certificate\n"
                           "assert element_certificate(samples=8).passed",
    "cli mesh": "from quadseq.cli import main\n"
                "assert main(['mesh', '--n', '3', '--mesh', 'random', '--out', 'mesh.json',\n"
                "             '--roundtrip-check']) == 0",
    "cli verify element": "from quadseq.cli import main\n"
                          "assert main(['verify', 'element', '--samples', '8',\n"
                          "             '--out', 'cert']) == 0",
}


@pytest.mark.parametrize("case", list(NUMPY_ONLY))
def test_numpy_only_calls_load_no_scipy(case, tmp_path):
    assert _loaded(NUMPY_ONLY[case], tmp_path) == {"scipy": False, "third_party": []}


def test_a_solve_loads_scipy(tmp_path):
    code = ("from quadseq import assemble_fourth_order, make_mesh, solve\n"
            "from quadseq.cases import scalar_sin_squared\n"
            "mesh = make_mesh(4, 'random', seed=1)\n"
            "solve(assemble_fourth_order(mesh, 1.0, scalar_sin_squared().source(1.0)))")
    assert _loaded(code, tmp_path)["scipy"]


def test_spla_read_before_any_sparse_call_can_be_replaced(tmp_path):
    # A tracer reads ``assembly.spla`` before quadseq has made a sparse call,
    # puts a stand-in in its place, and expects every LU to go through it.
    code = """
import sys
import quadseq.assembly as assembly
from quadseq import assemble_fourth_order, make_mesh, solve
from quadseq.cases import scalar_sin_squared

assert "scipy" not in sys.modules
real, calls = assembly.spla, []

class Recording:
    def splu(self, *args, **kwargs):
        calls.append(args[0].shape)
        return real.splu(*args, **kwargs)

assembly.spla = Recording()
system = assemble_fourth_order(make_mesh(4, "random", seed=1), 1.0,
                               scalar_sin_squared().source(1.0))
solve(system)
assert calls == [(system.ndof, system.ndof)], calls
assert real.__name__ == "scipy.sparse.linalg"
print("ok")
"""
    assert _fresh(code, tmp_path) == "ok"
