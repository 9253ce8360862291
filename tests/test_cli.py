import json
import os

import pytest

from quadseq.cli import main
from quadseq.mesh import Mesh, make_mesh
from quadseq.sequence import verify_exact_sequence


def test_study_scalar_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "report"
    code = main(["study", "scalar", "--eps", "1", "--mesh", "rect",
                 "--n", "4,8", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "energy" in printed and "n=8" in printed
    for ext in ("csv", "md", "json"):
        assert (tmp_path / f"report.{ext}").exists()
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["problem"] == "scalar"


def test_study_deterministic_artifacts(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code = main(["study", "scalar", "--eps", "1", "--mesh", "random",
                     "--seed", "7", "--n", "4,8", "--out", str(out)])
        assert code == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_study_brinkman(tmp_path):
    out = tmp_path / "flow"
    code = main(["study", "brinkman", "--nu", "1", "--alpha", "0",
                 "--mesh", "trap", "--n", "4,8", "--out", str(out),
                 "--format", "csv"])
    assert code == 0
    header = (tmp_path / "flow.csv").read_text().splitlines()[0]
    assert header.startswith("n,velocity_ah,pressure_l2")


def test_rule_order_errors_name_the_parameter(capsys):
    # Checked when the study starts, before the n = 64 level is solved.
    assert main(["study", "scalar", "--mesh", "random", "--n", "64",
                 "--error-quad-order", "0"]) == 2
    assert "error_quad_order must lie in 2..8, got 0" in capsys.readouterr().err
    assert main(["study", "brinkman", "--n", "64", "--quad-order", "9"]) == 2
    assert "quad_order must lie in 2..8, got 9" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["study", "scalar", "--mesh", "random", "--seed", "-1", "--n", "4"],
    ["verify", "element", "--seed", "-1"],
    ["verify", "sequence", "--seed", "-2"],
])
def test_negative_seed_is_named(argv, capsys):
    assert main(argv) == 2
    assert "seed must be non-negative, got -" in capsys.readouterr().err


def test_flow_study_on_a_mesh_with_a_hole_exits_two(monkeypatch, capsys):
    # The 5 x 5 grid without its centre cell has Euler characteristic 0.
    grid = make_mesh(5, "rectangular")
    annulus = Mesh(grid.vertices, [c for k, c in enumerate(grid.cells) if k != 12])
    monkeypatch.setattr("quadseq.study.make_mesh", lambda *args, **kwargs: annulus)
    assert main(["study", "brinkman", "--n", "5"]) == 2
    assert "Euler characteristic 0" in capsys.readouterr().err


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["study", "scalar", "--n", "1,2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["study", "scalar", "--mesh", "hex"])
    assert exc.value.code == 2
    assert main(["study", "brinkman", "--nu", "0", "--alpha", "0", "--n", "4"]) == 2
    assert main(["study", "scalar", "--eps", "-1", "--n", "4"]) == 2
    assert main(["study", "scalar", "--eps", "nan", "--n", "4"]) == 2
    assert main(["study", "brinkman", "--nu", "inf", "--n", "4"]) == 2
    assert main(["study", "brinkman", "--alpha", "nan", "--n", "4"]) == 2
    assert main(["study", "scalar", "--frequency", "0", "--n", "4,8"]) == 2
    assert main(["study", "scalar", "--quad-order", "0", "--n", "4"]) == 2
    assert main(["study", "scalar", "--error-quad-order", "0", "--n", "4"]) == 2
    assert main(["study", "brinkman", "--error-quad-order", "0", "--n", "4"]) == 2
    assert main(["mesh", "--mesh", "random", "--delta", "0.9", "--n", "4",
                 "--out", "/tmp/never.json"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "element", "--family", "bogus"])
    assert exc.value.code == 2
    assert main(["study", "brinkman", "--n", "4,4"]) == 2
    assert main(["study", "scalar", "--n", "8,4"]) == 2
    assert main(["verify", "element", "--samples", "0"]) == 2
    assert main(["verify", "element", "--samples", "-3"]) == 2
    for argv in (["study", "scalar", "--n", "4", "--format", ","],
                 ["verify", "element", "--samples", "2", "--format", ","]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", "/tmp/never"])
        assert exc.value.code == 2


def test_verify_element_writes_md_and_json_only(tmp_path, capsys):
    out = tmp_path / "cert"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "element", "--samples", "4", "--format", "csv",
              "--out", str(out)])
    assert exc.value.code == 2
    assert not list(tmp_path.iterdir())
    assert main(["verify", "element", "--samples", "4", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cert.json", "cert.md"]
    assert (tmp_path / "cert.md").read_text() + "\n" == printed
    assert json.loads((tmp_path / "cert.json").read_text())["samples"] == 4


def test_verify_element_small(capsys):
    code = main(["verify", "element", "--samples", "20", "--seed", "1"])
    assert code == 0
    assert "overall: pass" in capsys.readouterr().out


def test_verify_element_family_alias(capsys):
    code = main(["verify", "element", "--samples", "16", "--family", "rect"])
    assert code == 0
    assert "family=rectangular" in capsys.readouterr().out


def test_verify_sequence(capsys):
    code = main(["verify", "sequence", "--mesh", "rect", "--n", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "scalar 3, vector 6, pressure 3" in out


def test_verify_sequence_random(capsys):
    code = main(["verify", "sequence", "--mesh", "random", "--n", "4", "--seed", "9"])
    assert code == 0


def test_verify_sequence_writes_report_json(tmp_path):
    out = tmp_path / "seq"
    assert main(["verify", "sequence", "--mesh", "trap", "--n", "2", "--out", str(out)]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["seq.json"]
    report = verify_exact_sequence(make_mesh(2, "trapezoidal"))
    assert json.loads((tmp_path / "seq.json").read_text()) == report.to_dict()


def test_mesh_export_roundtrip(tmp_path, capsys):
    path = tmp_path / "m.json"
    code = main(["mesh", "--mesh", "rect", "--n", "2", "--out", str(path),
                 "--roundtrip-check"])
    assert code == 0
    out = capsys.readouterr().out
    assert "9 vertices" in out
    assert "round-trip hash ok" in out
    mesh = Mesh.load(path)
    assert mesh.n_vertices == 9


def test_trapezoid_delta_zero_export_matches_rectangular(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["mesh", "--mesh", "trap", "--delta", "0", "--n", "3", "--out", str(a)]) == 0
    assert main(["mesh", "--mesh", "rect", "--n", "3", "--out", str(b)]) == 0
    va = json.loads(a.read_text())["vertices"]
    vb = json.loads(b.read_text())["vertices"]
    assert va == vb


@pytest.mark.parametrize("argv", [
    ["study", "scalar", "--n", "4,8,16,32,64"],
    ["study", "brinkman", "--n", "4,8,16,32,64"],
    ["verify", "element", "--samples", "1000"],
    ["verify", "sequence", "--n", "16"],
    ["mesh", "--n", "4"],
], ids=["scalar", "brinkman", "element", "sequence", "mesh"])
def test_unwritable_out_fails_before_the_work(argv, tmp_path, monkeypatch, capsys):
    # It used to run the whole command and then raise FileNotFoundError.
    def no_work(*args, **kwargs):
        raise AssertionError("the command ran before --out was checked")

    for name in ("make_mesh", "run_scalar_study", "run_brinkman_study", "element_certificate"):
        monkeypatch.setattr(f"quadseq.cli.{name}", no_work)
    out = tmp_path / "missing" / "x"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out {out}: directory ") and err.count("\n") == 1
    assert "does not exist" in err and not (tmp_path / "missing").exists()
    # A path that ends in a separator, or in . or .., names a directory: the
    # prefix commands used to write hidden files such as DIR/.json and
    # ..json into it. The relative paths are read from a working directory
    # inside tmp_path.
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    directories = [f"{tmp_path}{os.sep}", os.curdir, os.pardir, os.path.join("..", "work", "."),
                   os.path.join(str(tmp_path), os.curdir), os.path.join(str(work), os.pardir)]
    if argv[0] == "mesh":
        # The mesh command writes the path itself, so an existing directory
        # there is refused too (it used to raise IsADirectoryError, exit 1);
        # the other commands take a prefix, beside which a directory of the
        # same name is harmless.
        directories.append(str(tmp_path))
    for out in directories:
        assert main(argv + ["--out", out]) == 2
        assert capsys.readouterr().err == f"error: --out {out}: names a directory, not a file\n"
    assert list(tmp_path.iterdir()) == [work] and not any(work.iterdir())


def test_out_in_the_working_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["mesh", "--n", "2", "--out", "m.json"]) == 0
    assert (tmp_path / "m.json").exists()
