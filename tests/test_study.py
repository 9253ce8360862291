import json

import numpy as np
import pytest

import quadseq.study
from quadseq.study import (
    StudyReport,
    fit_order,
    pairwise_orders,
    run_brinkman_study,
    run_scalar_interpolation_study,
    run_scalar_study,
    run_vector_interpolation_study,
)


def test_order_from_published_pair():
    # log2(2.804e-1 / 1.368e-1) = 1.0355..., printed as 1.04.
    orders = pairwise_orders([32, 64], [2.804e-1, 1.368e-1])
    assert orders[-1] == pytest.approx(1.0355, abs=5e-4)
    assert round(orders[-1], 2) == 1.04


def test_fit_order_on_exact_power_law():
    ns = [4, 8, 16, 32]
    errs = [16.0 / n**2 for n in ns]
    assert fit_order(ns, errs) == pytest.approx(2.0, abs=1e-12)
    assert pairwise_orders(ns, errs)[1:] == pytest.approx([2.0, 2.0, 2.0])


@pytest.mark.parametrize("study", [run_scalar_study, run_brinkman_study,
                                   run_scalar_interpolation_study,
                                   run_vector_interpolation_study])
@pytest.mark.parametrize("n_list", [[8, 4], [4, 8, 8]])
def test_resolutions_must_increase(study, n_list):
    with pytest.raises(ValueError, match="increase strictly"):
        study(n_list=n_list)


@pytest.mark.parametrize("study, orders, name", [
    (run_scalar_study, {"quad_order": 0}, "quad_order"),
    (run_scalar_study, {"quad_order": 9}, "quad_order"),
    (run_scalar_study, {"error_quad_order": 0}, "error_quad_order"),
    (run_scalar_study, {"quad_order": 7}, r"error_quad_order \(default quad_order \+ 2\)"),
    (run_brinkman_study, {"quad_order": 9}, "quad_order"),
    (run_brinkman_study, {"error_quad_order": 0}, "error_quad_order"),
    (run_scalar_interpolation_study, {"error_quad_order": 1}, "error_quad_order"),
    (run_vector_interpolation_study, {"error_quad_order": 9}, "error_quad_order"),
], ids=["scalar-quad0", "scalar-quad9", "scalar-error0", "scalar-quad7-default-error9",
        "brinkman-quad9", "brinkman-error0", "scalar-interpolation-error1",
        "vector-interpolation-error9"])
def test_rule_orders_are_checked_before_any_level(monkeypatch, study, orders, name):
    def no_level(*args, **kwargs):
        raise AssertionError("a mesh level was built before the orders were checked")

    monkeypatch.setattr(quadseq.study, "make_mesh", no_level)
    with pytest.raises(ValueError, match=f"^{name} must lie in 2..8"):
        study(n_list=[4, 8], **orders)


@pytest.mark.parametrize("study", [run_scalar_study, run_brinkman_study,
                                   run_scalar_interpolation_study,
                                   run_vector_interpolation_study])
def test_empty_resolution_list_is_named(study):
    # It used to return a report with no level.
    with pytest.raises(ValueError, match=r"^n_list must be non-empty and increase strictly, "
                                         r"got \[\]"):
        study(n_list=[])


@pytest.mark.parametrize("study, orders, name", [
    (run_scalar_study, {"quad_order": 4.5}, "quad_order"),
    (run_brinkman_study, {"quad_order": True}, "quad_order"),
    (run_scalar_study, {"error_quad_order": "6"}, "error_quad_order"),
    (run_vector_interpolation_study, {"error_quad_order": 6.0}, "error_quad_order"),
], ids=["scalar-quad-float", "brinkman-quad-bool", "scalar-error-str", "vector-error-float"])
def test_rule_orders_must_be_integers(monkeypatch, study, orders, name):
    # 4.5 used to fail inside NumPy's Gauss rule ("deg must be an integer").
    monkeypatch.setattr(quadseq.study, "make_mesh", lambda *args, **kwargs: None)
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        study(n_list=[4, 8], **orders)


def test_rule_orders_take_numpy_integers():
    import numpy as np
    report = run_scalar_interpolation_study(n_list=[4], error_quad_order=np.int64(6))
    assert report.errors == run_scalar_interpolation_study(n_list=[4]).errors


def test_scalar_study_decreases():
    r = run_scalar_study(eps=1.0, n_list=[4, 8, 16])
    e = r.errors["energy"]
    assert e[0] > e[1] > e[2]
    assert 0.9 < r.order_last("energy") < 1.3


def test_brinkman_study_norms_present():
    r = run_brinkman_study(nu=1.0, alpha=1.0, n_list=[4, 8])
    for norm in ("velocity_ah", "pressure_l2", "velocity_l2", "velocity_h1"):
        assert len(r.errors[norm]) == 2
        assert r.errors[norm][1] < r.errors[norm][0]


def test_interpolation_studies_orders():
    rs = run_scalar_interpolation_study(n_list=[8, 16, 32])
    assert rs.order_last("h2") == pytest.approx(1.0, abs=0.15)
    assert rs.order_last("h1") == pytest.approx(2.0, abs=0.15)
    rv = run_vector_interpolation_study(n_list=[8, 16, 32])
    assert rv.order_last("velocity_h1") == pytest.approx(1.0, abs=0.15)
    assert rv.order_last("velocity_l2") == pytest.approx(2.0, abs=0.15)


def test_report_serialization_deterministic():
    a = run_scalar_study(eps=0.0, n_list=[4, 8])
    b = run_scalar_study(eps=0.0, n_list=[4, 8])
    assert a.to_csv() == b.to_csv()
    assert a.to_markdown() == b.to_markdown()
    assert a.to_json() == b.to_json()
    # runtime is excluded from artifacts
    assert "runtime" not in a.to_json()


def test_csv_layout():
    r = run_scalar_study(eps=0.0, n_list=[4, 8])
    lines = r.to_csv().strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "n"
    assert "energy" in header
    assert "order_last" in header and "order_fit" in header
    assert len(lines) == 3  # header + one row per n


@pytest.mark.parametrize("study", [
    lambda: run_scalar_study(eps=1.0, family="random", seed=1, n_list=[4, 8, 16, 32]),
    lambda: run_brinkman_study(family="random", seed=1, n_list=[4, 8, 16, 32]),
], ids=["scalar", "brinkman"])
def test_csv_orders_are_the_report_orders(study):
    # Row k holds entry k of orders(), which comes from the same two errors
    # as the last order of the first k + 1 levels, and the fit over those
    # levels, which differs from order_fit, the fit over all of them.
    r = study()
    header, *rows = [line.split(",") for line in r.to_csv().splitlines()]
    assert len(rows) == len(r.n_list)
    for j, nm in enumerate(r.norms):
        suffix = "" if j == 0 else f"_{nm}"
        last, fit = header.index("order_last" + suffix), header.index("order_fit" + suffix)
        for k, row in enumerate(rows):
            o = r.orders(nm)[k]
            assert o == (pairwise_orders(r.n_list[: k + 1], r.errors[nm][: k + 1])[-1]
                         if k else None)
            fo = fit_order(r.n_list[: k + 1], r.errors[nm][: k + 1])
            assert row[last] == ("" if o is None else f"{o:.4f}")
            assert row[fit] == ("" if fo is None else f"{fo:.4f}")
        assert rows[-1][last] == f"{r.order_last(nm):.4f}"
        assert fit_order(r.n_list[:3], r.errors[nm][:3]) != r.order_fit(nm)


def test_json_round_trip_fields():
    r = run_brinkman_study(nu=0.0, alpha=1.0, n_list=[4, 8])
    doc = json.loads(r.to_json())
    assert doc["problem"] == "brinkman"
    assert doc["params"] == {"nu": 0.0, "alpha": 1.0}
    assert doc["n_list"] == [4, 8]
    assert set(doc["errors"]) == set(r.norms)
    assert doc["order_last"]["velocity_ah"] is not None


def test_json_writes_an_order_from_a_zero_error_as_null():
    # An error of 0 makes the order log(e / 0) and the fit non-finite; the
    # JSON writes them as null, which a strict parser reads.
    r = StudyReport("scalar", {}, "rectangular", 0.2, 0, [4, 8], 4, 6, ["h1"],
                    errors={"h1": [1e-3, 0.0]})

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    with np.errstate(divide="ignore"):
        doc = json.loads(r.to_json(), parse_constant=reject)
    assert doc["errors"] == {"h1": [1e-3, 0.0]}
    assert doc["orders"] == {"h1": [None, None]}
    assert doc["order_last"] == doc["order_fit"] == {"h1": None}


def test_markdown_layout():
    r = run_scalar_study(eps=1.0, n_list=[4, 8])
    md = r.to_markdown()
    assert "n=4" in md and "n=8" in md and "order" in md
    assert "energy" in md


def test_random_study_reproducible():
    a = run_scalar_study(eps=0.0, family="random", seed=5, n_list=[4, 8])
    b = run_scalar_study(eps=0.0, family="random", seed=5, n_list=[4, 8])
    assert a.to_csv() == b.to_csv()
