"""Tests of the benchmark's own code (not of szegolab).

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import os
import re
import sys
import threading

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import run  # noqa: E402
from layers import LAYER_METRICS, OVERHEAD_METRIC, layer_metrics  # noqa: E402
from spans import SpanIndex, Tracer, union_length  # noqa: E402
from workloads import (WORKLOADS, check, job_seed, load_reference,  # noqa: E402
                       oracle_matrices)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark_json():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def test_union_length_merges_overlaps_and_skips_empty():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4.0
    assert union_length([(1, 1), (3, 2)]) == 0.0


def test_self_time_of_nested_spans():
    # root [0,10] has two children on different threads that overlap in [3,4];
    # child a [1,4] has a grandchild [2,3]; a child pokes out of its parent.
    rows = [
        [1, "root", None, 1, 0.0, 10.0, {}],
        [2, "a", 1, 1, 1.0, 4.0, {}],
        [3, "b", 1, 2, 3.0, 6.0, {}],
        [4, "a.inner", 2, 1, 2.0, 3.0, {}],
        [5, "late", 1, 2, 9.0, 12.0, {}],
    ]
    ix = SpanIndex(rows)
    assert ix.self_time(rows[0]) == pytest.approx(10 - 5 - 1)
    assert ix.self_time(rows[1]) == pytest.approx(2.0)
    assert ix.self_time(rows[3]) == pytest.approx(1.0)
    assert ix.total_self("a", "a.inner") == pytest.approx(3.0)
    assert ix.has_ancestor(rows[3], "root")
    assert not ix.has_ancestor(rows[0], "root")
    assert ix.uncovered(-1.0, 14.0) == pytest.approx(1.0 + 2.0)


def test_tracer_records_parents_threads_and_attrs():
    tr = Tracer()

    def leaf(x):
        return x * 2

    def outer():
        parent = tr.current()[-1]
        box = []
        t = threading.Thread(target=lambda: box.append(
            tr.call("task", leaf, (3,), parent=parent)))
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
        return tr.call("inline", leaf, (4,), attrs_fn=lambda a, k, out: {"out": out}) + box[0]

    assert tr.call("outer", outer) == 14
    ix = SpanIndex(tr.spans)
    (o,), (task,), (inline,) = ix.named("outer"), ix.named("task"), ix.named("inline")
    assert task[2] == o[0] and inline[2] == o[0]
    assert task[3] != o[3] and inline[3] == o[3]
    assert inline[6] == {"out": 8}
    assert o[4] <= task[4] <= task[5] <= o[5]


def test_wrap_names_a_missing_hook():
    import types
    mod = types.ModuleType("fake")
    mod.f = lambda: 1
    tr = Tracer()
    tr.wrap(mod, "f", "fake.f")
    tr.wrap(mod, "gone", "fake.gone")
    assert mod.f() == 1
    assert [r[1] for r in tr.spans] == ["fake.f"]
    assert tr.missing == ["fake.gone"]


def test_unseen_expected_layer_is_named_not_zero():
    job = {"t_launch": 0.0, "t_exit": 10.0, "items": 2}
    rows = [[1, "coefficients.spectral_data", None, 1, 1.0, 3.0, {"n": 4, "support": 1}],
            [2, "lattices.build_operator", 1, 1, 1.0, 1.5, {"n": 4}]]
    values, unobserved = layer_metrics(rows, job, WORKLOADS["sweep_d1"].layers)
    assert "coefficients.gH_s" in unobserved and "coefficients.gH_s" not in values
    assert values["coefficients.spectrum_s"] == pytest.approx(1.5)
    assert values["coefficients.support_frac"] == pytest.approx(0.25)
    assert values["coefficients.eigh_n3"] == 64
    assert values["spectral.solves"] == 0.0       # layer not exercised by this workload
    assert values["trace.uncovered_frac"] == pytest.approx(0.8)


# ---------------------------------------------------------------------------
# BENCHMARK.json and the names the benchmark prints
# ---------------------------------------------------------------------------

def test_benchmark_json_names_units_and_bounds():
    bench = _benchmark_json()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200
        assert "\n" not in w["why"]
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in bench["end_to_end"])}]
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    assert 1 <= bench["run_seconds"] <= 60
    assert 2 <= len(bench["workloads"]) <= 8


def test_benchmark_json_matches_what_the_runs_print():
    bench = _benchmark_json()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in bench["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}
    assert {(m["name"], m["unit"]) for m in bench["end_to_end"]} == set(run.END_TO_END.items())
    layer = {(n, u, b) for n, (u, b, _s, _f) in LAYER_METRICS.items()}
    layer.add(OVERHEAD_METRIC)
    assert {(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]} == layer


# ---------------------------------------------------------------------------
# correctness checker
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["sweep_d1", "sweep_d2", "certify_d1"])
def test_checker_accepts_reference_and_rounding(name):
    wl = WORKLOADS[name]
    ref = load_reference(wl)
    values = {k: v for k, v in ref.items() if k not in ("seed", "items")}
    assert check(wl, values, ref) == []
    rounded = copy.deepcopy(values)
    for key in ("A1_formula", "mu"):
        if key in rounded:
            rounded[key] *= 1 + 1e-11       # BLAS thread-count level
    assert check(wl, rounded, ref) == []


@pytest.mark.parametrize("name,key", [("sweep_d1", "A_hat"), ("sweep_d2", "A1_formula"),
                                      ("certify_d1", "mu"), ("certify_d1", "q_tilde")])
def test_checker_rejects_a_perturbed_headline_value(name, key):
    wl = WORKLOADS[name]
    ref = load_reference(wl)
    values = {k: copy.deepcopy(v) for k, v in ref.items() if k not in ("seed", "items")}
    if isinstance(values[key], list):
        values[key][1] *= 1 + 1e-5
    else:
        values[key] *= 1 + 1e-5
    problems = check(wl, values, ref)
    assert len(problems) == 1 and key in problems[0]
    assert check(wl, values, None) == []     # non-reference seeds are range-checked only


def test_checker_gates():
    sweep, oracle = WORKLOADS["sweep_d2"], WORKLOADS["oracle_hs"]
    assert check(sweep, {"A_hat": [0.1, float("nan")], "A1_formula": 0.1,
                         "within_3_sigma": True}, None)
    assert check(sweep, {"A_hat": [0.1], "A1_formula": 0.1, "within_3_sigma": False}, None)
    assert check(WORKLOADS["certify_d1"], {"mu": -0.1, "q_tilde": 4.0}, None)
    assert check(oracle, {"oracle_err": 1.4e-8, "matrices": oracle.items}, None) == []
    assert check(oracle, {"oracle_err": 2e-5, "matrices": oracle.items}, None)
    assert check(oracle, {"oracle_err": 1.4e-8, "matrices": oracle.items - 1}, None)


def test_reference_must_match_the_workload_budget(tmp_path, monkeypatch):
    import workloads
    with open(workloads.REFERENCE_PATH, encoding="utf-8") as fh:
        ref = json.load(fh)
    ref["sweep_d1"]["items"] += 1
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(ref))
    monkeypatch.setattr(workloads, "REFERENCE_PATH", str(path))
    with pytest.raises(ValueError):
        load_reference(WORKLOADS["sweep_d1"])


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def test_oracle_matrices_are_deterministic_hermitian_and_scaled():
    a, b = oracle_matrices(5, 3), oracle_matrices(5, 3)
    c = oracle_matrices(6, 3)
    for x, y, z in zip(a, b, c):
        assert np.array_equal(x, y) and not np.array_equal(x, z)
        assert x.shape == (16, 16) and np.array_equal(x, x.conj().T)
        assert np.abs(np.linalg.eigvalsh(x)).max() == pytest.approx(0.8)


def test_job_seeds_are_deterministic_and_job0_is_the_reference():
    for wl in WORKLOADS.values():
        assert job_seed(wl, 3, 0) == wl.ref_seed
    seeded = WORKLOADS["certify_d1"]
    seeds = [job_seed(seeded, 3, k) for k in range(1, 50)]
    assert seeds == [job_seed(seeded, 3, k) for k in range(1, 50)]
    assert len(set(seeds)) == len(seeds)
    assert not set(seeds) & {job_seed(seeded, 4, k) for k in range(1, 50)}
    sweep = WORKLOADS["sweep_d2"]
    assert {job_seed(sweep, 3, k) for k in range(50)} == {sweep.ref_seed}
