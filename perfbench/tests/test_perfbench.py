"""Tests of the benchmark itself: generators, oracles, tracing arithmetic.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import compare  # noqa: E402
import instances as ins  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_generated_cp3_and_cp1xcp1_h_vectors():
    assert oracles.h_vector(ins.cp_fan(3)) == [1, 1, 1, 1]
    assert oracles.h_vector(ins.product_fan(ins.cp_fan(1), ins.cp_fan(1))) == [1, 2, 1]


@pytest.mark.parametrize("fan", [
    ins.cp_fan(3), ins.cp_fan(4, (1, -1, 1, -1)),
    ins.product_fan(ins.cp_fan(2), ins.cp_fan(2)),
    ins.bott_tower({(0, 1): 1, (0, 2): -1, (1, 2): 1}, 3),
])
def test_blow_up_adds_one_in_each_degree_2_to_2n_minus_2(fan):
    n = fan.n
    before = oracles.fan_betti(fan)
    for k in range(len(fan.cones)):
        after = oracles.fan_betti(ins.blow_up(fan, k))
        added = [a - b for a, b in zip(after, before)]
        assert added == [int(2 <= d <= 2 * n - 2 and d % 2 == 0) for d in range(2 * n + 1)]


def test_leray_hirsch_for_a_hirzebruch_surface():
    assert oracles.bundle_betti(ins.cp_fan(1), ins.cp_poincare(1)) == [1, 0, 2, 0, 1]


def _outputs(expect):
    """One correct output per job kind, built from the oracle data."""
    betti = expect["betti"]
    qa_degrees = [d for d, k in enumerate(betti) for _ in range(k)]
    return {
        "betti": {"result": {"dims": betti, "total": sum(betti)}},
        "brion": {"result": {"bundle_dims": betti, "fiber_quotient_dims": expect["h"]}},
        "check_all": {"result": {"ok": True, "betti": betti, "bkk_failures": [],
                                 "bkk_samples": expect["samples"]}},
        "ann_generators": {"result": {"generators_by_weighted_degree": {
            d: ["g"] * k for d, k in expect["generators"].items()}}},
        "quotient_algebra": {"degrees": qa_degrees, "valid": True},
    }


def _variants(kind, good):
    """Copies of a correct output with exactly one entry changed."""
    if kind == "quotient_algebra":
        yield dict(good, valid=False)
        yield dict(good, degrees=good["degrees"][:-1])
        return
    result = good["result"]
    for key, value in result.items():
        if isinstance(value, list):
            for i in range(len(value)):
                changed = list(value)
                changed[i] = changed[i] + 1 if isinstance(changed[i], int) else "x"
                yield {"result": dict(result, **{key: changed})}
        elif isinstance(value, dict):
            for d in value:
                yield {"result": dict(result, **{key: dict(value, **{d: value[d] + ["g"]})})}
        elif isinstance(value, bool):
            yield {"result": dict(result, **{key: not value})}
        elif isinstance(value, int):
            yield {"result": dict(result, **{key: value + 1})}


@pytest.mark.parametrize("kind", workloads.KINDS)
def test_oracle_accepts_correct_output_and_rejects_one_changed_entry(kind):
    expect = {"betti": [1, 0, 2, 0, 1], "h": [1, 2, 1], "samples": 5,
              "generators": {"2": 1, "4": 2}}
    good = _outputs(expect)[kind]
    assert oracles.check_output(kind, expect, json.dumps(good)) is None
    variants = list(_variants(kind, good))
    assert variants
    for bad in variants:
        assert oracles.check_output(kind, expect, json.dumps(bad)) is not None, bad


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ["job.run", 0.0, 10.0, -1],
        ["exact.rank", 1.0, 4.0, 0],
        ["kernels.echelon_int", 2.0, 3.0, 1],
        ["exact.rank", 5.0, 9.0, 0],
        ["exact.det", 9.5, 11.0, 0],  # runs past its parent: only 0.5 s is covered
    ]
    assert tracing.self_times(spans) == pytest.approx([2.5, 2.0, 1.0, 4.0, 1.5])
    nested = spans[:4]
    out = tracing.aggregate([{"spans": nested, "counts": {}, "distinct": {},
                              "kernel": {"rows_in": 6, "rows_distinct": 2}}])
    assert out["exact.rank.calls"] == 2
    assert out["exact.rank.self_s"] == pytest.approx(6.0)
    assert out["kernels.echelon_int.s"] == pytest.approx(1.0)
    assert out["layer.job.self_s"] == pytest.approx(3.0)
    assert out["layer.total_s"] == pytest.approx(10.0)
    assert out["exact.rerank_ratio"] == pytest.approx(3.0)


def test_end_to_end_times_scale_each_job_by_the_probe_before_it():
    def job(wall, probe):
        return {"wall": wall, "setup": wall / 10, "rss_mb": 20.0, "probe": probe}
    nominal = run.PROBE_NOMINAL_S
    passes = [[job(1.0, nominal), job(2.0, 2 * nominal)],  # 1 + 1
              [job(4.0, 2 * nominal)],                     # 2
              [job(3.0, nominal)]]                         # 3
    out = run.end_to_end(passes)
    assert out["wall_s"] == pytest.approx(2.0)
    assert out["setup_s"] == pytest.approx(0.2)
    assert run.end_to_end(passes, normalize=False)["wall_s"] == pytest.approx(3.0)


def test_traced_child_reaches_names_bound_by_from_import():
    spec = {"src": os.path.join(ROOT, "src"), "kind": "check_all", "trace": True,
            "argv": ["check-all", "hirzebruch?a=1", "--samples", "3"]}
    out = subprocess.run([sys.executable, os.path.join(BENCH, "child.py"), json.dumps(spec)],
                         capture_output=True, text=True, check=True, timeout=120).stdout
    env = json.loads(out.strip().splitlines()[-1])
    assert env["code"] == 0 and env["traceback"] is None
    metrics = tracing.aggregate([env["trace"]])
    # evaluate_top is called through the names invsys and multipoly imported,
    # echelon_int through the name exact imported, is_face through srbundle's.
    for name in ("srbundle.evaluate_top.calls", "kernels.echelon_int.calls",
                 "charpair.is_face.calls", "charpair.cone_sign.calls",
                 "multipoly.bkk_check.calls", "basealg.mul.calls"):
        assert metrics[name] > 0, name
    root = [s for s in env["trace"]["spans"] if s[3] == -1]
    assert len(root) == 1 and root[0][0] == tracing.ROOT
    assert metrics["layer.total_s"] == pytest.approx(root[0][2] - root[0][1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_set_up_generates_instances_that_pass_validate(workload, tmp_path):
    jobs, backend = run.set_up(workload, 7, str(tmp_path))
    assert jobs and backend in ("python", "cython")


def test_seed_changes_entries_but_not_shapes(tmp_path):
    shapes = []
    for seed in (1, 2):
        _, files = workloads.build("fans", seed, str(tmp_path / str(seed)))
        shapes.append([(d["charpair"]["n"], len(d["charpair"]["rays"]),
                        len(d["charpair"]["max_cones"]))
                       for d in (json.load(open(f)) for f in files)])
    assert shapes[0] == shapes[1]


def test_every_drawable_variant_has_recorded_generator_counts():
    with open(os.path.join(BENCH, "expected_generators.json")) as fh:
        recorded = json.load(fh)
    for family in workloads.VARIANTS:
        assert set(workloads.all_variants(family)) <= set(recorded)


def test_compare_refuses_different_backends():
    rec = {"stamp": {"backend": "python", "workload": "fans", "trace": 0},
           "metrics": {"wall_s": {"value": 2.0, "unit": "s"}}}
    other = json.loads(json.dumps(rec))
    other["metrics"]["wall_s"]["value"] = 1.0
    assert compare.compare(rec, other) == ["wall_s: 2 -> 1 s (-50.0%)"]
    other["stamp"]["backend"] = "cython"
    with pytest.raises(ValueError):
        compare.compare(rec, other)


def test_layer_map_names_declared_metrics_and_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(BENCH, "layer_map.json")) as fh:
        layer_map = json.load(fh)
    declared = {m["name"] for m in bench["per_layer"] + bench["end_to_end"]}
    names = {w["name"] for w in bench["workloads"]}
    for group in layer_map:
        assert set(group["metrics"]) <= declared
        for move in group["moves"]:
            assert move["metric"] in declared and move["workload"] in names
