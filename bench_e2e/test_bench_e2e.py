"""The benchmark's own checks, at ``--quick`` scale (N = 2 000, a few ops).

Collected by the tier-1 command (``python -m pytest`` from the root).
They assert that the pipeline runs every workload and emits every
metric ``BENCHMARK.json`` names, that a corrupted answer is counted as
a failed operation, that span self times plus ``unattributed_s`` add up
to the traced wall, and that the tracer leaves no wrapper behind.  No
test asserts on how long anything took.
"""

from __future__ import annotations

import io
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench_e2e import compare, pipeline, run  # noqa: E402
from bench_e2e.layers import TARGETS, Target  # noqa: E402
from bench_e2e.trace import Tracer, installed_wrappers  # noqa: E402
from bench_e2e.workloads import WORKLOADS  # noqa: E402

SPEC = run.load_spec()


@pytest.fixture(scope="module")
def untraced_runs():
    return {
        name: pipeline.run_workload(workload.quick(), seed=7, seconds=0.0, trace=False)
        for name, workload in WORKLOADS.items()
    }


@pytest.fixture(scope="module")
def traced_run():
    """The per-layer metric set is the same for every workload: one traced run."""
    return pipeline.run_workload(
        WORKLOADS["serve_mixed"].quick(), seed=7, seconds=0.0, trace=True
    )


def test_spec_names_the_workloads_and_stays_inside_the_contract():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["bench_e2e"]
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_workload_runs_and_emits_every_end_to_end_metric(untraced_runs, name):
    result = untraced_runs[name]
    assert result["correct"] and result["failed"] == 0, result["notes"]
    assert result["attempted"] > 50 and result["rounds"] >= 2
    shaped = run.named_metrics(SPEC, result)
    assert list(shaped) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(set(entry) == {"value", "unit"} and entry["unit"] for entry in shaped.values())
    # End-to-end metrics are compared as shares of a median: none may read zero.
    assert all(entry["value"] > 0 for entry in shaped.values())


def test_traced_run_emits_every_per_layer_metric(traced_run):
    assert traced_run["correct"], traced_run["notes"]
    for metric in SPEC["per_layer"]:
        assert metric["name"] in traced_run["layer"], f"{metric['name']} not emitted"
    shaped = run.named_metrics(SPEC, traced_run)
    assert list(shaped) == [m["name"] for m in SPEC["per_layer"]]
    assert traced_run["layer"]["trace.missing_targets"] == 0
    # Every layer table row produced spans: nothing in the table is dead.
    recorded = {span[0] for span in traced_run["tracer"].spans}
    assert {target.span for target in TARGETS} <= recorded


def test_span_self_times_and_unattributed_add_up_to_the_traced_wall(traced_run):
    layer = traced_run["layer"]
    total = layer["trace.attributed_self_s"] + layer["unattributed_s"]
    assert total == pytest.approx(layer["trace.traced_wall_s"], rel=0.02)
    assert 0.0 <= layer["unattributed_s"] <= 0.15 * layer["trace.traced_wall_s"]


def test_tracer_leaves_no_wrapper_installed(traced_run):
    assert installed_wrappers() == []
    tracer = Tracer(TARGETS)
    with pytest.raises(RuntimeError, match="boom"):
        with tracer:
            assert installed_wrappers()
            raise RuntimeError("boom")
    assert installed_wrappers() == []


def test_a_removed_target_warns_and_reads_zero():
    tracer = Tracer([Target("core.sims", "no_such_function", "gone")])
    with pytest.warns(UserWarning, match="no longer exists"):
        with tracer:
            pass
    assert tracer.missing == ["core.sims:no_such_function"]
    result = {"trace": True, "layer": {}}
    assert all(m["value"] == 0.0 for m in run.named_metrics(SPEC, result).values())


def _query_pass_failures(corrupt) -> tuple[int, int]:
    workload = WORKLOADS["query_rw"].quick()
    inputs = pipeline.set_up(workload, seed=3)
    corrupt(inputs)
    ctx = pipeline.Context(workload)
    pipeline.query_pass(ctx, inputs, pipeline.Round(0, pipeline.NO_TRACER))
    return ctx.checks.failed, ctx.checks.attempted


def test_a_corrupted_exact_answer_fails_the_operation():
    def corrupt(inputs):
        exact = inputs.tree.exact_search

        def wrong(query, *args):
            result = exact(query, *args)
            result.distance *= 1.001
            return result

        inputs.tree.exact_search = wrong

    failed, attempted = _query_pass_failures(corrupt)
    n_exact = WORKLOADS["query_rw"].quick().n_exact
    assert failed == n_exact and attempted > failed


def test_a_corrupted_batch_or_approximate_answer_fails_the_operation():
    def corrupt(inputs):
        approx, batch = inputs.tree.approximate_search, inputs.tree.query_batch

        def out_of_range(query, *args):
            result = approx(query, *args)
            result.answer_idx = 10**9
            return result

        def too_close(request, **kwargs):
            report = batch(request, **kwargs)
            report.knn_distances[0][0] *= 0.5
            return report

        inputs.tree.approximate_search = out_of_range
        inputs.tree.query_batch = too_close

    failed, _ = _query_pass_failures(corrupt)
    assert failed == WORKLOADS["query_rw"].quick().n_approx + 1


def test_a_wrong_served_ticket_fails_the_operation():
    workload = WORKLOADS["serve_mixed"].quick()
    inputs = pipeline.set_up(workload, seed=3)
    ctx = pipeline.Context(workload)
    _, _, service = pipeline._new_service(workload, inputs.data)
    try:
        ticket = service.query(inputs.serve_q[0], mode="exact", k=pipeline.SERVE_K)
        pipeline._check_ticket(ctx, inputs, 0, ticket)
        assert ctx.checks.failed == 0
        ticket.knn_distances[-1] += 0.01
        pipeline._check_ticket(ctx, inputs, 0, ticket)
        assert (ctx.checks.failed, ctx.checks.attempted) == (1, 2)
    finally:
        service.stop()


def test_determinism_guard_fails_loudly():
    samples = pipeline.Samples()
    for name in pipeline.GUARDED:
        samples.add(name, 1.5)
        samples.add(name, 1.5)
    pipeline._guard(samples)
    samples["core.lsm.merges"][1] = 2
    with pytest.raises(pipeline.DeterminismError, match="core.lsm.merges"):
        pipeline._guard(samples)


def _document(values_by_metric: dict, failed: int = 0) -> dict:
    metrics = {}
    for metric in SPEC["end_to_end"]:
        values = values_by_metric.get(metric["name"], [1.0, 1.0, 1.0, 1.0, 1.0])
        metrics[metric["name"]] = {"unit": metric["unit"], "values": values}
    runs = [
        {"workload": w["name"], "attempted": 100, "failed": failed,
         "metrics": {k: {"value": v["values"][i], "unit": v["unit"]} for k, v in metrics.items()}}
        for w in SPEC["workloads"]
        for i in range(5)
    ]
    return {"end_to_end": run.summarize(runs)}


def test_compare_flags_regressions_unresolved_and_failures():
    base = _document({})
    assert compare.compare(SPEC, base, _document({}), out=io.StringIO()) == 0
    slower = _document({"exact_p50_ms": [1.5] * 5})
    out = io.StringIO()
    assert compare.compare(SPEC, base, slower, out=out) == 1
    assert "regression" in out.getvalue()
    # higher-is-better metrics regress downwards
    assert compare.compare(
        SPEC, base, _document({"batch_exact_qps": [0.5] * 5}), out=io.StringIO()
    ) == 1
    noisy = _document({"exact_p50_ms": [0.6, 0.8, 1.0, 1.2, 1.4]})
    out = io.StringIO()
    assert compare.compare(SPEC, base, noisy, out=out) == 0
    assert "unresolved" in out.getvalue()
    assert compare.compare(SPEC, base, _document({}, failed=1), out=io.StringIO()) == 1


def test_committed_baseline_has_the_out_schema():
    baseline = json.load(
        open(os.path.join(ROOT, "bench_e2e", "results", "baseline.json"), encoding="utf-8")
    )
    for key in ("commit", "nproc", "python", "numpy", "seed", "end_to_end", "per_layer"):
        assert key in baseline
    for name in WORKLOADS:
        body = baseline["end_to_end"][name]
        assert body["failed"] == 0
        for metric in SPEC["end_to_end"]:
            entry = body["metrics"][metric["name"]]
            assert entry["n"] >= 5 and {"median", "q1", "q3", "values"} <= set(entry)
        assert set(baseline["per_layer"][name]["metrics"]) == {
            m["name"] for m in SPEC["per_layer"]
        }
