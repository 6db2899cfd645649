"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import spec  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class SmallFleet(workloads.FleetClean):
    packets = 1500


class SmallDay(workloads.ClusterDay):
    packets = 3000
    crash_at = 200


class SmallSlo(workloads.SloDay):
    packets = 8000


SMALL = (SmallFleet(), SmallDay(), SmallSlo())


def _traced_pass(wl, inputs):
    t = tracing.Tracer()
    tracing.install(t)
    t.timed(wl, "summarize", "accounting")
    try:
        fleet = wl.build()
        result = t.region(wl.run, fleet, inputs)
    finally:
        t.restore()
    return result, tracing.layer_metrics(t, result.packets, result.layers)


@pytest.mark.parametrize("wl", SMALL, ids=lambda w: w.name)
def test_modeled_metrics_repeat_exactly(wl):
    inputs = wl.inputs(3)
    first = wl.run(wl.build(), inputs)
    second = wl.run(wl.build(), inputs)
    traced, _ = _traced_pass(wl, inputs)
    assert not first.problems, first.problems
    assert first.model == second.model == traced.model
    assert first.witness == second.witness == traced.witness
    assert wl.inputs(3) == inputs


@pytest.mark.parametrize("wl", SMALL[:2], ids=lambda w: w.name)
def test_fused_matches_interpreted(wl):
    inputs = wl.inputs(4)
    fused = wl.run(wl.build(), inputs)
    assert workloads.parity_problems(wl, inputs, fused) == []


def test_fleet_clean_draws_no_faults_and_queues_nothing():
    wl = SMALL[0]
    result, layers = _traced_pass(wl, wl.inputs(5))
    assert layers["faults.draws"] == 0
    assert layers["faults.injected"] == 0
    assert layers["queueing.batches"] == 0
    assert layers["queueing.offers"] == 0
    assert layers["irnf.calls"] > 0 and layers["xdp.feeds"] > 0
    assert result.model["fail_frac"] == 0


def test_cluster_day_layers_are_exercised():
    wl = SMALL[1]
    result, layers = _traced_pass(wl, wl.inputs(5))
    assert layers["faults.draws"] >= 5 * result.packets * 0.9
    assert layers["queueing.batches"] > 0
    assert layers["apps.ring_slots_moved"] > 0
    assert layers["apps.fail_real_s"] > 0
    assert 0.9 <= layers["trace.coverage"] <= 1.0
    assert result.model["model_p99_us"] >= result.model["model_p50_us"] > 0


def test_tracer_restores_every_attribute():
    from repro.net.multicore import RssDispatcher
    from repro.net.xdp import ReplaySession

    before = (RssDispatcher.run, ReplaySession.feed)
    t = tracing.Tracer()
    tracing.install(t)
    assert RssDispatcher.run is not before[0]
    t.restore()
    assert (RssDispatcher.run, ReplaySession.feed) == before


def test_self_time_excludes_children():
    t = tracing.Tracer()

    class Layered:
        def outer(self):
            self.inner()

        def inner(self):
            sum(range(20000))

    t.timed(Layered, "outer", "outer")
    t.timed(Layered, "inner", "inner", span=False)
    try:
        t.region(Layered().outer)
    finally:
        t.restore()
    assert t.calls["outer"] == t.calls["inner"] == 1
    assert t.self_s["outer"] < t.wall_s["outer"]
    assert t.self_s["outer"] + t.wall_s["inner"] == pytest.approx(
        t.wall_s["outer"]
    )
    assert [s[0] for s in t.spans] == ["outer"]
    assert t.covered_s <= t.region_s


# -- compare tool ------------------------------------------------------------------


def test_compare_classifies_host_metrics():
    parent = [100.0 + i % 3 for i in range(10)]
    faster = [120.0 + i % 3 for i in range(10)]
    slower = [70.0 + i % 3 for i in range(10)]
    noisy = [50.0, 150.0] * 5
    assert compare.classify(parent, faster, "higher", 0.1)[0] == "improved"
    assert compare.classify(parent, slower, "higher", 0.1)[0] == "worse"
    assert compare.classify(parent, parent, "higher", 0.1)[0] == "unchanged"
    assert compare.classify(noisy, noisy, "higher", 0.1)[0] == "unresolved"
    # lower-is-better flips the direction
    assert compare.classify(parent, slower, "lower", 0.1)[0] == "improved"
    # a gain on fewer than ten pairs is not a claim
    assert compare.classify(parent[:5], faster[:5], "higher", 0.1)[0] \
        == "unresolved"
    # within the bound, a small loss is not a regression
    assert compare.classify(parent, [v - 5 for v in parent], "higher",
                            0.1)[0] == "unchanged"


def test_compare_modeled_metrics_demand_identity():
    assert compare.classify_model([1, 2], [1, 2], "higher", 0.1) == (
        "unchanged", 0.0, True)
    verdict, _, same = compare.classify_model([30], [29], "higher", 0.0)
    assert verdict == "worse" and not same


def test_compare_end_to_end_on_result_files(tmp_path):
    def result(seed, pps, mpps):
        metrics = {
            m.name: {"value": 1.0, "unit": m.unit}
            for m in spec.metrics_for("cluster_day")
        }
        metrics["host_pps"]["value"] = pps
        metrics["model_mpps"]["value"] = mpps
        return {"workload": "cluster_day", "seed": seed, "trace": 0,
                "correct": True, "metrics": metrics}

    a = [result(s, 100.0 + s % 3, 60.0) for s in range(10)]
    b = [result(s, 60.0 + s % 3, 60.0) for s in range(10)]
    lines, worse = compare.compare(a, b)
    text = "\n".join(lines)
    assert worse
    assert "host_pps           worse" in text
    assert "model_mpps         unchanged" in text and "bit-identical" in text


# -- the command-line contract ---------------------------------------------------


def test_benchmark_json_matches_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json()
    assert tuple(workloads.WORKLOADS) == spec.WORKLOADS
    names = [m["name"] for m in on_disk["end_to_end"]]
    assert "setup_s" in names
    assert all(spec.E2E[n].workloads == spec.WORKLOADS for n in names)
    assert all(m["bound"] <= 0.25 for m in on_disk["end_to_end"])
    assert len(on_disk["per_layer"]) == len(set(
        m["name"] for m in on_disk["per_layer"]))


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_schema(trace):
    out = _run("--workload", "slo_day", "--seed", "2", "--seconds", "1",
               "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    expected = (
        list(spec.RESULT_E2E) if not trace
        else [layer.name for layer in spec.PER_LAYER]
    )
    assert list(last["metrics"]) == expected
    for name, metric in last["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0
    saved = json.loads(
        (BENCH / "out" / f"slo_day-seed2-trace{trace}.json").read_text())
    assert saved["seed"] == 2 and "host" in saved
    assert "source_sha256" in saved and "git_commit" in saved


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run("--workload", "fleet_clean", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
