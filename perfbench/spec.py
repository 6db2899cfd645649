"""What the benchmark measures: workloads, metrics, and the layer map.

Every number the benchmark prints is defined here once.  Two kinds of
end-to-end metric are kept apart by name:

- ``host_*`` and ``setup_s`` are how fast the Python simulator runs on
  this machine (seconds scaled to a reference host speed by
  ``hostclock.py``; resident memory);
- ``model_*`` (and ``fail_frac``, ``targets_in_band``) come from the
  simulator's CostModel cycles and fault/queueing model.  They are a
  pure function of the workload seed: a change that only speeds up the
  simulator must leave every one of them bit-identical.

``BENCHMARK.json`` at the repository root lists the host end-to-end
metrics, which exist on *every* workload (a run prints them as its
final result line), and every per-layer metric.  The modeled metrics
are printed in each run's report, kept in its result file, and compared
seed by seed for bit-identity by ``compare.py``: they are exact for a
seed, but vary between seeds with the scenario itself (the autoscaled
fleet of slo_day scales at different epochs), which a spread-over-seeds
rule would misread as noise.  ``perfbench/tests`` checks that
``BENCHMARK.json`` stays in sync with this module.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

WORKLOADS = ("fleet_clean", "cluster_day", "slo_day", "paper_check")

#: Seconds one run measures (the ``--seconds`` default).
RUN_SECONDS = 10

#: One line per workload on why it is in the benchmark.
WHY = {
    "fleet_clean": (
        "fused Fig. 7 chains on 4 ntuple-steered cores, no faults or "
        "queueing: fuser and kfunc gains show, dispatch-glue gains must not"
    ),
    "cluster_day": (
        "fused Katran, chaos faults, a crash, flash crowd into bounded RX "
        "rings and a fail_real repack: dispatch loop, queueing and fault "
        "draws carry the host time"
    ),
    "slo_day": (
        "SLO autoscaler over the eNetSTL count-min NF with crash+rejoin and "
        "a detected wedge: the epoch loop and the library's Python "
        "multi-hash path"
    ),
    "paper_check": (
        "check_all, serial and uncached, as users reproduce the paper: "
        "per-packet XdpPipeline.run over repro.nfs/core/datastructs, 30 "
        "headline targets"
    ),
}

#: A seed kept out of every tuning run; later claims are re-checked on it.
HELD_OUT_SEED = 7919


class Metric(NamedTuple):
    name: str
    unit: str
    better: str          # "higher" | "lower"
    kind: str            # "host" | "model"
    workloads: Tuple[str, ...]
    bound: float         # share of the parent's median a change may lose


ALL = WORKLOADS
REPLAY = ("fleet_clean", "cluster_day", "slo_day")
QUEUED = ("cluster_day", "slo_day")

#: Every end-to-end metric.  ``workloads`` names where it is defined.
END_TO_END: Tuple[Metric, ...] = (
    Metric("host_pps", "pkt/s", "higher", "host", ALL, 0.25),
    Metric("host_run_s", "s", "lower", "host", ALL, 0.25),
    Metric("setup_s", "s", "lower", "host", ALL, 0.25),
    Metric("host_rss_mb", "MB", "lower", "host", ALL, 0.1),
    Metric("model_mpps", "Mpps", "higher", "model", ALL, 0.2),
    Metric("model_p50_us", "us", "lower", "model", QUEUED, 0.1),
    Metric("model_p99_us", "us", "lower", "model", QUEUED, 0.2),
    Metric("model_recovery_s", "s", "lower", "model", ("slo_day",), 0.25),
    Metric("model_disruption", "ratio", "lower", "model",
           ("cluster_day",), 0.25),
    Metric("fail_frac", "ratio", "lower", "model", REPLAY, 0.1),
    Metric("targets_in_band", "count", "higher", "model",
           ("paper_check",), 0.0),
)

E2E = {m.name: m for m in END_TO_END}

#: The host metrics, defined and never zero on every workload: the
#: final-result-line metrics of a ``--trace 0`` run.
RESULT_E2E = tuple(
    m.name for m in END_TO_END if m.kind == "host" and m.workloads == ALL
)


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str           # the end-to-end metric(s) it should move, where


#: The paper_check experiments whose wall time is reported per layer.
EXPERIMENTS = (
    "fig3a", "fig3b", "fig3c", "fig3d", "fig3e", "fig3f", "fig3g", "fig3h",
    "efd", "tss", "heavykeeper", "vbf", "fig1", "fig7",
    "table1", "table2", "fig6",
)

_SETUP = "setup_s on fleet_clean, cluster_day"
_PPS_DAY = "host_pps on cluster_day, slo_day"

PER_LAYER: Tuple[Layer, ...] = (
    Layer("verifier.calls", "count", "lower", _SETUP),
    Layer("verifier.wall_s", "s", "lower", _SETUP),
    Layer("verifier.states", "count", "lower", _SETUP),
    Layer("fuse.calls", "count", "lower", _SETUP),
    Layer("fuse.wall_s", "s", "lower", _SETUP),
    Layer("fuse.cache_hits", "count", "higher", _SETUP),
    Layer("apps.registry_s", "s", "lower", _SETUP),
    Layer("setup.import_s", "s", "lower", "setup_s on every workload"),
    Layer("setup.build_s", "s", "lower", "setup_s on the replay workloads"),
    Layer("steering.calls", "count", "lower",
          "host_pps on cluster_day, fleet_clean"),
    Layer("steering.wall_s", "s", "lower",
          "host_pps on cluster_day, fleet_clean"),
    Layer("steering.imbalance", "ratio", "lower",
          "model_mpps on the replay workloads"),
    Layer("faults.draws", "count", "lower", _PPS_DAY + "; 0 on fleet_clean"),
    Layer("faults.wall_s", "s", "lower", _PPS_DAY + "; 0 on fleet_clean"),
    Layer("faults.injected", "count", "lower",
          "fail_frac on cluster_day, slo_day"),
    Layer("queueing.offers", "count", "lower", _PPS_DAY),
    Layer("queueing.batches", "count", "lower", _PPS_DAY),
    Layer("queueing.pkts_per_batch", "pkt", "higher", _PPS_DAY),
    Layer("queueing.wall_s", "s", "lower", _PPS_DAY),
    Layer("queueing.overflow", "count", "lower",
          "model_p99_us and fail_frac on cluster_day, slo_day"),
    Layer("multicore.self_s", "s", "lower",
          "host_pps on cluster_day, fleet_clean"),
    Layer("multicore.resteered", "count", "lower",
          "host_pps on cluster_day"),
    Layer("slo.epochs", "count", "lower", "host_pps on slo_day"),
    Layer("slo.self_s", "s", "lower", "host_pps on slo_day"),
    Layer("slo.scale_events", "count", "lower",
          "host_pps and model_recovery_s on slo_day"),
    Layer("slo.repacks", "count", "lower",
          "host_pps and model_recovery_s on slo_day"),
    Layer("xdp.feeds", "count", "lower", "host_pps on the replay workloads"),
    Layer("xdp.pkts_per_feed", "pkt", "higher",
          "host_pps on the replay workloads"),
    Layer("xdp.self_s", "s", "lower", "host_pps on the replay workloads"),
    Layer("xdp.run_calls", "count", "lower", "host_run_s on paper_check"),
    Layer("xdp.run_s", "s", "lower", "host_run_s on paper_check"),
    Layer("irnf.calls", "count", "lower", "host_pps on fleet_clean"),
    Layer("irnf.wall_s", "s", "lower", "host_pps on fleet_clean"),
    Layer("irnf.host_ns_per_pkt", "ns", "lower", "host_pps on fleet_clean"),
    Layer("irnf.model_cycles_per_pkt", "cycles", "lower",
          "model_mpps on fleet_clean, cluster_day"),
    Layer("nfs.calls", "count", "lower",
          "host_pps on slo_day, host_run_s on paper_check"),
    Layer("nfs.wall_s", "s", "lower",
          "host_pps on slo_day, host_run_s on paper_check"),
    Layer("core.hash_calls_per_pkt", "count", "lower",
          "host_pps on the replay workloads"),
    Layer("runtime.charges_per_pkt", "count", "lower",
          "host_pps on slo_day, host_run_s on paper_check"),
    Layer("apps.fail_real_s", "s", "lower", "host_pps on cluster_day"),
    Layer("apps.ring_slots_moved", "count", "lower",
          "model_disruption on cluster_day"),
    Layer("accounting.wall_s", "s", "lower",
          "host_pps on the replay workloads"),
) + tuple(
    Layer(f"analysis.{e}.wall_s", "s", "lower", "host_run_s on paper_check")
    for e in EXPERIMENTS
) + (
    Layer("flowgen.wall_s", "s", "lower",
          "nothing: input generation, outside every timed region"),
    Layer("trace.coverage", "ratio", "higher",
          "share of the timed region inside named layer spans (>= 0.95)"),
    Layer("trace.overhead", "ratio", "lower",
          "traced over untraced host time of the timed region"),
)

LAYERS = {layer.name: layer for layer in PER_LAYER}


def benchmark_json() -> Dict[str, object]:
    """The ``BENCHMARK.json`` this package defines (tests compare)."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": WHY[w]} for w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": E2E[n].unit, "better": E2E[n].better,
             "bound": E2E[n].bound}
            for n in RESULT_E2E
        ],
        "per_layer": [
            {"name": layer.name, "unit": layer.unit, "better": layer.better}
            for layer in PER_LAYER
        ],
    }


def metrics_for(workload: str) -> List[Metric]:
    """The end-to-end metrics defined on ``workload``, in table order."""
    return [m for m in END_TO_END if workload in m.workloads]
