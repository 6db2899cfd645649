"""Replay traffic through the multi-queue data plane from the shell.

    python -m repro.net.replay TRACE.csv --cores 8 --policy ntuple
    python -m repro.net.replay --packets 20000 --rate 0.01 --cores 8 \\
        --expect-faults
    python -m repro.net.replay TRACE.csv --rate 0.005 --nf flow_monitor
    python -m repro.net.replay --rate 0.01 --crash-core 3 --crash-at 1000
    python -m repro.net.replay TRACE.csv --burst 8e6:2e7:0.002:0.003 \\
        --slo-p99 60 --json
    python -m repro.net.replay --rate 0.01 --crash-core 1 --crash-at 5000 \\
        --burst 1.2e7:2.2e7:0.002:0.003 --slo-p99 60 --autoscale \\
        --initial-cores 4 --cores 8

The one data-plane front-end: traffic goes into the dispatcher and
only the NF and the conditions change.  The traffic is a CSV trace
streamed straight off disk through :func:`repro.net.trace.iter_trace`
(the packet list is never materialized, so peak memory is
O(cores x batch)), or, without a trace, synthetic Zipf traffic
(``--packets/--flows/--dist``).

Conditions:

- **steering and layout** — ``--policy`` (``rss``/``rekey``/``ntuple``),
  ``--cores``, ``--batch-size`` and a NUMA layout (``--numa-nodes 2``);
- **faults** — a seed-driven :class:`~repro.faults.FaultPlan`: an
  aggregate ``--rate`` (default 0: nothing is injected) split over the
  recoverable kinds, plus one crashing (``--crash-core``) or wedging
  (``--wedge-core``) core, detected by the watchdog deadline or the
  probabilistic ``--detection-mean``;
- **queueing** — ``--burst`` re-times the traffic onto a (bursty)
  arrival process and replays it through the receive-path queueing
  model, adding p50/p95/p99 sojourn latency and queue-overflow drops
  to the report; ``--slo-p99`` checks the tail against a target;
- **control loop** — ``--autoscale`` runs the SLO controller instead
  of the fixed fleet (``--cores`` provisioned, ``--initial-cores``
  active; fault-aware re-pack, rejoin with cold-sketch warm-up,
  p99-targeting autoscaler).

The report accounts for every packet offered (forwarded, dropped or
aborted) and lists injected faults, watchdog events and throughput;
``--json`` emits it machine-readable.

Exit codes:

- 0 — the run completed and every packet is accounted for;
- 1 — the data plane crashed, accounting failed, ``--expect-faults``
  was given and nothing was injected, or ``--expect-recovery`` was
  given and the SLO never recovered (CI smoke assertions);
- 2 — bad input: command-line arguments, a missing trace file, or a
  malformed trace (:class:`~repro.net.trace.TraceFormatError`).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional, Union

from ..ebpf.cost_model import ExecMode, NumaTopology
from ..ebpf.runtime import BpfRuntime
from ..faults import FaultPlan, WedgeDetection
from ..nfs.degrade import ColdStartWarmup
from .flowgen import DISTRIBUTIONS, FlowGenerator
from .multicore import (
    DEFAULT_WATCHDOG_DEADLINE,
    MulticoreResult,
    RssDispatcher,
)
from .queueing import ArrivalProcess, QueueingConfig
from .slo import SloConfig, SloController, SloRun
from .steering import POLICIES
from .trace import TraceFormatError, iter_trace
from .xdp import DEFAULT_BATCH_SIZE


def _countmin(rt):
    from ..nfs import CountMinNF

    return CountMinNF(rt, depth=4)


def _bloom(rt):
    from ..nfs import BloomFilterNF

    return BloomFilterNF(rt)


def _maglev(rt):
    from ..nfs import MaglevNF

    return MaglevNF(rt)


def _flow_monitor(rt):
    from ..nfs import FlowMonitorNF

    # Small LRU-fallback monitor: map-full faults hit a degradation
    # path instead of aborting, which is what chaos runs measure.
    return FlowMonitorNF(rt, max_entries=1024, on_full="fallback")


#: NFs with a ``process_batch`` fast path — the replay-friendly subset.
NF_BUILDERS = {
    "countmin": _countmin,
    "bloom": _bloom,
    "maglev": _maglev,
    "flow_monitor": _flow_monitor,
}


def positive_int(value: str) -> int:
    """argparse type: a strictly positive integer, clearly rejected.

    Keeps bad values (``--cores 0``, ``--numa-nodes -3``) from being
    silently accepted or surfacing later as a traceback: argparse turns
    the ArgumentTypeError into a one-line usage error and exit code 2.
    """
    try:
        parsed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not an integer")
    if parsed <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return parsed


def positive_float(value: str) -> float:
    """argparse type: a strictly positive finite float, clearly rejected."""
    try:
        parsed = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not a number")
    if not (math.isfinite(parsed) and parsed > 0):
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, got {value}"
        )
    return parsed


def _rate(value: str) -> float:
    try:
        parsed = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not a number")
    if not 0.0 <= parsed <= 1.0:
        raise argparse.ArgumentTypeError(f"rate must be in [0, 1], got {value}")
    return parsed


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.net.replay",
        description="Replay traffic through the multi-queue data plane, "
        "optionally under injected faults, queueing and the SLO "
        "control loop, and report every packet's fate.",
    )
    arg = parser.add_argument
    arg("trace", nargs="?", default=None,
        help="CSV trace to replay (see repro.net.trace; default: "
        "synthetic traffic)")
    arg("--nf", choices=sorted(NF_BUILDERS), default="countmin")
    arg("--mode", choices=[m.value for m in ExecMode],
        default=ExecMode.ENETSTL.value)
    arg("--cores", type=positive_int, default=8)
    arg("--policy", choices=sorted(POLICIES), default="rss",
        help="steering policy (default: plain RSS)")
    arg("--batch-size", type=positive_int, default=DEFAULT_BATCH_SIZE)
    arg("--numa-nodes", type=positive_int, default=1,
        help="NUMA nodes to spread the cores over (default 1: no penalty)")
    arg("--seed", type=int, default=0,
        help="seed for faults, arrival jitter and synthetic traffic")
    arg("--packets", type=positive_int, default=20_000,
        help="synthetic trace length (ignored with a trace file)")
    arg("--flows", type=positive_int, default=1024,
        help="synthetic flow population (ignored with a trace file)")
    arg("--dist", choices=DISTRIBUTIONS, default="zipf",
        help="synthetic flow-size distribution (default zipf)")
    arg("--rate", type=_rate, default=0.0,
        help="aggregate injected fault rate, split uniformly across the "
        "recoverable kinds (default 0: no faults)")
    arg("--crash-core", type=int, default=None,
        help="core to kill mid-run (watchdog re-steers its traffic)")
    arg("--crash-at", type=int, default=None,
        help="packets the crashing core processes before dying "
        "(default 0; needs --crash-core)")
    arg("--wedge-core", type=int, default=None,
        help="core that stops consuming mid-run (deadline detection)")
    arg("--wedge-at", type=int, default=None,
        help="packets the wedging core processes before stalling "
        "(default 0; needs --wedge-core)")
    arg("--watchdog-deadline", type=positive_int,
        default=DEFAULT_WATCHDOG_DEADLINE,
        help="lost packets before a wedged core is declared dead")
    arg("--detection-mean", type=positive_int, default=None,
        help="mean wedge-detection latency in packets (probabilistic "
        "detection instead of the fixed --watchdog-deadline; needs "
        "--wedge-core)")
    arg("--repack", action="store_true",
        help="let a table-owning steering policy re-pack placement over "
        "the survivors after a watchdog event (needs --policy ntuple "
        "to have an effect)")
    arg("--burst", default=None, metavar="SPEC",
        help="attach the queueing model, re-timing arrivals onto "
        "BASE_PPS (steady Poisson) or BASE:PEAK:LEAD_S:BURST_S "
        "(flash crowd); adds p50/p95/p99 latency and overflow")
    arg("--slo-p99", type=positive_float, default=None, metavar="US",
        help="p99 sojourn-latency target in microseconds (needs --burst)")
    arg("--autoscale", action="store_true",
        help="run the SLO control loop: --cores are provisioned, "
        "--initial-cores start active, the autoscaler works the rest "
        "(needs --burst and --slo-p99)")
    arg("--initial-cores", type=positive_int, default=None,
        help="active cores at start under --autoscale "
        "(default: all of --cores)")
    arg("--expect-faults", action="store_true",
        help="fail (exit 1) unless faults were actually injected and "
        "surfaced as aborted packets — the CI smoke assertion")
    arg("--expect-recovery", action="store_true",
        help="fail (exit 1) unless the run breached the SLO and "
        "recovered to it (needs --autoscale) — the CI chaos assertion")
    arg("--json", action="store_true", help="emit the report as JSON")
    return parser


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    """Parse and check ``argv``; every bad combination exits 2.

    The fault plan, wedge detector and arrival process are built here,
    so their own validation errors become usage errors; the checked
    objects ride on the namespace as ``plan``, ``detection`` and
    ``arrivals``.
    """
    parser = _parser()
    args = parser.parse_args(argv)
    needs = [
        (args.slo_p99 is not None and args.burst is None,
         "--slo-p99 needs --burst (latency requires the queueing model)"),
        (args.autoscale and (args.burst is None or args.slo_p99 is None),
         "--autoscale needs --burst and --slo-p99"),
        (args.initial_cores is not None and not args.autoscale,
         "--initial-cores only makes sense with --autoscale"),
        (args.expect_recovery and not args.autoscale,
         "--expect-recovery needs --autoscale"),
        (args.crash_at is not None and args.crash_core is None,
         "--crash-at needs --crash-core"),
        (args.wedge_at is not None and args.wedge_core is None,
         "--wedge-at needs --wedge-core"),
        (args.detection_mean is not None and args.wedge_core is None,
         "--detection-mean needs --wedge-core"),
    ]
    for failed, message in needs:
        if failed:
            parser.error(message)
    if args.initial_cores is not None and args.initial_cores > args.cores:
        parser.error(
            f"--initial-cores {args.initial_cores} exceeds --cores "
            f"{args.cores}"
        )
    try:
        args.plan = FaultPlan.uniform(
            args.rate,
            seed=args.seed,
            crash_core=args.crash_core,
            crash_at=args.crash_at or 0,
            wedge_core=args.wedge_core,
            wedge_at=args.wedge_at or 0,
        )
        args.plan.validate_for_cores(args.cores)
        args.detection = None
        if args.detection_mean is not None:
            args.detection = WedgeDetection(
                mean_packets=args.detection_mean, seed=args.seed
            )
        args.arrivals = None
        if args.burst is not None:
            args.arrivals = ArrivalProcess.from_spec(
                args.burst, seed=args.seed
            )
    except ValueError as exc:
        parser.error(str(exc))
    return args


def build(args: argparse.Namespace) -> Union[RssDispatcher, SloController]:
    """The fixed fleet, or under ``--autoscale`` the SLO control loop
    (with cold-start warm-up), wired from checked ``args``."""
    builder = NF_BUILDERS[args.nf]
    mode = ExecMode(args.mode)
    factory = lambda core: builder(BpfRuntime(mode=mode, seed=core))
    queueing = QueueingConfig() if args.arrivals is not None else None
    if args.autoscale:
        return SloController(
            factory,
            max_cores=args.cores,
            initial_cores=args.initial_cores,
            config=SloConfig(target_p99_us=args.slo_p99),
            queueing=queueing,
            faults=args.plan,
            detection=args.detection,
            warmup=ColdStartWarmup(),
            watchdog_deadline=args.watchdog_deadline,
            batch_size=args.batch_size,
        )
    return RssDispatcher(
        factory,
        n_cores=args.cores,
        steering=args.policy,
        numa=NumaTopology(n_nodes=args.numa_nodes)
        if args.numa_nodes > 1 else None,
        faults=args.plan,
        watchdog_deadline=args.watchdog_deadline,
        queueing=queueing,
        detection=args.detection,
        repack_on_failure=args.repack,
    )


def run(args: argparse.Namespace) -> Union[MulticoreResult, SloRun]:
    """Replay the (streamed or synthetic) traffic through :func:`build`."""
    if args.trace is not None:
        source = iter_trace(args.trace)
    else:
        source = FlowGenerator(
            n_flows=args.flows, distribution=args.dist, seed=args.seed + 1
        ).iter_trace(args.packets)
    if args.arrivals is not None:
        source = args.arrivals.stamp(source)
    engine = build(args)
    if args.autoscale:
        return engine.run(source)
    return engine.run(source, batch_size=args.batch_size)


def report(result: Union[MulticoreResult, SloRun], args) -> dict:
    """The JSON report: one shape for the fleet, one for the SLO loop."""
    out = {
        "source": args.trace or f"synthetic-{args.dist}",
        "nf": args.nf,
        "mode": args.mode,
        "cores": args.cores,
        "rate": args.rate,
        "seed": args.seed,
        "burst": args.burst,
        "accounting": result.accounting(),
        "accounted": result.is_fully_accounted,
        "injected": dict(result.injected),
        "total_injected": sum(result.injected.values()),
        "failures": [f.describe() for f in result.failures],
        "actions": dict(result.actions),
        "latency": result.latency_summary(),
        "overflow": result.overflow_drops,
    }
    if isinstance(result, SloRun):
        out.update(
            initial_cores=args.initial_cores,
            autoscale=True,
            slo={
                "target_p99_us": args.slo_p99,
                "worst_p99_us": result.worst_p99_us,
                "violating_epochs": result.violating_epochs(),
                "recovery_s": result.recovery_s(),
            },
            timeline=[e.describe() for e in result.timeline],
        )
        return out
    out.update(
        policy=args.policy,
        numa_nodes=args.numa_nodes,
        errors=dict(result.errors),
        aggregate_mpps=round(result.aggregate_mpps, 3),
        imbalance=round(result.imbalance, 3),
        total_cycles=result.total_cycles,
        numa_cycles=result.total_numa_cycles,
        per_core_packets=[r.n_packets for r in result.per_core],
    )
    if args.slo_p99 is not None:
        out["slo"] = {
            "target_p99_us": args.slo_p99,
            "p99_us": round(result.p99_latency_us, 3),
            "met": bool(
                result.latencies_ns
                and result.p99_latency_us <= args.slo_p99
            ),
        }
    return out


def _ledger(counts: dict) -> str:
    return "  ".join(f"{k}={v}" for k, v in sorted(counts.items()))


def _latency_line(lat: dict) -> str:
    return (
        f"  latency us: p50={lat['p50_us']}  p95={lat['p95_us']}"
        f"  p99={lat['p99_us']}  max={lat['max_us']}"
    )


def render(rep: dict) -> str:
    """Human-readable form of a fixed-fleet :func:`report`."""
    acc = rep["accounting"]
    lines = [
        f"replayed {acc['packets_in']} packets on {rep['cores']} core(s) "
        f"[source={rep['source']}, nf={rep['nf']}, mode={rep['mode']}, "
        f"policy={rep['policy']}, rate={rep['rate']}, seed={rep['seed']}"
        + (f", numa={rep['numa_nodes']} nodes" if rep["numa_nodes"] > 1
           else "")
        + "]",
        f"  forwarded: {acc['forwarded']}  dropped: {acc['dropped']}"
        f"  aborted: {acc['aborted']}  lost: {acc['lost']}"
        f"  duplicated: {acc['duplicated']}",
        f"  accounting: {'OK' if rep['accounted'] else 'BROKEN'}"
        f" (in + dup == fwd + drop + abort)",
        f"  aggregate: {rep['aggregate_mpps']:.2f} Mpps"
        f"  imbalance: {rep['imbalance']:.3f}",
        f"  total cycles: {rep['total_cycles']}"
        + (f"  numa cycles: {rep['numa_cycles']}" if rep["numa_cycles"]
           else ""),
        "  per-core packets: "
        + " ".join(str(n) for n in rep["per_core_packets"]),
        f"  actions: {_ledger(rep['actions'])}",
    ]
    if rep["injected"]:
        lines.append(
            f"  injected ({rep['total_injected']}): {_ledger(rep['injected'])}"
        )
    if rep["errors"]:
        lines.append(f"  errors: {_ledger(rep['errors'])}")
    for failure in rep["failures"]:
        lines.append(
            f"  core {failure['core']} {failure['kind']}: "
            f"processed {failure['processed']}, lost {failure['lost']}, "
            f"re-steered {failure['resteered']}"
        )
    if rep["burst"] is not None:
        lines.append(_latency_line(rep["latency"]))
        lines.append(f"  overflow: {rep['overflow']}")
    if "slo" in rep:
        slo = rep["slo"]
        lines.append(
            f"  slo p99<={slo['target_p99_us']}us: "
            f"{'MET' if slo['met'] else 'VIOLATED'} (p99={slo['p99_us']}us)"
        )
    return "\n".join(lines)


def render_slo(rep: dict) -> str:
    """Human-readable form of an ``--autoscale`` :func:`report`."""
    acc = rep["accounting"]
    slo = rep["slo"]
    scale_ups = sum(
        1 for epoch in rep["timeline"] for e in epoch["events"]
        if e.startswith("scale-up")
    )
    lines = [
        f"slo replay: {acc['packets_in']} packets, {rep['cores']} core(s) "
        f"provisioned ({rep['initial_cores'] or rep['cores']} active) "
        f"[source={rep['source']}, nf={rep['nf']}, rate={rep['rate']}, "
        f"seed={rep['seed']}, burst={rep['burst']}]",
        _latency_line(rep["latency"]),
        f"  slo: target p99 {slo['target_p99_us']}us, worst epoch "
        f"{slo['worst_p99_us']}us, {len(slo['violating_epochs'])}"
        f"/{len(rep['timeline'])} epochs violating",
        f"  scale-ups: {scale_ups}  lost: {acc['lost']}"
        f"  overflow: {acc['overflow']}"
        f"  accounting: {'OK' if rep['accounted'] else 'BROKEN'}",
    ]
    if rep["injected"]:
        lines.append(
            f"  injected ({rep['total_injected']}): {_ledger(rep['injected'])}"
        )
    if slo["recovery_s"] is not None:
        lines.append(f"  time-to-SLO: {round(slo['recovery_s'] * 1e3, 3)} ms")
    for failure in rep["failures"]:
        lines.append(
            f"  core {failure['core']} {failure['kind']}: "
            f"processed {failure['processed']}, lost {failure['lost']}"
        )
    for epoch in rep["timeline"]:
        for event in epoch["events"]:
            lines.append(f"  epoch {epoch['epoch']}: {event}")
    return "\n".join(lines)


def _unmet_expectation(rep: dict, args) -> Optional[str]:
    """Why the run fails its exit contract, or None if it passes."""
    if not rep["accounted"]:
        return "packet accounting does not balance"
    if args.expect_faults:
        if rep["total_injected"] == 0:
            return "expected injected faults, saw none"
        if rep["accounting"]["aborted"] == 0:
            return "expected aborted packets from injected faults, saw none"
    if args.expect_recovery:
        if not rep["slo"]["violating_epochs"]:
            return "expected an SLO breach to recover from, saw none"
        if rep["slo"]["recovery_s"] is None:
            return "SLO breached and never recovered"
    return None


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except (TraceFormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # the thing chaos runs exist to catch
        print(
            f"error: data plane crashed: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 1
    rep = report(result, args)
    if args.json:
        print(json.dumps(rep, indent=2))
    else:
        print(render_slo(rep) if args.autoscale else render(rep))
    unmet = _unmet_expectation(rep, args)
    if unmet is not None:
        print(f"error: {unmet}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
