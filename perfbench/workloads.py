"""The benchmark's four workloads.

Each workload turns a seed into inputs (the stand-in for the paper's
pktgen: a :class:`~repro.net.flowgen.FlowGenerator` trace stamped by an
:class:`~repro.net.queueing.ArrivalProcess`), builds its fleet, and runs
one **pass** — the timed region.  A pass returns a :class:`Pass` holding
the packets it offered, the modeled metrics (a pure function of the
seed), a digest of every modeled output (the *witness*), and the
correctness problems it found.

Arrivals are open-loop on the modeled side: timestamps come from the
arrival process, so RX rings can fill and overflow.  On the host side a
pass is a batch replay of a trace generated before timing starts.  Every
fleet runs in this one process and thread; its cores are simulated.

Simulator modules are imported inside the methods, so a fresh process
can time its imports (``Workload.modules``) apart from the fleet build.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, List, Sequence, Tuple

N_CORES = 4

#: ``bench_apps.CHAOS`` fault rates (seed included): the packet-level
#: and helper/map faults every chaos workload runs under.
CHAOS_RATES = dict(
    seed=77,
    drop_rate=0.02,
    corrupt_rate=0.02,
    truncate_rate=0.01,
    helper_rate=0.02,
    map_full_rate=0.02,
)


@dataclasses.dataclass
class Pass:
    """What one timed pass produced."""

    #: Packets offered to the system (the host_pps numerator).
    packets: int
    #: Modeled end-to-end metrics (deterministic for a seed).
    model: Dict[str, float]
    #: Modeled per-layer numbers (imbalance, resteered, epochs, ...).
    layers: Dict[str, float]
    #: sha256 over every modeled output: verdicts, cycles, latencies...
    witness: str
    #: Correctness checks that failed (empty: the pass is correct).
    problems: List[str]
    #: Extra report lines (paper targets, sample counts, ...).
    details: Dict[str, object] = dataclasses.field(default_factory=dict)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()


def _nothing() -> None:
    pass


class Workload:
    name = ""
    #: Modules a fresh process imports before it can build the fleet.
    modules: Tuple[str, ...] = ()
    #: Does the fleet run fused IR chains (fused-vs-interp parity)?
    has_ir = False

    def inputs(self, seed: int):
        raise NotImplementedError

    def build(self, backend: str = "fused"):
        raise NotImplementedError

    def run(self, fleet, inputs, checkpoint=_nothing) -> Pass:
        """One timed pass: replay ``inputs`` through ``fleet``.

        ``checkpoint()`` is called at natural boundaries inside the pass
        (between apps, phases, experiments) so the host clock can
        recalibrate there (see ``hostclock.Stopwatch``).
        """
        raise NotImplementedError


# -- shared summaries for RssDispatcher phases ----------------------------------


def _phase_model(results: Sequence) -> Tuple[Dict, Dict]:
    """(modeled metrics, modeled layer numbers) over dispatcher phases.

    Each phase is gated by its busiest core; phases combine as
    sum(packets) * CPU_HZ / sum(busiest-core cycles) — the time the
    phases take back to back on the modeled fleet.
    """
    from repro.ebpf.cost_model import CPU_HZ
    from repro.faults import PKT_DROP

    packets = sum(r.n_packets for r in results)
    busiest = sum(r.busiest_core_cycles for r in results)
    mean = sum(r.total_cycles / r.n_cores for r in results)
    offered = sum(r.packets_in for r in results)
    failed = sum(
        r.aborted + r.lost + r.overflow_drops + r.injected.get(PKT_DROP, 0)
        for r in results
    )
    model = {
        "model_mpps": packets * CPU_HZ / busiest / 1e6,
        "fail_frac": failed / offered,
    }
    layers = {
        "steering.imbalance": busiest / mean,
        "multicore.resteered": sum(
            f.resteered for r in results for f in r.failures
        ),
    }
    return model, layers


def _phase_witness(result, dispatcher) -> tuple:
    return (
        result.accounting(),
        sorted(result.errors.items()),
        result.per_core_cycles,
        sorted(result.injected.items()),
        [f.describe() for f in result.failures],
        result.latencies_ns,
        [nf.returns for nf in dispatcher.nfs],
    )


def _accounting_problems(label: str, result) -> List[str]:
    if result.is_fully_accounted:
        return []
    return [f"{label}: packets_in + duplicated != forwarded + dropped + "
            f"aborted ({result.accounting()})"]


def _latency(latencies_ns: Sequence[int]) -> Dict[str, float]:
    from repro.net.stats import percentile

    return {
        "model_p50_us": percentile(latencies_ns, 50.0) / 1000.0,
        "model_p99_us": percentile(latencies_ns, 99.0) / 1000.0,
    }


# -- fleet_clean ------------------------------------------------------------------


class FleetClean(Workload):
    """All four fused Fig. 7 chains, each on a 4-core ntuple-steered
    RssDispatcher over one Zipf trace.  No queueing, no faults."""

    name = "fleet_clean"
    modules = ("repro.apps.ir", "repro.net.multicore", "repro.ebpf.fuse")
    has_ir = True
    packets = 10_000
    flows = 8192
    registry_seed = 2

    def inputs(self, seed: int):
        from repro.net.flowgen import FlowGenerator

        gen = FlowGenerator(
            n_flows=self.flows, distribution="zipf", zipf_s=1.1, seed=seed
        )
        return gen.trace(self.packets)

    def build(self, backend: str = "fused"):
        from repro.apps.ir import IR_APP_NAMES, app_nf_factory
        from repro.net.multicore import RssDispatcher

        return [
            RssDispatcher(
                app_nf_factory(
                    app, backend=backend, registry_seed=self.registry_seed
                ),
                n_cores=N_CORES,
                steering="ntuple",
            )
            for app in IR_APP_NAMES
        ]

    def run(self, fleet, trace, checkpoint=_nothing) -> Pass:
        results = []
        for disp in fleet:
            if results:
                checkpoint()
            results.append(disp.run(trace))
        return self.summarize(fleet, results)

    def summarize(self, fleet, results) -> Pass:
        from repro.apps.ir import IR_APP_NAMES

        problems: List[str] = []
        for app, result in zip(IR_APP_NAMES, results):
            problems += _accounting_problems(app, result)
            if result.injected or result.failures or result.aborted:
                problems.append(f"{app}: a clean fleet saw faults")
        model, layers = _phase_model(results)
        return Pass(
            packets=sum(r.packets_in for r in results),
            model=model,
            layers=layers,
            witness=_digest(
                [_phase_witness(r, d) for r, d in zip(results, fleet)]
            ),
            problems=problems,
        )


# -- cluster_day ------------------------------------------------------------------


class ClusterDay(Workload):
    """Fused Katran on 4 ntuple-steered cores through bounded RX rings,
    under chaos.  Phase 1 is steady Zipf traffic with flow churn; then
    the control plane fails one backend on every core (CH-ring repack
    + connection eviction); phase 2 opens with a flash crowd during
    which one core crashes."""

    name = "cluster_day"
    modules = (
        "repro.apps.ir", "repro.net.multicore", "repro.net.queueing",
        "repro.faults", "repro.ebpf.fuse",
    )
    has_ir = True
    packets = 20_000
    flows = 8192
    base_pps = 500_000.0
    peak_pps = 3_500_000.0
    registry_seed = 4
    failed_real = 3
    crash_core = 2
    #: Packets the crashing core serves in phase 2 before it dies.
    crash_at = 1200

    def inputs(self, seed: int):
        from repro.net.flowgen import FlowGenerator
        from repro.net.queueing import ArrivalProcess

        n = self.packets
        gen = FlowGenerator(
            n_flows=self.flows, distribution="zipf", zipf_s=1.1, seed=seed
        )
        arrivals = ArrivalProcess.flash_crowd(
            base_pps=self.base_pps,
            peak_pps=self.peak_pps,
            lead_s=(n / 2) / self.base_pps,
            burst_s=(n / 4) / self.peak_pps,
            seed=seed,
        )
        trace = list(gen.iter_trace_bursty(n, arrivals))
        return trace[: n // 2], trace[n // 2:]

    def build(self, backend: str = "fused"):
        from repro.apps.ir import app_nf_factory
        from repro.faults import FaultPlan
        from repro.net.multicore import RssDispatcher
        from repro.net.queueing import QueueingConfig

        return RssDispatcher(
            app_nf_factory(
                "katran", backend=backend, registry_seed=self.registry_seed
            ),
            n_cores=N_CORES,
            steering="ntuple",
            queueing=QueueingConfig(rx_ring_size=256, batch_timeout_ns=20_000),
            faults=FaultPlan(**CHAOS_RATES),
        )

    def run(self, disp, phases, checkpoint=_nothing) -> Pass:
        steady, crowd = phases
        first = disp.run(steady)
        checkpoint()
        reports = [
            nf.registry.app_state.katran.fail_real(self.failed_real)
            for nf in disp.nfs
        ]
        # Same fault streams (the injectors live on), plus one crash.
        disp.faults = dataclasses.replace(
            disp.faults, crash_core=self.crash_core, crash_at=self.crash_at
        )
        second = disp.run(crowd)
        return self.summarize(disp, (first, second), reports)

    def summarize(self, disp, results, reports) -> Pass:
        first, second = results
        problems = (
            _accounting_problems("steady phase", first)
            + _accounting_problems("flash-crowd phase", second)
        )
        if first.failures:
            problems.append("steady phase: unexpected core failure")
        crashes = [f for f in second.failures if f.kind == "crash"]
        if len(second.failures) != 1 or len(crashes) != 1:
            problems.append(
                f"flash-crowd phase: expected one crash, got "
                f"{[f.describe() for f in second.failures]}"
            )
        elif crashes[0].lost:
            problems.append("a crash is detected at once and loses nothing")
        model, layers = _phase_model(results)
        latencies = first.latencies_ns + second.latencies_ns
        model.update(_latency(latencies))
        moved = sum(r["moved"] for r in reports)
        model["model_disruption"] = moved / sum(
            r["ring_size"] for r in reports
        )
        layers["apps.ring_slots_moved"] = moved
        return Pass(
            packets=first.packets_in + second.packets_in,
            model=model,
            layers=layers,
            witness=_digest(
                _phase_witness(first, disp),
                _phase_witness(second, disp),
                reports,
            ),
            problems=problems,
            details={"latency_samples": len(latencies)},
        )


# -- slo_day ------------------------------------------------------------------------


class SloDay(Workload):
    """SloController over the eNetSTL count-min NF: 2 of 4 cores active
    at start, autoscaler on against a 60 us p99 target, a flash crowd
    under chaos, one core crashing and rejoining cold, and a wedge the
    probabilistic detector catches on another."""

    name = "slo_day"
    modules = (
        "repro.net.slo", "repro.nfs", "repro.nfs.degrade", "repro.faults",
        "repro.net.queueing",
    )
    packets = 30_000
    flows = 4096
    base_pps = 8e6
    peak_pps = 3e7
    target_p99_us = 60.0

    def inputs(self, seed: int):
        from repro.net.flowgen import FlowGenerator
        from repro.net.queueing import ArrivalProcess

        n = self.packets
        gen = FlowGenerator(
            n_flows=self.flows, distribution="zipf", zipf_s=1.1, seed=seed
        )
        arrivals = ArrivalProcess.flash_crowd(
            base_pps=self.base_pps,
            peak_pps=self.peak_pps,
            lead_s=(n / 2) / self.base_pps,
            burst_s=(n / 8) / self.peak_pps,
            seed=seed,
        )
        return list(gen.iter_trace_bursty(n, arrivals))

    def build(self, backend: str = "fused"):
        from repro.ebpf.cost_model import ExecMode
        from repro.ebpf.runtime import BpfRuntime
        from repro.faults import FaultPlan, WedgeDetection
        from repro.net.queueing import QueueingConfig
        from repro.net.slo import SloConfig, SloController
        from repro.nfs import CountMinNF
        from repro.nfs.degrade import ColdStartWarmup

        #: Every NF the controller provisions, per core (rejoins included).
        built: Dict[int, List] = {}

        def factory(core: int):
            nf = CountMinNF(
                BpfRuntime(mode=ExecMode.ENETSTL, seed=core), depth=4
            )
            built.setdefault(core, []).append(nf)
            return nf

        n = self.packets
        ctl = SloController(
            factory,
            max_cores=N_CORES,
            initial_cores=2,
            queueing=QueueingConfig(),
            config=SloConfig(
                target_p99_us=self.target_p99_us,
                epoch_packets=512,
                autoscale=True,
                rejoin_epochs=4,
            ),
            faults=FaultPlan(
                **CHAOS_RATES,
                crash_core=1, crash_at=n // 10,
                wedge_core=2, wedge_at=n // 10,
            ),
            detection=WedgeDetection(mean_packets=512, min_packets=64, seed=2),
            warmup=ColdStartWarmup(),
        )
        return ctl, built

    def run(self, fleet, trace, checkpoint=_nothing) -> Pass:
        ctl, built = fleet
        return self.summarize(ctl, built, ctl.run(trace))

    def summarize(self, ctl, built, run) -> Pass:
        from repro.ebpf.cost_model import CPU_HZ
        from repro.faults import PKT_DROP

        problems = []
        if not run.is_fully_accounted:
            problems.append(
                "packets_in + duplicated != forwarded + dropped + aborted "
                f"({run.accounting()})"
            )
        kinds = sorted(f.kind for f in run.failures)
        if kinds != ["crash", "wedge"]:
            problems.append(f"expected one crash and one wedge, got {kinds}")
        else:
            crashed = next(f.core for f in run.failures if f.kind == "crash")
            events = [x for e in run.timeline for x in e.events]
            after = events[events.index(f"crash core={crashed}"):]
            if not {f"scale-up core={crashed}", f"rejoin core={crashed}"} \
                    & set(after):
                problems.append(f"crashed core {crashed} never rejoined")
        recovery = run.recovery_s()
        if recovery is None:
            problems.append("p99 never breached and recovered")
        cycles = {
            core: sum(nf.rt.cycles.total for nf in nfs)
            for core, nfs in built.items()
        }
        busy = [c for c in cycles.values() if c]
        served = run.forwarded + run.nf_dropped + run.aborted
        injected_drops = sum(
            nf.rt.faults.injected.get(PKT_DROP, 0)
            for nfs in built.values() for nf in nfs
        )
        failed = run.aborted + run.lost + run.overflow + injected_drops
        model = {
            "model_mpps": served * CPU_HZ / max(busy) / 1e6,
            "fail_frac": failed / run.packets_in,
            "model_recovery_s": recovery or 0.0,
        }
        model.update(_latency(run.latencies_ns))
        scaler = ctl.autoscaler
        layers = {
            "steering.imbalance": max(busy) / (sum(busy) / len(busy)),
            "multicore.resteered": sum(f.resteered for f in run.failures),
            "slo.epochs": len(run.timeline),
            "slo.scale_events": scaler.scale_ups + scaler.scale_downs,
        }
        return Pass(
            packets=run.packets_in,
            model=model,
            layers=layers,
            witness=_digest(
                [e.describe() for e in run.timeline],
                run.accounting(),
                [f.describe() for f in run.failures],
                run.latencies_ns,
                sorted(cycles.items()),
            ),
            problems=problems,
            details={"latency_samples": len(run.latencies_ns)},
        )


# -- paper_check ----------------------------------------------------------------------


class _PipelineTap:
    """Sums packets and cycles over every ``XdpPipeline.run`` call.

    One addition per replayed trace (not per packet), so it costs
    nothing measurable; it is how paper_check's host_pps and model_mpps
    see the packets the experiments replay.
    """

    def __init__(self) -> None:
        from repro.net.xdp import XdpPipeline

        self.packets = 0
        self.cycles = 0
        self._cls = XdpPipeline
        self._orig = XdpPipeline.__dict__["run"]
        orig = self._orig

        def run(pipeline, *args, **kwargs):
            result = orig(pipeline, *args, **kwargs)
            self.packets += result.n_packets
            self.cycles += result.total_cycles
            return result

        XdpPipeline.run = run

    def close(self) -> None:
        self._cls.run = self._orig


class PaperCheck(Workload):
    """``repro.analysis.paper_targets.check_all``: serial, no result
    cache, at its default packet count.  The experiments carry their
    own fixed seeds, so the workload seed selects nothing here."""

    name = "paper_check"
    modules = ("repro.analysis.paper_targets", "repro.analysis.parallel")
    n_packets = 800
    n_targets = 30

    def inputs(self, seed: int):
        return None

    def build(self, backend: str = "fused"):
        return None

    def run(self, fleet, inputs, checkpoint=_nothing) -> Pass:
        import repro.analysis.parallel as parallel
        from repro.analysis.paper_targets import check_all

        run_subtask = parallel._run_subtask

        def subtask(spec):
            checkpoint()
            return run_subtask(spec)

        tap = _PipelineTap()
        parallel._run_subtask = subtask
        try:
            results = check_all(n_packets=self.n_packets, jobs=1, cache=None)
        finally:
            parallel._run_subtask = run_subtask
            tap.close()
        return self.summarize(results, tap)

    def summarize(self, results, tap) -> Pass:
        from repro.ebpf.cost_model import CPU_HZ

        in_band = sum(1 for r in results if r.ok)
        problems = [
            f"paper target out of band: {r.describe()}"
            for r in results if not r.ok
        ]
        if len(results) != self.n_targets:
            problems.append(
                f"expected {self.n_targets} paper targets, got {len(results)}"
            )
        return Pass(
            packets=tap.packets,
            model={
                "model_mpps": tap.packets * CPU_HZ / tap.cycles / 1e6,
                "targets_in_band": in_band,
            },
            layers={},
            witness=_digest(
                [(r.target, r.measured) for r in results],
                tap.packets, tap.cycles,
            ),
            problems=problems,
            details={"targets": [r.describe() for r in results]},
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (FleetClean(), ClusterDay(), SloDay(), PaperCheck())
}


def get(name: str) -> Workload:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        ) from None


def parity_problems(workload: Workload, inputs, reference: Pass) -> List[str]:
    """Fused-vs-interpreted witness parity for the IR workloads.

    Replays the same inputs on a fleet built with ``backend="interp"``
    (outside every timed region) and requires every modeled output —
    verdicts, cycles, latencies, fault schedules, kfunc state reports —
    to match the fused pass bit for bit.
    """
    if not workload.has_ir:
        return []
    interp = workload.run(workload.build(backend="interp"), inputs)
    problems = [f"interp: {p}" for p in interp.problems]
    if interp.witness != reference.witness:
        problems.append("fused fleet diverged from the interpreted fleet")
    return problems
