"""XDP pipeline simulator: attach an NF, replay a trace, measure.

Mirrors the paper's methodology (§6.1): a single receive queue bound to
one core, the NF attached at the XDP hook in native mode.  For
throughput runs the NF drops packets after processing and we report
packets-per-second derived from cycles-per-packet; for latency runs the
NF forwards packets back and end-to-end latency is wire base plus
processing time.

Three entry points share one replay core, ``XdpPipeline._replay``,
which screens, charges and processes one batch at a time:

- :meth:`XdpPipeline.run` — per-packet mode: the NF's ``process``
  sees each packet at its own arrival time (required for time-driven
  NFs), and latency can be measured;
- :meth:`XdpPipeline.run_batch` — batched mode: NFs that implement
  ``process_batch`` handle a whole batch in one call.  Cycle
  accounting is identical to ``run`` (tested); only the Python-side
  wall-clock cost drops;
- :class:`ReplaySession` — the same batched mode, incrementally:
  ``feed`` batches as they arrive, ``finish`` for the result.  This is
  how the streaming multi-queue dispatcher drives one pipeline per
  core off a single shared packet stream.

``run`` and ``run_batch`` consume **arbitrary iterables**: a
generator source (:meth:`FlowGenerator.iter_trace`,
:func:`repro.net.trace.iter_trace`) replays with O(batch) peak memory
— the full trace is never materialized.

**Fault containment** mirrors the eBPF runtime's safety guarantee (an
XDP program cannot crash the kernel): an NF exception on one packet
becomes an ``XDP_ABORTED`` verdict plus an entry in the pipeline's
per-CPU error counter — the simulated ``xdp_exception`` tracepoint —
and the replay continues.  Attach a
:class:`~repro.faults.FaultInjector` to inject packet-level faults
(drop / corruption / truncation / duplication), helper error returns,
and map-update failures on a deterministic, seed-driven schedule; every
entry point sees the identical fault sequence.  Pass
``on_error="raise"`` to restore fail-fast propagation for debugging.

Multi-queue (RSS) replay lives in :mod:`repro.net.multicore`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Iterable, Iterator, List, Optional, Protocol, Sequence

from ..ebpf.cost_model import (
    CPU_HZ,
    Category,
    CycleSnapshot,
    processing_time_ns,
    throughput_pps,
)
from ..ebpf.runtime import BpfRuntime
from ..faults import FaultInjector, PKT_CORRUPT, PKT_DROP, PKT_DUP, PKT_TRUNCATE
from .packet import Packet, XdpAction
from .stats import percentile

#: One-way wire + NIC + driver latency on the back-to-back testbed, ns.
BASE_WIRE_LATENCY_NS = 11_000

#: Default batch granularity for :meth:`XdpPipeline.run_batch` —
#: mirrors the NAPI poll budget (the kernel hands XDP up to 64 frames
#: per poll; we default larger since the simulator has no IRQ cadence).
DEFAULT_BATCH_SIZE = 256

_VALID_ACTIONS = frozenset(XdpAction.ALL)

#: Injected faults that make the packet unparseable (-> XDP_ABORTED).
_PARSE_FAULTS = frozenset((PKT_CORRUPT, PKT_TRUNCATE))

#: Error-counter keys for injected parse / helper faults.
PARSE_ERROR = "parse_error"
HELPER_ERROR = "helper_error"

#: XDP verdicts that forward the packet onward.
FORWARD_ACTIONS = (XdpAction.PASS, XdpAction.TX, XdpAction.REDIRECT)


class NetworkFunction(Protocol):
    """What the pipeline needs from an attached NF.

    ``process_batch`` is optional: NFs whose per-packet cycle charges do
    not depend on the simulated clock may implement it to process a
    whole batch in one call, charging the *identical* cycles the
    equivalent ``process`` calls would have charged.  It returns an
    action -> count mapping for the batch.
    """

    rt: BpfRuntime

    def process(self, packet: Packet) -> str:
        """Handle one packet; returns an :class:`XdpAction` verdict."""
        ...


class LatencyPercentiles:
    """Latency percentiles over the host's ``latencies_ns`` list: the
    one definition :class:`PipelineResult` and
    :class:`~repro.net.multicore.MulticoreResult` share."""

    def latency_percentile_us(self, p: float) -> float:
        """Latency percentile in µs (``p`` in [0, 100]; 0.0 when no
        latencies were recorded)."""
        if not self.latencies_ns:
            return 0.0
        return percentile(self.latencies_ns, p) / 1000.0

    @property
    def p50_latency_us(self) -> float:
        return self.latency_percentile_us(50.0)

    @property
    def p95_latency_us(self) -> float:
        return self.latency_percentile_us(95.0)

    @property
    def p99_latency_us(self) -> float:
        return self.latency_percentile_us(99.0)


@dataclass
class PipelineResult(LatencyPercentiles):
    """Aggregate measurements from one trace replay.

    ``errors`` is the core's per-CPU error counter — one bucket per
    exception type (or injected-fault tag) that aborted a packet,
    mirroring the kernel's ``xdp_exception`` tracepoint statistics.
    Every replayed packet lands in exactly one verdict, so
    ``n_packets == forwarded + dropped + aborted`` always holds.
    """

    n_packets: int
    total_cycles: int
    actions: Dict[str, int]
    by_category: Dict[Category, int]
    latencies_ns: List[int] = field(default_factory=list)
    errors: Dict[str, int] = field(default_factory=dict)

    @property
    def forwarded(self) -> int:
        """Packets forwarded onward (PASS + TX + REDIRECT)."""
        return sum(self.actions.get(a, 0) for a in FORWARD_ACTIONS)

    @property
    def dropped(self) -> int:
        return self.actions.get(XdpAction.DROP, 0)

    @property
    def aborted(self) -> int:
        """Packets that hit a program error (the aborted tracepoint)."""
        return self.actions.get(XdpAction.ABORTED, 0)

    @property
    def n_errors(self) -> int:
        return sum(self.errors.values())

    @property
    def cycles_per_packet(self) -> float:
        if self.n_packets == 0:
            return 0.0
        return self.total_cycles / self.n_packets

    @property
    def pps(self) -> float:
        """Single-core saturation throughput."""
        if self.n_packets == 0:
            return 0.0
        return throughput_pps(self.cycles_per_packet)

    @property
    def mpps(self) -> float:
        return self.pps / 1e6

    @property
    def proc_time_ns(self) -> float:
        """Mean per-packet processing time (Fig. 5's metric)."""
        if self.n_packets == 0:
            return 0.0
        return processing_time_ns(self.cycles_per_packet)

    @property
    def avg_latency_us(self) -> float:
        """Mean end-to-end latency (Fig. 4's metric)."""
        if not self.latencies_ns:
            return 0.0
        return sum(self.latencies_ns) / len(self.latencies_ns) / 1000.0

    def behavior_share(self, *categories: Category) -> float:
        """Share of cycles attributed to the given behaviors (Fig. 1)."""
        if self.total_cycles == 0:
            return 0.0
        return sum(self.by_category.get(c, 0) for c in categories) / self.total_cycles

    def latency_at_load_us(self, offered_pps: float) -> float:
        """End-to-end latency at an offered rate (extension to Fig. 4).

        The paper measures latency only at 1 kpps, where queueing is
        negligible; this extends the model with M/D/1 waiting time
        (Poisson arrivals, deterministic per-packet service):
        ``W = rho / (2 * (1 - rho)) * service``.  Returns ``inf`` at or
        beyond saturation.
        """
        if offered_pps <= 0:
            raise ValueError("offered_pps must be positive")
        service_s = self.cycles_per_packet / CPU_HZ
        rho = offered_pps * service_s
        if rho >= 1.0:
            return float("inf")
        wait_s = rho / (2.0 * (1.0 - rho)) * service_s
        return (2 * BASE_WIRE_LATENCY_NS / 1e9 + service_s + wait_s) * 1e6


class XdpPipeline:
    """Replay traces through one NF on one simulated core.

    ``faults`` attaches a :class:`~repro.faults.FaultInjector`: the
    pipeline screens each batch with it (drop / parse faults /
    duplication / helper errors, one draw call per batch) and also
    installs it on the NF's runtime so map updates fail on the same
    schedule.  ``on_error`` selects what an NF exception does:
    ``"abort"`` (default) converts it to an ``XDP_ABORTED`` verdict
    plus an error-counter entry — the replay survives, as a real XDP
    program would — while ``"raise"`` propagates it (fail-fast
    debugging).
    """

    def __init__(
        self,
        nf: NetworkFunction,
        charge_framework: bool = True,
        faults: Optional[FaultInjector] = None,
        on_error: str = "abort",
    ) -> None:
        if on_error not in ("abort", "raise"):
            raise ValueError("on_error must be 'abort' or 'raise'")
        self.nf = nf
        self.rt = nf.rt
        self.charge_framework = charge_framework
        self.faults = faults
        self.on_error = on_error
        if faults is not None:
            # Same injector drives map-update failures inside the NF.
            self.rt.faults = faults

    def run(
        self,
        trace: Iterable[Packet],
        measure_latency: bool = False,
        advance_clock: bool = True,
    ) -> PipelineResult:
        """Per-packet replay of every packet in ``trace``.

        The NF's ``process`` sees each packet at its own arrival time,
        even if the NF also implements ``process_batch`` — the mode
        time-driven NFs and latency experiments need.  With
        ``measure_latency`` the result carries one end-to-end latency
        per verdict.  ``trace`` is consumed one batch at a time, so a
        generator source replays in O(batch) memory.
        """
        session = ReplaySession(self, advance_clock)
        session._per_packet = True
        if measure_latency:
            session._latencies = []
        for batch in iter_batches(trace, DEFAULT_BATCH_SIZE):
            self._replay(batch, session)
        return session._result()

    def run_batch(
        self,
        trace: Iterable[Packet],
        batch_size: int = DEFAULT_BATCH_SIZE,
        advance_clock: bool = True,
    ) -> PipelineResult:
        """Batched replay: same cycle accounting as :meth:`run`, faster.

        If the NF implements ``process_batch``, each batch is handed
        over in one call and the simulated clock advances at batch
        granularity (such NFs must not read the clock per packet — the
        sketch/membership/LB NFs qualify); otherwise the NF's
        ``process`` runs per packet with per-packet clock advance,
        exactly as :meth:`run`.

        ``trace`` may be any iterable.  Generator sources are consumed
        one batch at a time, so peak memory is O(``batch_size``), never
        O(trace) — the streaming replay path.

        Latency measurement needs per-packet cycle deltas; use
        :meth:`run` for latency experiments.
        """
        session = ReplaySession(self, advance_clock)
        for batch in iter_batches(trace, batch_size):
            self._replay(batch, session)
        return session._result()

    def _replay(
        self, batch: Sequence[Packet], session: "ReplaySession"
    ) -> None:
        """Screen, charge and process one batch into ``session``: the
        one replay core behind :meth:`run`, :meth:`run_batch` and
        :meth:`ReplaySession.feed`.

        With a fault injector attached, the batch is pre-screened by
        one :meth:`~repro.faults.FaultInjector.screen` call, which
        draws every packet's packet-fault and helper-fault decision in
        arrival order, so every entry point sees the identical
        schedule; only the packets that drew a fault are visited:
        dropped packets are verdicts without charges, parse/helper
        faults abort after dispatch + parse, duplicates replay twice.
        Framework costs (XDP dispatch + parse) are then charged in bulk
        — identical in total and category to one charge per packet.

        In batched mode an NF with ``process_batch`` gets the whole
        batch in one call, the clock advanced once to its latest
        arrival; an exception aborts the *whole* batch (its charges and
        partial state mutations stand, as a crashed program's would).
        Otherwise ``process`` runs per packet at each packet's arrival
        time and an exception aborts only that packet.  A measured
        latency is two wire crossings plus the packet's dispatch, parse
        and NF cycles.
        """
        rt = self.rt
        faults = self.faults
        actions = session._actions
        errors = session._errors
        latencies = session._latencies
        advance_clock = session.advance_clock
        costs = rt.costs
        fw = 0
        if self.charge_framework:
            fw = costs.xdp_dispatch + costs.packet_parse
        arrived = batch
        charged = len(batch)
        hits = faults.screen(len(batch)) if faults is not None else ()
        if hits:
            clean: List[Packet] = []
            n_dropped = 0
            n_parse = 0
            n_helper = 0
            start = 0
            for i, pf, helper in hits:
                clean.extend(batch[start:i])
                start = i + 1
                if pf == PKT_DROP:
                    # Lost before the XDP hook (NIC/ring drop): no
                    # cycles are spent, but the packet is accounted.
                    n_dropped += 1
                elif pf in _PARSE_FAULTS:
                    n_parse += 1
                elif helper:
                    n_helper += 1
                elif pf == PKT_DUP:
                    clean.append(batch[i])
                    clean.append(batch[i])
            clean.extend(batch[start:])
            # Unparseable frame or failed helper: the program bails out
            # -> XDP_ABORTED after dispatch + parse.
            bailed = n_parse + n_helper
            if n_dropped:
                actions[XdpAction.DROP] += n_dropped
            if bailed:
                actions[XdpAction.ABORTED] += bailed
                if n_parse:
                    errors[PARSE_ERROR] += n_parse
                if n_helper:
                    errors[HELPER_ERROR] += n_helper
                if latencies is not None:
                    bail_ns = 2 * BASE_WIRE_LATENCY_NS + int(fw * 1e9 / CPU_HZ)
                    latencies.extend([bail_ns] * bailed)
            session._n += n_dropped
            batch = clean
            charged = bailed + len(batch)
        session._n += charged
        if charged and self.charge_framework:
            rt.charge(costs.xdp_dispatch * charged, Category.FRAMEWORK)
            rt.charge(costs.packet_parse * charged, Category.PARSE)
        contain = self.on_error == "abort"
        process_batch = None
        if batch and not session._per_packet:
            process_batch = getattr(self.nf, "process_batch", None)
        if process_batch is not None:
            if advance_clock:
                ts = max(pkt.timestamp_ns for pkt in batch)
                if ts > rt.now_ns:
                    rt.advance_time_ns(ts - rt.now_ns)
            try:
                verdicts = process_batch(batch)
            except Exception as exc:
                if not contain:
                    raise
                actions[XdpAction.ABORTED] += len(batch)
                errors[type(exc).__name__] += 1
                return
            for action, count in verdicts.items():
                if action not in _VALID_ACTIONS:
                    raise ValueError(
                        f"NF returned invalid XDP action {action!r}"
                    )
                actions[action] += count
            return
        cycles = rt.cycles
        nf_process = self.nf.process
        for pkt in batch:
            ts = pkt.timestamp_ns
            if advance_clock and ts > rt.now_ns:
                rt.advance_time_ns(ts - rt.now_ns)
            before = cycles.total
            try:
                action = nf_process(pkt)
            except Exception as exc:
                if not contain:
                    raise
                # Fault containment: one bad packet aborts, the replay
                # continues (the eBPF safety guarantee).
                action = XdpAction.ABORTED
                errors[type(exc).__name__] += 1
            if action not in _VALID_ACTIONS:
                raise ValueError(f"NF returned invalid XDP action {action!r}")
            actions[action] += 1
            if latencies is not None:
                # Sender -> NF -> back to sender: two wire crossings.
                proc_ns = int((fw + cycles.total - before) * 1e9 / CPU_HZ)
                latencies.append(2 * BASE_WIRE_LATENCY_NS + proc_ns)
        if advance_clock and session._per_packet and faults is not None:
            # Packets a fault removed still arrived: the clock reaches them.
            ts = max(pkt.timestamp_ns for pkt in arrived)
            if ts > rt.now_ns:
                rt.advance_time_ns(ts - rt.now_ns)


def iter_batches(
    trace: Iterable[Packet], batch_size: int
) -> Iterator[Sequence[Packet]]:
    """Yield ``trace`` in batches of up to ``batch_size`` packets.

    Sequences are sliced in place (no copy of the whole trace); any
    other iterable is drained incrementally, holding at most one batch
    at a time — the primitive behind every streaming replay path.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    if isinstance(trace, (list, tuple)):
        for i in range(0, len(trace), batch_size):
            yield trace[i : i + batch_size]
        return
    it = iter(trace)
    while True:
        batch = list(islice(it, batch_size))
        if not batch:
            return
        yield batch


class ReplaySession:
    """Incremental replay: ``feed`` packet batches, ``finish`` -> result.

    The streaming multi-queue dispatcher shards one shared packet
    stream across cores and hands each core its packets as they
    arrive; a session accumulates that core's replay without ever
    seeing the whole trace.  Cycle accounting is identical to
    :meth:`XdpPipeline.run_batch` by construction: both call the same
    batch-replay core, and the final result is the cycle delta since
    the session opened.
    """

    def __init__(
        self, pipeline: XdpPipeline, advance_clock: bool = True
    ) -> None:
        self.pipeline = pipeline
        self.advance_clock = advance_clock
        self._actions: Counter = Counter()
        self._errors: Counter = Counter()
        self._n = 0
        # Per-packet mode and latency list: set by XdpPipeline.run only.
        self._per_packet = False
        self._latencies: Optional[List[int]] = None
        self._start = pipeline.rt.cycles.checkpoint()
        self._finished = False

    @property
    def n_packets(self) -> int:
        return self._n

    def feed(self, batch: Sequence[Packet]) -> None:
        """Replay one batch of packets through the core's pipeline."""
        if self._finished:
            raise RuntimeError("session already finished")
        if batch:
            self.pipeline._replay(batch, self)

    def finish(self) -> PipelineResult:
        """Close the session and aggregate everything fed so far."""
        self._finished = True
        return self._result()

    def _result(self) -> PipelineResult:
        delta = self.pipeline.rt.cycles.delta_since(self._start)
        return PipelineResult(
            n_packets=self._n,
            total_cycles=delta.total,
            actions=dict(self._actions),
            by_category=delta.by_category,
            latencies_ns=self._latencies or [],
            errors=dict(self._errors),
        )


def warm_then_measure(
    pipeline: XdpPipeline,
    warmup: Iterable[Packet],
    trace: Iterable[Packet],
    measure_latency: bool = False,
) -> PipelineResult:
    """Replay a warmup trace (tables filled, caches primed), then measure."""
    pipeline.run(warmup)
    return pipeline.run(trace, measure_latency=measure_latency)
