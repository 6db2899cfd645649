"""The one discrete-event dispatch loop behind every simulated receive path.

Like the kernel's single NAPI poll loop, :class:`DispatchLoop` is the
only code that steers packets onto cores, serves their batches, and
loses or re-steers packets around a failed core.
:class:`~repro.net.multicore.RssDispatcher` and
:class:`~repro.net.slo.SloController` only configure its three settings:

- **Ring model.**  Without queueing, an untimed :class:`BatchBuffer` per
  core: a batch is served the instant it fills; a wedged core loses
  whole closed batches.  With a :class:`~repro.net.queueing.QueueingConfig`,
  a timed :class:`~repro.net.queueing.CoreQueue`: the earliest
  ``pickup_ns()`` across cores is served first, service time is the
  measured cycles plus one per-packet adder (NUMA + cold-start
  warm-up), and a wedged core loses frames one by one.  The rings are
  scanned (``flush_due``) only when the clock reaches ``due``, a lower
  bound on the earliest pending pickup, and at epoch boundaries and
  end of stream — not on every arrival.
- **Failure model.**  Crash/wedge points from the ``FaultPlan``,
  per-core wedge deadlines, and an optional repack of the steering
  policy on failure.  A crash splits the batch in service; the tail,
  then the dead ring's content, re-arrive on the survivors at detection
  time (FIFO per flow), via the flow-affine failover hash.
- **Epoch hook.**  Called every ``epoch_packets`` arrivals and at the
  end of the stream; may activate, deactivate or retire cores.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import chain, islice
from typing import Callable, Dict, Iterable, List, Optional

from ..core.algorithms.hashing import fast_hash32
from ..ebpf.cost_model import CPU_HZ, NumaTopology
from ..ebpf.percpu import sum_counts
from ..faults import PKT_DUP, FaultPlan, WedgeDetection
from ..nfs.degrade import ColdStartWarmup
from .packet import Packet, XdpAction
from .queueing import CoreQueue, QueueingConfig, latency_summary_us
from .xdp import FORWARD_ACTIONS, PipelineResult, ReplaySession

#: Hash seed of the failover re-steer (distinct from every RSS seed so
#: a dead core's flows spread evenly over the survivors).
FAILOVER_SEED = 0xFA110FF

#: Packets that may pile up on a wedged core before the watchdog
#: declares it dead (the "deadline exceeded" detector).
DEFAULT_WATCHDOG_DEADLINE = 1024


class AllCoresDeadError(RuntimeError):
    """Every core failed — there is nowhere left to re-steer traffic."""


@dataclass
class CoreFailure:
    """One watchdog event: a core died and its traffic was re-steered.

    ``processed`` is how many packets the core completed before the
    fault; ``lost`` counts packets that sat in its queue and were never
    processed (wedge only — a crash is detected immediately, so nothing
    queues behind it); ``resteered`` counts packets redirected to
    surviving cores after detection.  ``repacked`` is True when the
    steering policy rebuilt its placement table over the survivors
    (fault-aware re-pack) instead of relying on the failover hash — in
    that case ``resteered`` stays 0, because no packet ever reaches
    the dead queue to be redirected.
    """

    core: int
    kind: str                     # "crash" | "wedge"
    processed: int = 0
    lost: int = 0
    resteered: int = 0
    repacked: bool = False

    def describe(self) -> Dict[str, object]:
        return asdict(self)


class PacketLedger:
    """Where every offered packet ended: the accounting shared by
    :class:`~repro.net.multicore.MulticoreResult` and
    :class:`~repro.net.slo.SloRun`, which provide ``actions``,
    ``injected``, ``packets_in``, ``lost``, ``overflow_drops`` and
    ``latencies_ns``."""

    @property
    def forwarded(self) -> int:
        return sum(self.actions.get(a, 0) for a in FORWARD_ACTIONS)

    @property
    def nf_dropped(self) -> int:
        return self.actions.get(XdpAction.DROP, 0)

    @property
    def aborted(self) -> int:
        return self.actions.get(XdpAction.ABORTED, 0)

    @property
    def duplicated(self) -> int:
        """Extra packet copies injected by ``pkt_dup`` faults."""
        return self.injected.get(PKT_DUP, 0)

    @property
    def dropped(self) -> int:
        """NF drop verdicts, watchdog losses, and RX-ring overflow."""
        return self.nf_dropped + self.lost + self.overflow_drops

    @property
    def is_fully_accounted(self) -> bool:
        """``packets_in + duplicated == forwarded + dropped + aborted``:
        every offered packet (and injected copy) ended in exactly one
        bucket."""
        return (
            self.packets_in + self.duplicated
            == self.forwarded + self.dropped + self.aborted
        )

    def accounting(self) -> Dict[str, int]:
        """The accounting ledger as a plain dict (reports / benches)."""
        return {
            "packets_in": self.packets_in,
            "duplicated": self.duplicated,
            "forwarded": self.forwarded,
            "dropped": self.dropped,
            "aborted": self.aborted,
            "lost": self.lost,
            "overflow": self.overflow_drops,
        }

    def latency_summary(self) -> Dict[str, float]:
        """The p50/p95/p99 block (see :func:`latency_summary_us`)."""
        return latency_summary_us(self.latencies_ns)


class BatchBuffer:
    """The untimed ring: at most one batch, never overflows.  Only the
    end-of-stream drain picks up a partial batch (at time 0)."""

    __slots__ = ("pending",)
    overflowed = 0

    def __init__(self) -> None:
        self.pending: List[Packet] = []

    def pickup_ns(self) -> int:
        return 0

    def take(self):
        batch, self.pending = self.pending, []
        return batch, []

    drain = take


class DispatchLoop:
    """Replay one packet stream over ``n_cores`` per-core sessions.

    ``new_session(core)`` provisions a core (at start and on
    :meth:`retire`); ``steering`` is any steering policy
    (``queue_of``, ``repack``, ``sample_size``/``prepare``); ``active``
    names the cores in service at the start (default: all).  A loop
    runs once; afterwards it holds the run's ledger: ``packets_in``,
    per-core ``lost``, ``failures``, ``latencies``, and
    ``actions``/``injected``/:meth:`ring_overflow` over every session
    and ring used, retired ones included.
    """

    def __init__(
        self,
        new_session: Callable[[int], ReplaySession],
        steering,
        n_cores: int,
        batch_size: int,
        queueing: Optional[QueueingConfig] = None,
        faults: Optional[FaultPlan] = None,
        watchdog_deadline: int = DEFAULT_WATCHDOG_DEADLINE,
        detection: Optional[WedgeDetection] = None,
        repack_on_failure: bool = False,
        numa: Optional[NumaTopology] = None,
        warmup: Optional[ColdStartWarmup] = None,
        epoch_packets: int = 0,
        epoch_hook: Optional[Callable[["DispatchLoop", bool], None]] = None,
        active: Optional[Iterable[int]] = None,
    ) -> None:
        cores = range(n_cores)
        self.new_session = new_session
        self.steering = steering
        self.n_cores = n_cores
        self.batch_size = batch_size
        self.queueing = queueing
        self.repack_on_failure = repack_on_failure
        self.warmup = warmup
        self.epoch_packets = epoch_packets
        self.epoch_hook = epoch_hook
        self.sessions = [new_session(core) for core in cores]
        self.rings = [self._new_ring() for _ in cores]
        live = set(cores if active is None else active)
        self.active = [core in live for core in cores]
        self.crash_at: Dict[int, int] = {}
        self.wedge_at: Dict[int, int] = {}
        if faults is not None and faults.crash_core is not None:
            self.crash_at[faults.crash_core] = faults.crash_at
        if faults is not None and faults.wedge_core is not None:
            self.wedge_at[faults.wedge_core] = faults.wedge_at
        self.deadlines = [
            detection.deadline_for(core) if detection is not None
            else watchdog_deadline
            for core in cores
        ]
        #: Per-packet NUMA service adder (cycles).
        self.penalty = [
            numa.packet_penalty_cycles(core, n_cores) if numa is not None
            else 0
            for core in cores
        ]
        self.wedged = [False] * n_cores
        self.fed = [0] * n_cores
        self.lost = [0] * n_cores
        #: Packets served since the core joined cold (warm-up clock);
        #: a core is cold until its first activate after birth/retire.
        self.warm = [0] * n_cores
        self.cold = [True] * n_cores
        self.failures: List[CoreFailure] = []
        #: Control-plane events ("crash core=2", ...) for the epoch hook.
        self.events: List[str] = []
        self.latencies: List[int] = []
        self.packets_in = self.now = 0
        self._retired: List[tuple] = []     # (result, injector)
        self._retired_overflow = [0] * n_cores

    def _new_ring(self):
        if self.queueing is None:
            return BatchBuffer()
        return CoreQueue(self.queueing, self.batch_size)

    # -- control plane ------------------------------------------------------

    def active_cores(self) -> List[int]:
        return [core for core in range(self.n_cores) if self.active[core]]

    def _repack(self) -> bool:
        survivors = self.active_cores()
        return bool(survivors) and bool(self.steering.repack(survivors))

    def declare_dead(self, core: int, kind: str) -> None:
        self.active[core] = False
        self.wedged[core] = False
        record = CoreFailure(
            core=core, kind=kind,
            processed=self.fed[core], lost=self.lost[core],
        )
        self.failures.append(record)
        self.events.append(f"{kind} core={core}")
        if self.repack_on_failure and self._repack():
            record.repacked = True

    def activate(self, core: int) -> None:
        self.active[core] = True
        if self.cold[core]:
            self.warm[core] = 0
            self.cold[core] = False
        self._repack()

    def deactivate(self, core: int) -> None:
        """Park ``core``; its ring's frames re-arrive elsewhere now."""
        self.active[core] = False
        self._repack()
        stranded, _ = self.rings[core].drain()
        for pkt in stranded:
            self._enqueue(pkt, self.now)

    def retire(self, core: int) -> None:
        """Replace a dead core's session (per-CPU state is lost) and
        ring with fresh ones; the core rejoins cold."""
        session = self.sessions[core]
        self._retired.append((session.finish(), session.pipeline.faults))
        self.sessions[core] = self.new_session(core)
        self._retired_overflow[core] += self.rings[core].overflowed
        self.rings[core] = self._new_ring()
        self.cold[core] = True

    def ring_overflow(self) -> List[int]:
        """Per-core RX-ring overflow drops, retired rings included."""
        return [
            ring.overflowed + retired
            for ring, retired in zip(self.rings, self._retired_overflow)
        ]

    # -- data plane ---------------------------------------------------------

    def run(self, trace: Iterable[Packet]) -> List[PipelineResult]:
        """Replay ``trace`` (any iterable, one-shot included); returns
        each core's current-session result.  A policy that wants a
        traffic sample is fitted on the stream head, which then replays
        first."""
        stream = iter(trace)
        policy = self.steering
        if policy.sample_size > 0:
            sample = list(islice(stream, policy.sample_size))
            policy.prepare(sample)
            stream = chain(sample, stream)
        n, batch_size = self.n_cores, self.batch_size
        queue_of = policy.queue_of
        sessions, rings, active, wedged = (
            self.sessions, self.rings, self.active, self.wedged
        )
        fed, lost, warm, penalty = self.fed, self.lost, self.warm, self.penalty
        crash_at, wedge_at, deadlines = (
            self.crash_at, self.wedge_at, self.deadlines
        )
        failures, latencies = self.failures, self.latencies
        declare_dead, warmup = self.declare_dead, self.warmup
        timed = self.queueing is not None
        wire_ns = self.queueing.wire_ns if timed else 0
        now = 0
        # Lower bound on the earliest pickup over non-empty timed rings:
        # the clock reaching it is the only time a flush can serve.  Only
        # an offer lowers a pickup, and every offer (epoch-hook re-steers
        # included) goes through ``enqueue_timed``, which lowers ``due``.
        due = 0

        def failover(queue: int, pkt: Packet) -> int:
            for record in failures:
                if record.core == queue:
                    record.resteered += 1
            # A wedged core nobody has detected yet still counts: the
            # control plane cannot route around a fault it has not seen.
            survivors = [c for c in range(n) if active[c]]
            if not survivors:
                raise AllCoresDeadError(
                    "every core has failed; traffic has nowhere to go"
                )
            return survivors[
                fast_hash32(pkt.key_int, FAILOVER_SEED) % len(survivors)
            ]

        def lose(core: int, count: int) -> None:
            lost[core] += count
            if active[core] and lost[core] >= deadlines[core]:
                declare_dead(core, "wedge")

        def enqueue_buffered(pkt: Packet, at_ns: int) -> None:
            queue = queue_of(pkt)
            if not active[queue]:
                queue = failover(queue, pkt)
            ring = rings[queue]
            pending = ring.pending
            pending.append(pkt)
            if len(pending) == batch_size:
                serve(queue, *ring.take(), at_ns)

        def enqueue_timed(pkt: Packet, at_ns: int) -> None:
            nonlocal due
            queue = queue_of(pkt)
            if not active[queue]:
                queue = failover(queue, pkt)
            if wedged[queue]:
                lose(queue, 1)
                return
            ring = rings[queue]
            if ring.offer(pkt, at_ns):
                pickup = ring.pickup_ns()
                if pickup < due:
                    due = pickup

        def feed_buffered(core, batch, arrivals, pickup_ns) -> None:
            sessions[core].feed(batch)
            fed[core] += len(batch)

        def feed_timed(core, batch, arrivals, pickup_ns) -> None:
            session = sessions[core]
            cycles = session.pipeline.rt.cycles
            before = cycles.total
            session.feed(batch)
            m = len(batch)
            fed[core] += m
            extra = penalty[core]
            if warmup is not None:
                # Midpoint of the batch approximates the decaying
                # per-packet cold penalty without per-packet exp calls.
                extra += warmup.penalty_at(warm[core] + m // 2)
            warm[core] += m
            service_ns = (
                (cycles.total - before + m * extra) * 1_000_000_000 // CPU_HZ
            )
            sojourns = rings[core].complete(arrivals, pickup_ns, service_ns)
            latencies.extend([soj + wire_ns for soj in sojourns])

        enqueue = self._enqueue = enqueue_timed if timed else enqueue_buffered
        feed = feed_timed if timed else feed_buffered

        def serve(core, batch, arrivals, pickup_ns) -> None:
            """Service one closed batch, split at a crash/wedge point."""
            if wedged[core]:
                lose(core, len(batch))    # buffered ring: piles up unserved
                return
            done, end = fed[core], fed[core] + len(batch)
            point = crash_at.get(core)
            crash = point is not None and end > point
            if not crash:
                point = wedge_at.get(core)
                if point is None or end <= point:
                    feed(core, batch, arrivals, pickup_ns)
                    return
            split = point - done
            if split:
                feed(core, batch[:split], arrivals[:split], pickup_ns)
            tail = batch[split:] + rings[core].drain()[0]
            if crash:
                del crash_at[core]
                declare_dead(core, "crash")
                # Worker death is seen at once and loses nothing: the
                # split-off tail, then the ring behind it (FIFO per
                # flow), re-arrive on the survivors at detection time.
                detect_ns = max(now, pickup_ns)
                for pkt in tail:
                    enqueue(pkt, detect_ns)
            else:
                del wedge_at[core]
                wedged[core] = True
                lose(core, len(tail))

        def flush_due(horizon_ns: Optional[int]) -> None:
            """Serve every batch picked up by ``horizon_ns`` (None: all),
            earliest pickup first, ties to the lowest core; then set
            ``due`` to the earliest pickup left unserved."""
            nonlocal due
            while True:
                best = None
                later = math.inf
                for core in range(n):
                    ring = rings[core]
                    if not ring.pending:
                        continue
                    pickup = ring.pickup_ns()
                    if horizon_ns is not None and pickup > horizon_ns:
                        if pickup < later:
                            later = pickup
                        continue
                    if best is None or (pickup, core) < best:
                        best = (pickup, core)
                if best is None:
                    due = later
                    return
                pickup, core = best
                serve(core, *rings[core].take(), pickup)

        hook, epoch_packets = self.epoch_hook, self.epoch_packets
        in_epoch = packets_in = 0
        for pkt in stream:
            packets_in += 1
            if timed:
                ts = pkt.timestamp_ns
                if ts > now:
                    now = ts
                if now >= due:
                    flush_due(now)
            enqueue(pkt, now)
            if hook is not None:
                in_epoch += 1
                if in_epoch >= epoch_packets:
                    in_epoch = 0
                    flush_due(now)
                    self.now = now
                    hook(self, False)
        self.packets_in, self.now = packets_in, now
        flush_due(None)
        # A wedge that never hit its deadline is still dead at end of
        # stream: teardown notices and accounts for it.
        for core in range(n):
            if wedged[core] and active[core]:
                declare_dead(core, "wedge")
        if hook is not None:
            hook(self, True)
        # Unhook the closures so the loop and its latency list are freed
        # by reference counting, not left for the cycle collector.
        del self._enqueue

        spent = [(s.finish(), s.pipeline.faults) for s in sessions]
        spent_all = spent + self._retired
        self.actions = sum_counts([r.actions for r, _ in spent_all])
        self.injected = sum_counts([
            dict(injector.injected)
            for _, injector in spent_all if injector is not None
        ])
        return [result for result, _ in spent]
