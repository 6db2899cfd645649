"""Golden witness matrix for the dispatch loop.

Every scenario below replays a fixed trace through
:class:`RssDispatcher` or :class:`SloController` and hashes everything
the run can observe: per-core cycles and verdicts, watchdog records,
per-packet sojourn times, ring overflow, the accounting ledger and the
injected-fault counts.  The expected digests were recorded before the
receive path was restructured; any change to what the loop *does* —
steering, batch boundaries, crash/wedge handling, pickup order,
latency arithmetic — moves a digest.
"""

import hashlib
import json

import pytest

from repro.ebpf.cost_model import ExecMode
from repro.ebpf.runtime import BpfRuntime
from repro.faults import FaultPlan, WedgeDetection
from repro.net.flowgen import FlowGenerator
from repro.net.dispatch import DispatchLoop
from repro.net.multicore import RssDispatcher
from repro.net.queueing import ArrivalProcess, CoreQueue, QueueingConfig
from repro.net.slo import SloConfig, SloController
from repro.net.steering import make_policy
from repro.net.xdp import DEFAULT_BATCH_SIZE, ReplaySession, XdpPipeline
from repro.nfs import CountMinNF
from repro.nfs.degrade import ColdStartWarmup

N_PACKETS = 2400
RATES = dict(seed=3, drop_rate=0.01, dup_rate=0.01, helper_rate=0.01)
FAULT_POINTS = {
    "none": {},
    "crash": dict(crash_core=1, crash_at=150),
    "wedge": dict(wedge_core=2, wedge_at=200),
    "crash_wedge": dict(
        crash_core=0, crash_at=150, wedge_core=3, wedge_at=200
    ),
}


def countmin_factory(core):
    return CountMinNF(BpfRuntime(mode=ExecMode.ENETSTL, seed=core), depth=4)


_TRACE = []


def trace():
    if not _TRACE:
        fg = FlowGenerator(n_flows=256, seed=11, distribution="zipf")
        arrivals = ArrivalProcess(2e7, seed=11)
        _TRACE.extend(fg.iter_trace_bursty(N_PACKETS, arrivals))
    return _TRACE


def digest(*parts):
    blob = json.dumps(parts, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def dispatcher_digest(result):
    return digest(
        [r.total_cycles for r in result.per_core],
        [sorted(r.actions.items()) for r in result.per_core],
        [f.describe() for f in result.failures],
        result.latencies_ns,
        result.overflow,
        result.accounting(),
        sorted(result.injected.items()),
    )


def dispatcher(queueing, faults, detection, repack, rates=RATES):
    return RssDispatcher(
        countmin_factory,
        n_cores=4,
        steering="ntuple",
        faults=FaultPlan(**rates, **faults),
        watchdog_deadline=96,
        detection=(
            WedgeDetection(mean_packets=160, min_packets=32, seed=4)
            if detection else None
        ),
        repack_on_failure=repack,
        queueing=QueueingConfig(rx_ring_size=64) if queueing else None,
    )


RSS_GRID = [
    (queueing, faults, detection, repack)
    for queueing in (False, True)
    for faults in FAULT_POINTS
    for detection in (False, True)
    for repack in (False, True)
]

RSS_EXPECTED = {
    (False, 'none', False, False): '9dac68b30530abb7',
    (False, 'none', False, True): '9dac68b30530abb7',
    (False, 'none', True, False): '9dac68b30530abb7',
    (False, 'none', True, True): '9dac68b30530abb7',
    (False, 'crash', False, False): '8736f022375b2dc9',
    (False, 'crash', False, True): 'f0104c124d49b10c',
    (False, 'crash', True, False): '8736f022375b2dc9',
    (False, 'crash', True, True): 'f0104c124d49b10c',
    (False, 'wedge', False, False): 'bf9ea3bb93d46b95',
    (False, 'wedge', False, True): 'a43c04233ea147ac',
    (False, 'wedge', True, False): 'cddd31edeffa25f3',
    (False, 'wedge', True, True): 'f485ff500c36a259',
    (False, 'crash_wedge', False, False): '1eaa5531945499ff',
    (False, 'crash_wedge', False, True): 'f2ab07e29dff0fff',
    (False, 'crash_wedge', True, False): '1eaa5531945499ff',
    (False, 'crash_wedge', True, True): 'f2ab07e29dff0fff',
    (True, 'none', False, False): '1d7388f642e82918',
    (True, 'none', False, True): '1d7388f642e82918',
    (True, 'none', True, False): '1d7388f642e82918',
    (True, 'none', True, True): '1d7388f642e82918',
    (True, 'crash', False, False): 'ffc76d0716fdbfaa',
    (True, 'crash', False, True): '96e14b460fa3ea8e',
    (True, 'crash', True, False): 'ffc76d0716fdbfaa',
    (True, 'crash', True, True): '96e14b460fa3ea8e',
    (True, 'wedge', False, False): 'cea9be31599e3f22',
    (True, 'wedge', False, True): '56ca9a1ebf5d0261',
    (True, 'wedge', True, False): '105fe8a6dfbd7a8c',
    (True, 'wedge', True, True): '86498f28da8265e3',
    (True, 'crash_wedge', False, False): '82f804624e4c23a2',
    (True, 'crash_wedge', False, True): 'ad997c7c208cdfa8',
    (True, 'crash_wedge', True, False): '899fb01b3b32c654',
    (True, 'crash_wedge', True, True): '68b4de420c17a28e',
}


@pytest.mark.parametrize(
    "queueing,faults,detection,repack",
    RSS_GRID,
    ids=[
        f"{'queued' if q else 'plain'}-{f}-"
        f"{'detect' if d else 'fixed'}-{'repack' if r else 'hash'}"
        for q, f, d, r in RSS_GRID
    ],
)
def test_dispatcher_witness(queueing, faults, detection, repack):
    result = dispatcher(
        queueing, FAULT_POINTS[faults], detection, repack
    ).run(trace())
    assert result.is_fully_accounted
    key = (queueing, faults, detection, repack)
    assert dispatcher_digest(result) == RSS_EXPECTED[key]


DRAIN_EXPECTED = {False: 'f80d43541c40d19f', True: '86953f196ac7afc9'}


@pytest.mark.parametrize("queueing", [False, True], ids=["plain", "queued"])
def test_dispatcher_witness_crash_in_end_of_stream_drain(queueing):
    # Core 1 dies on its very last packet: the crash point sits in the
    # partial batch that only the end-of-stream drain closes.  No rate
    # faults, so the healthy run's packet count is what core 1 is fed.
    healthy = dispatcher(queueing, {}, False, False, rates={}).run(trace())
    last = healthy.per_core[1].n_packets
    assert last % DEFAULT_BATCH_SIZE, "the last batch must be partial"
    result = dispatcher(
        queueing, dict(crash_core=1, crash_at=last - 1), False, False,
        rates={},
    ).run(trace())
    assert [f.kind for f in result.failures] == ["crash"]
    assert result.is_fully_accounted
    assert dispatcher_digest(result) == DRAIN_EXPECTED[queueing]


def controller(autoscale, built):
    def factory(core):
        nf = countmin_factory(core)
        built.setdefault(core, []).append(nf)
        return nf

    return SloController(
        factory,
        max_cores=4,
        batch_size=32,
        initial_cores=2 if autoscale else 4,
        queueing=QueueingConfig(rx_ring_size=128),
        config=SloConfig(
            target_p99_us=40.0,
            epoch_packets=256,
            autoscale=autoscale,
            cooldown_epochs=1,
            rejoin_epochs=2,
        ),
        faults=FaultPlan(
            **RATES, crash_core=1, crash_at=200, wedge_core=2, wedge_at=100
        ),
        detection=WedgeDetection(mean_packets=160, min_packets=32, seed=4),
        warmup=ColdStartWarmup(),
    )


SLO_EXPECTED = {True: '8471b4fce8dfb05d', False: '813c1e7e57c5fbf0'}


@pytest.mark.parametrize(
    "autoscale", [True, False], ids=["autoscale", "fixed"]
)
def test_controller_witness(autoscale):
    built = {}
    ctl = controller(autoscale, built)
    run = ctl.run(trace())
    assert run.is_fully_accounted
    witness = digest(
        [e.describe() for e in run.timeline],
        run.accounting(),
        [f.describe() for f in run.failures],
        run.latencies_ns,
        sorted(
            (core, [nf.rt.cycles.total for nf in nfs])
            for core, nfs in built.items()
        ),
        sorted(
            (core, [sorted(nf.rt.faults.injected.items()) for nf in nfs])
            for core, nfs in built.items()
        ),
        [ctl.autoscaler.scale_ups, ctl.autoscaler.scale_downs],
    )
    assert witness == SLO_EXPECTED[autoscale]


# -- pickup-order edge cases -------------------------------------------------
#
# The loop serves a ring only once the clock reaches its pickup time.
# These cases pin the corners of that rule: a zero coalescing timeout,
# rings too small to ever fill a batch, a server still busy when its
# next batch is ready, a crash tail re-arriving on an idle ring, a
# scale-down that re-steers a non-empty ring, and an epoch hook whose
# re-steer pulls the earliest pickup forward.

_TRACES = {}


def trace_at(pps):
    if pps not in _TRACES:
        fg = FlowGenerator(n_flows=256, seed=11, distribution="zipf")
        arrivals = ArrivalProcess(pps, seed=11)
        _TRACES[pps] = list(fg.iter_trace_bursty(N_PACKETS, arrivals))
    return _TRACES[pps]


def queued(queueing, faults, batch_size=DEFAULT_BATCH_SIZE, pps=2e7):
    return RssDispatcher(
        countmin_factory,
        n_cores=4,
        steering="rss",
        faults=FaultPlan(**RATES, **faults),
        queueing=queueing,
    ).run(trace_at(pps), batch_size=batch_size)


@pytest.fixture
def pickups(monkeypatch):
    """Record, per pickup query, whether the busy server (not the
    batch's readiness) set the pickup time."""
    seen = []
    original = CoreQueue.pickup_ns

    def spy(ring):
        arrivals, n = ring.arrivals, ring.batch_size
        ready = (
            arrivals[n - 1] if len(arrivals) >= n
            else arrivals[0] + ring.cfg.batch_timeout_ns
        )
        seen.append(ring.server_free_ns > ready)
        return original(ring)

    monkeypatch.setattr(CoreQueue, "pickup_ns", spy)
    return seen


@pytest.fixture
def offers(monkeypatch):
    """Record (ring was empty, offered late) per admitted-or-not frame;
    a late offer (after the frame's own arrival) is a re-steered one."""
    seen = []
    original = CoreQueue.offer

    def spy(ring, pkt, now_ns):
        seen.append((not ring.pending, now_ns > pkt.timestamp_ns))
        return original(ring, pkt, now_ns)

    monkeypatch.setattr(CoreQueue, "offer", spy)
    return seen


EDGE_EXPECTED = {
    "zero_timeout": '10136f8cf6ea3318',
    "ring_below_batch": 'cb6c9f7e67edada0',
    "server_busy": 'be83b5dd9330e022',
    "crash_tail_idle_ring": '210198a3ae0427b0',
}


def test_edge_zero_timeout():
    result = queued(
        QueueingConfig(rx_ring_size=64, batch_timeout_ns=0),
        dict(crash_core=1, crash_at=150),
        batch_size=32,
    )
    assert result.is_fully_accounted
    assert dispatcher_digest(result) == EDGE_EXPECTED["zero_timeout"]


def test_edge_ring_smaller_than_batch():
    result = queued(
        QueueingConfig(rx_ring_size=16), dict(wedge_core=2, wedge_at=200),
        batch_size=32,
    )
    assert result.is_fully_accounted
    assert sum(result.overflow) > 0
    assert dispatcher_digest(result) == EDGE_EXPECTED["ring_below_batch"]


def test_edge_server_busy_pickup(pickups):
    result = queued(
        QueueingConfig(rx_ring_size=512, softirq_delay_ns=20_000), {},
        batch_size=4, pps=5e7,
    )
    assert result.is_fully_accounted
    assert sum(pickups) > len(pickups) // 4, (
        "pickups must often wait for the busy server"
    )
    assert dispatcher_digest(result) == EDGE_EXPECTED["server_busy"]


def test_edge_crash_tail_on_idle_ring(offers):
    result = queued(
        QueueingConfig(), dict(crash_core=1, crash_at=150), pps=2e5,
    )
    assert result.is_fully_accounted
    assert result.failures[0].resteered > 0
    assert any(empty for empty, late in offers if late), (
        "the crash tail must re-arrive on an idle ring"
    )
    assert dispatcher_digest(result) == EDGE_EXPECTED["crash_tail_idle_ring"]


SCALE_DOWN_EXPECTED = '4b59fb741e5c46d4'


def test_edge_scale_down_drains_ring(monkeypatch):
    stranded = []
    original = DispatchLoop.deactivate

    def spy(loop, core):
        stranded.append(len(loop.rings[core]))
        original(loop, core)

    monkeypatch.setattr(DispatchLoop, "deactivate", spy)
    built = {}
    ctl = SloController(
        lambda core: built.setdefault(core, countmin_factory(core)),
        max_cores=4,
        batch_size=32,
        queueing=QueueingConfig(rx_ring_size=128),
        config=SloConfig(
            target_p99_us=500.0, epoch_packets=200, cooldown_epochs=0,
        ),
        faults=FaultPlan(**RATES),
    )
    run = ctl.run(trace())
    assert run.is_fully_accounted
    assert any(stranded), "a scale-down must re-steer a non-empty ring"
    witness = digest(
        [e.describe() for e in run.timeline],
        run.accounting(),
        run.latencies_ns,
        sorted((core, nf.rt.cycles.total) for core, nf in built.items()),
    )
    assert witness == SCALE_DOWN_EXPECTED


HOOK_RESTEER_EXPECTED = 'e63b76f8a2a8ebc1'


def test_edge_hook_resteer_pulls_pickup_forward():
    """The epoch hook parks the busy core holding the most frames (and
    brings it back next epoch); its frames re-arrive on rings whose
    servers are free, so the earliest pickup moves earlier."""
    plan = FaultPlan(**RATES)
    pulled = []

    def earliest(loop):
        return min(
            (ring.pickup_ns() for ring in loop.rings if ring.pending),
            default=None,
        )

    def hook(loop, final):
        parked = [c for c in range(loop.n_cores) if not loop.active[c]]
        if parked:
            loop.activate(parked[0])
            return
        busy = [
            c for c in loop.active_cores()
            if loop.rings[c].pending
            and loop.rings[c].server_free_ns > loop.now
        ]
        if busy:
            before = earliest(loop)
            loop.deactivate(
                max(busy, key=lambda c: (len(loop.rings[c].pending), c))
            )
            after = earliest(loop)
            pulled.append(after is not None and after < before)

    loop = DispatchLoop(
        lambda core: ReplaySession(
            XdpPipeline(countmin_factory(core), faults=plan.injector(core))
        ),
        make_policy("rss", 4),
        4,
        32,
        queueing=QueueingConfig(rx_ring_size=256),
        faults=plan,
        epoch_packets=100,
        epoch_hook=hook,
    )
    per_core = loop.run(trace())
    assert sum(pulled) > len(pulled) // 2, (
        "re-steered frames must often set the earliest pickup"
    )
    witness = digest(
        [r.total_cycles for r in per_core],
        sorted(loop.actions.items()),
        sorted(loop.injected.items()),
        loop.latencies,
        loop.ring_overflow(),
        loop.packets_in,
    )
    assert witness == HOOK_RESTEER_EXPECTED
