"""Verified-IR app ports: strict verification, 3-backend parity,
control-plane failover, and multi-core runs (PR 10 tentpole).

The contract under test, per app: every stage verifies (strict — any
rejection is a failure), and the interpreted, per-NF-JIT, and fused
builds produce bit-identical verdict sequences, VM statistics, and
cycle ledgers over the same trace with same-seed registries.  Katran
additionally pins the control plane: failing a backend repacks the CH
ring in place — visible to already-fused closures — with Maglev-grade
disruption and connection eviction.
"""

import pytest

from repro.apps.ir import (
    CH_RING_SIZE,
    IR_APP_NAMES,
    KATRAN_REALS,
    app_chain,
    app_nf,
    app_nf_factory,
    ir_registry,
    verify_app_chains,
)
from repro.datastructs.cuckoo import BlockedCuckooTable
from repro.ebpf.runtime import BpfRuntime
from repro.faults import FaultPlan
from repro.net.flowgen import FlowGenerator
from repro.net.multicore import RssDispatcher
from repro.net.queueing import ArrivalProcess, QueueingConfig

from tests.speed import best_of, timed

SEED = 1009
BACKENDS = ("interp", "jit", "fused")


def _trace(n=1200, n_flows=192, seed=SEED):
    return FlowGenerator(
        n_flows=n_flows, distribution="zipf", zipf_s=1.1, seed=seed
    ).trace(n)


def _static_fdb(registry, trace):
    """Install static FDB entries (control-plane seeded, like a bridge
    with pre-provisioned stations) for half the destinations so the
    forward stage exercises both REDIRECT and flood paths."""
    fdb = registry.app_state.fdb
    for i, pkt in enumerate(trace):
        if i % 2 == 0:
            mac = pkt.dst_ip | (pkt.dst_port << 32)
            fdb[mac] = pkt.dst_port % 8


def _run(app, backend, trace, seed=3):
    registry = ir_registry(seed)
    if app == "polycube":
        _static_fdb(registry, trace)
    nf = app_nf(app, backend=backend, seed=seed, registry=registry)
    for pkt in trace:
        nf.process(pkt)
    return nf


def _witness(nf):
    return (
        tuple(nf.returns),
        nf.rt.cycles.total,
        nf.rt.cycles.breakdown(),
        nf.stats.insn_cycles,
        nf.stats.check_cycles,
        nf.stats.steps,
    )


# -- verification -----------------------------------------------------------


def test_all_stages_verify_strict():
    states = verify_app_chains(strict=True)  # raises on any rejection
    assert len(states) == 8
    assert all(n > 0 for n in states.values())


def test_unknown_app_rejected():
    with pytest.raises(ValueError):
        app_chain("netfilter")


def test_chains_are_two_stage_pipelines():
    assert set(IR_APP_NAMES) == {"katran", "rakelimit", "polycube",
                                 "sketches"}
    for name in IR_APP_NAMES:
        chain = app_chain(name)
        assert len(chain) == 2


# -- backend parity ---------------------------------------------------------


@pytest.mark.parametrize("app", IR_APP_NAMES)
def test_three_backend_parity(app):
    trace = _trace()
    witnesses = {b: _witness(_run(app, b, trace)) for b in BACKENDS}
    assert witnesses["interp"] == witnesses["jit"] == witnesses["fused"]


def test_verdict_mix_is_nontrivial():
    trace = _trace(n=2400)
    mixes = {}
    for app in IR_APP_NAMES:
        nf = _run(app, "fused", trace)
        mixes[app] = set(nf.returns)
    assert mixes["katran"] == {3, 4}          # TX / REDIRECT by real
    assert mixes["rakelimit"] == {1, 2}       # zipf head gets limited
    assert mixes["polycube"] == {2, 4}        # flood + known-MAC redirect
    assert mixes["sketches"] == {1, 2}        # heavy hitters policed


def test_fusion_inlines_app_kfuncs():
    for app in IR_APP_NAMES:
        nf = app_nf(app, backend="fused", seed=1)
        assert nf._fused.inlined_kfuncs >= 1, app


# -- katran control plane ---------------------------------------------------


def test_katran_failover_repacks_in_place():
    trace = _trace(n=1500)
    registry = ir_registry(5)
    nf = app_nf("katran", backend="fused", seed=5, registry=registry)
    for pkt in trace:
        nf.process(pkt)
    kat = registry.app_state.katran
    assert len(kat.conns) > 0
    victim = kat.ring[0]
    pinned_before = sum(1 for _, real in kat.conns.items() if real == victim)
    report = kat.fail_real(victim)
    assert report["evicted"] == pinned_before > 0
    assert victim not in kat.ring
    assert victim not in kat.alive
    # Maglev minimal disruption: slots not owned by the victim mostly
    # keep their backend (well under half move on a repack).
    assert report["moved"] / CH_RING_SIZE < 0.5
    # The fused closure sees the repack immediately: replay the trace
    # and confirm no flow lands on the failed real.
    for pkt in trace:
        nf.process(pkt)
    assert all(real != victim for _, real in kat.conns.items())
    assert set(nf.returns) <= {3, 4}


def test_katran_failover_parity_across_backends():
    trace = _trace(n=900, seed=77)
    phase1, phase2 = trace[:450], trace[450:]
    witnesses = {}
    for backend in BACKENDS:
        registry = ir_registry(9)
        nf = app_nf("katran", backend=backend, seed=9, registry=registry)
        for pkt in phase1:
            nf.process(pkt)
        kat = registry.app_state.katran
        report = kat.fail_real(kat.ring[0])
        for pkt in phase2:
            nf.process(pkt)
        witnesses[backend] = (_witness(nf), tuple(sorted(report.items())))
    assert witnesses["interp"] == witnesses["jit"] == witnesses["fused"]


def test_fail_last_real_rejected():
    registry = ir_registry(0, n_reals=2)
    kat = registry.app_state.katran
    kat.fail_real(0)
    with pytest.raises(ValueError):
        kat.fail_real(1)


# -- multi-core -------------------------------------------------------------


@pytest.mark.parametrize("app", IR_APP_NAMES)
def test_multicore_jit_fused_parity(app):
    trace = _trace(n=1600, seed=41)
    results = {}
    for backend in ("jit", "fused"):
        disp = RssDispatcher(
            app_nf_factory(app, backend=backend, registry_seed=2),
            n_cores=4,
            steering="ntuple",
        )
        res = disp.run(trace)
        assert res.is_fully_accounted
        results[backend] = (
            dict(res.actions),
            res.total_cycles,
            res.packets_in,
        )
    assert results["jit"] == results["fused"]


def test_multicore_per_core_state_is_private():
    disp = RssDispatcher(
        app_nf_factory("katran", backend="fused", registry_seed=0),
        n_cores=2,
        steering="ntuple",
    )
    disp.run(_trace(n=400))
    states = [nf.registry.app_state for nf in disp.nfs]
    assert states[0] is not states[1]
    assert states[0].katran.conns is not states[1].katran.conns


# -- measured apps: host speed, fleet parity, the cluster day ---------------

#: Packet faults plus helper and map errors, seed-pinned.
CHAOS = FaultPlan(seed=77, drop_rate=0.02, corrupt_rate=0.02,
                  truncate_rate=0.01, helper_rate=0.02, map_full_rate=0.02)


def _measured_trace():
    return _trace(n=1500, n_flows=1024, seed=14)


@pytest.mark.parametrize("app", IR_APP_NAMES)
def test_fused_outruns_interp_bit_identically(app):
    """Best of 3 per backend over 1500 packets on one core: every
    backend gives the interpreter's witness, and fused runs >= 2x it."""
    trace = _measured_trace()

    def rep(backend):
        rt = BpfRuntime(seed=1)
        nf = app_nf(app, rt=rt, backend=backend, seed=1,
                    registry=ir_registry(1))
        seconds, _ = timed(nf.process_batch, trace)
        return seconds, (tuple(nf.returns), rt.cycles.total,
                         nf.stats.insn_cycles, nf.stats.check_cycles)

    runs = {b: best_of(lambda: rep(b)) for b in BACKENDS}
    assert runs["jit"][1] == runs["interp"][1]
    assert runs["fused"][1] == runs["interp"][1]
    assert runs["interp"][0] / runs["fused"][0] >= 2.0


def _fleet_witness(app, backend, faults=None):
    """The 4-core ntuple-steered witness, the same on each of 3 runs."""
    trace = _measured_trace()

    def rep():
        disp = RssDispatcher(
            app_nf_factory(app, backend=backend, registry_seed=2),
            n_cores=4, steering="ntuple", faults=faults,
        )
        seconds, res = timed(disp.run, trace)
        assert res.is_fully_accounted
        return seconds, (
            tuple(sorted(res.accounting().items())),
            tuple(sorted(res.errors.items())),
            res.total_cycles,
            tuple(sorted(res.injected.items())),
            tuple(tuple(nf.returns) for nf in disp.nfs),
        )

    return best_of(rep)[1]


@pytest.mark.parametrize("app", IR_APP_NAMES)
def test_fleet_fused_matches_jit_clean_and_under_chaos(app):
    assert _fleet_witness(app, "fused") == _fleet_witness(app, "jit")
    assert (_fleet_witness(app, "fused", CHAOS)
            == _fleet_witness(app, "jit", CHAOS))


def _cluster_day(backend):
    """Katran on 2 cores over 2000 Zipf packets (512 flows) under chaos
    and 256-slot RX rings: a steady half, then ``fail_real(3)`` on every
    core, then a flash crowd at 7x the base rate."""
    n_packets = 2000
    arrivals = ArrivalProcess.flash_crowd(
        base_pps=500_000.0, peak_pps=3_500_000.0,
        lead_s=(n_packets / 2) / 500_000.0,
        burst_s=(n_packets / 4) / 3_500_000.0, seed=9,
    )
    trace = list(FlowGenerator(
        n_flows=512, distribution="zipf", zipf_s=1.1, seed=9
    ).iter_trace_bursty(n_packets, arrivals))
    disp = RssDispatcher(
        app_nf_factory("katran", backend=backend, registry_seed=4),
        n_cores=2, steering="ntuple", faults=CHAOS,
        queueing=QueueingConfig(rx_ring_size=256, batch_timeout_ns=20_000),
    )
    steady = disp.run(trace[:n_packets // 2])
    reports = [nf.registry.app_state.katran.fail_real(3) for nf in disp.nfs]
    crowd = disp.run(trace[n_packets // 2:])
    return (steady, crowd), reports


@pytest.fixture(scope="module")
def cluster_day():
    return {backend: _cluster_day(backend) for backend in ("interp", "fused")}


def test_cluster_day_fused_matches_interp(cluster_day):
    def witness(phases, reports):
        return (
            [(sorted(r.accounting().items()), sorted(r.errors.items()),
              r.total_cycles, sorted(r.injected.items()), r.latencies_ns)
             for r in phases],
            [sorted(report.items()) for report in reports],
        )

    assert witness(*cluster_day["fused"]) == witness(*cluster_day["interp"])


def test_cluster_day_phases_account_and_order_latency(cluster_day):
    phases, _ = cluster_day["fused"]
    for res in phases:
        assert res.is_fully_accounted
        assert res.aggregate_mpps > 0
        assert res.p99_latency_us >= res.p50_latency_us >= 0


def test_cluster_day_failover_disruption(cluster_day):
    """Failing one real evicts its connections and moves under half of
    each core's CH ring."""
    _, reports = cluster_day["fused"]
    assert sum(r["evicted"] for r in reports) > 0
    moved = sum(r["moved"] for r in reports)
    disruption = moved / (reports[0]["ring_size"] * len(reports))
    assert 0.0 < disruption < 0.5


# -- cuckoo control-plane snapshot -----------------------------------------


def test_cuckoo_items_snapshot():
    table = BlockedCuckooTable(64, 4, seed=3)
    pairs = {k: k * 7 for k in range(40)}
    for k, v in pairs.items():
        assert table.insert(k, v)
    assert dict(table.items()) == pairs
    table.delete(5)
    assert 5 not in dict(table.items())


def test_ring_covers_all_reals():
    registry = ir_registry(0)
    kat = registry.app_state.katran
    assert set(kat.ring) == set(range(KATRAN_REALS))
