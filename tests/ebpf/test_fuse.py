"""Chain fuser: parity, specialization, caching (repro.ebpf.fuse).

The fused closure's contract is the same bit-identical one the PR 5
JIT pinned, extended to whole chains: for every bundled chain
combination (and randomly fused fuzz chains), the fused backend must
produce the same verdict sequence, the same aggregated ``VmStats``,
the same ``Cycles`` totals *and* per-category charges, and the same
kfunc closure state (sketch rows, steering tables, PRNG position) as
running the interpreted chain stage by stage.
"""

import os
import random

import pytest

from repro.ebpf.fuse import (
    FuseError,
    cache_info,
    fuse_chain,
    fused_for,
)
from repro.ebpf.progs import (
    NF_CHAIN_STAGES,
    bundled_chains,
    get_case,
    runnable_registry,
)
from repro.ebpf.runtime import BpfRuntime
from repro.ebpf.verifier import Verifier, VerifierError
from repro.faults import FaultPlan
from repro.net.flowgen import FlowGenerator
from repro.net.irnf import IrChainNf
from repro.net.multicore import RssDispatcher, chain_nf_factory
from repro.net.packet import Packet

from tests.ebpf.test_verifier_differential import _gen_program
from tests.speed import best_of, timed

SEED = 20260809
N_FUZZ_CHAINS = int(os.environ.get("REPRO_FUZZ_CHAINS", "40"))
FUZZ_POOL = int(os.environ.get("REPRO_FUZZ_PROGRAMS", "120"))


def _mk_packets(n, seed):
    rng = random.Random(seed)
    return [
        Packet(
            src_ip=rng.getrandbits(32),
            dst_ip=rng.getrandbits(32),
            src_port=rng.getrandbits(16),
            dst_port=rng.getrandbits(16),
            proto=rng.choice((6, 17)),
            size=rng.randint(64, 1500),
            timestamp_ns=rng.getrandbits(40),
        )
        for _ in range(n)
    ]


def _kfunc_state(registry):
    """Mutable closure state behind the runnable kfuncs: count-min rows
    and the PRNG position (steering tables are immutable)."""
    state = []
    for name in ("enetstl_cm_update", "enetstl_prandom_u32"):
        meta = registry.get(name)
        if meta is None or meta.impl is None:
            continue
        for cell in meta.impl.__closure__ or ():
            v = cell.cell_contents
            if isinstance(v, list):
                state.append(tuple(map(tuple, v)))
            elif isinstance(v, random.Random):
                state.append(v.getstate())
    return tuple(state)


def _observe(nf, rt, registry, actions):
    snap = rt.cycles.snapshot()
    return (
        actions,
        tuple(nf.returns),
        nf.stats.steps,
        nf.stats.checks_performed,
        nf.stats.checks_elided,
        nf.stats.insn_cycles,
        nf.stats.check_cycles,
        rt.cycles.total,
        tuple(sorted((c.name, v) for c, v in snap.by_category.items())),
        _kfunc_state(registry),
    )


def _run_chain(progs, packets, backend, elide, reg_seed=0):
    rt = BpfRuntime()
    registry = runnable_registry(reg_seed)
    nf = IrChainNf(
        rt, progs, registry=registry, elide_checks=elide, backend=backend
    )
    actions = nf.process_batch(packets)
    return _observe(nf, rt, registry, tuple(sorted(actions.items())))


# -- bundled-chain parity ---------------------------------------------------


@pytest.mark.parametrize("elide", [True, False])
@pytest.mark.parametrize("combo", bundled_chains(), ids="->".join)
def test_bundled_chain_parity(combo, elide):
    progs = [get_case(n).prog for n in combo]
    pkts = _mk_packets(64, seed=SEED + len(combo))
    interp = _run_chain(progs, pkts, "interp", elide)
    fused = _run_chain(progs, pkts, "fused", elide)
    assert interp == fused


def test_fused_matches_jit_chain_backend():
    progs = [get_case(n).prog for n in NF_CHAIN_STAGES]
    pkts = _mk_packets(64, seed=SEED)
    assert (_run_chain(progs, pkts, "jit", True)
            == _run_chain(progs, pkts, "fused", True))


def test_single_packet_process_parity():
    progs = [get_case(n).prog for n in NF_CHAIN_STAGES]
    pkts = _mk_packets(16, seed=SEED + 99)

    rt_i = BpfRuntime()
    reg_i = runnable_registry(0)
    nf_i = IrChainNf(rt_i, progs, registry=reg_i, backend="interp")
    acts_i = [nf_i.process(p) for p in pkts]

    rt_f = BpfRuntime()
    reg_f = runnable_registry(0)
    nf_f = IrChainNf(rt_f, progs, registry=reg_f, backend="fused")
    acts_f = [nf_f.process(p) for p in pkts]

    assert acts_i == acts_f
    assert (_observe(nf_i, rt_i, reg_i, tuple(acts_i))
            == _observe(nf_f, rt_f, reg_f, tuple(acts_f)))


# -- measured chains: host speed and fleet parity ---------------------------

#: The classifier -> count-min -> Maglev prefixes, plus a 4-NF chain that
#: re-enters the count-min stage (sketches are the NF most often stacked).
MEASURED_CHAINS = {
    "1nf": NF_CHAIN_STAGES[:1],
    "2nf": NF_CHAIN_STAGES[:2],
    "3nf": NF_CHAIN_STAGES,
    "4nf": ("nf_classifier", "nf_cm_sketch", "nf_cm_sketch",
            "nf_maglev_pick"),
}

#: Packet faults plus helper and map errors, seed-pinned.
CHAOS = FaultPlan(seed=77, drop_rate=0.02, corrupt_rate=0.03,
                  truncate_rate=0.02, dup_rate=0.02, helper_rate=0.03,
                  map_full_rate=0.03)


def _measured_trace():
    return FlowGenerator(n_flows=64, seed=3).trace(1200)


@pytest.fixture(scope="module")
def single_core():
    """Best of 3 per backend over 1200 packets on one core:
    ``label -> backend -> (seconds, (returns, cycle total))``."""
    trace = _measured_trace()

    def rep(progs, backend):
        rt = BpfRuntime(seed=1)
        nf = IrChainNf(rt, progs, registry=runnable_registry(1),
                       backend=backend)
        seconds, _ = timed(nf.process_batch, trace)
        return seconds, (tuple(nf.returns), rt.cycles.total)

    out = {}
    for label, combo in MEASURED_CHAINS.items():
        progs = [get_case(n).prog for n in combo]
        out[label] = {b: best_of(lambda: rep(progs, b))
                      for b in ("interp", "jit", "fused")}
    return out


def _fleet_witness(label, backend, faults=None):
    """The 4-core dispatcher witness, the same on each of 3 runs."""
    progs = [get_case(n).prog for n in MEASURED_CHAINS[label]]
    trace = _measured_trace()

    def rep():
        disp = RssDispatcher(chain_nf_factory(progs, backend=backend),
                             n_cores=4, faults=faults)
        seconds, result = timed(disp.run, trace)
        return seconds, (
            tuple(sorted(result.accounting().items())),
            tuple(sorted(result.errors.items())),
            result.total_cycles,
            tuple(sorted((c.name, v) for c, v in result.by_category.items())),
            tuple(tuple(nf.returns) for nf in disp.nfs),
        )

    return best_of(rep)[1]


@pytest.mark.parametrize("label", sorted(MEASURED_CHAINS))
def test_measured_chain_single_core_parity(single_core, label):
    runs = single_core[label]
    assert runs["jit"][1] == runs["interp"][1]
    assert runs["fused"][1] == runs["interp"][1]


@pytest.mark.parametrize("label", sorted(MEASURED_CHAINS))
def test_measured_chain_fleet_parity(label):
    interp = _fleet_witness(label, "interp")
    assert _fleet_witness(label, "jit") == interp
    assert _fleet_witness(label, "fused") == interp
    assert (_fleet_witness(label, "fused", CHAOS)
            == _fleet_witness(label, "interp", CHAOS))


def test_fused_three_nf_chain_speed_bars(single_core):
    """The fused 3-NF chain runs >= 1.2x the per-NF JIT and >= 3x the
    interpreter (best of 3 per backend)."""
    runs = single_core["3nf"]
    fused_s = runs["fused"][0]
    assert runs["jit"][0] / fused_s >= 1.2
    assert runs["interp"][0] / fused_s >= 3.0


# -- specialization metadata ------------------------------------------------


def _verified(names, reg):
    verifier = Verifier(reg)
    return [verifier.verify(get_case(n).prog) for n in names]


def test_fused_chain_metadata():
    reg = runnable_registry(0)
    fc = fuse_chain(reg, _verified(NF_CHAIN_STAGES, reg))
    assert fc.stage_names == tuple(NF_CHAIN_STAGES)
    assert fc.source.startswith(
        "def _fused_nf_classifier__nf_cm_sketch__nf_maglev_pick")
    # cm_sketch's counted loop is unrolled inside the fused body too.
    assert fc.unrolled["nf_cm_sketch"] == {12: 4}
    # cm_update and maglev_pick publish inline specs; both must be
    # expanded (the fused closure calls no Python kfunc for them).
    assert fc.inlined_kfuncs == 2


def test_early_exit_emitted_between_stages_only():
    reg = runnable_registry(0)
    for combo in bundled_chains():
        fc = fuse_chain(reg, _verified(combo, reg))
        # One early-exit branch per non-final stage: a non-PASS verdict
        # skips all later stages at runtime.
        assert fc.source.count("if _rr != 2:") == len(combo) - 1


def test_inlining_can_be_disabled():
    registry = runnable_registry(0)
    fc = fuse_chain(registry, _verified(NF_CHAIN_STAGES, registry),
                    inline_kfuncs=False)
    assert fc.inlined_kfuncs == 0
    # Parity does not depend on inlining: direct-bound calls agree too.
    pkts = _mk_packets(32, seed=SEED + 7)
    progs = [get_case(n).prog for n in NF_CHAIN_STAGES]
    interp = _run_chain(progs, pkts, "interp", True)

    rt = BpfRuntime()
    nf = IrChainNf(rt, progs, registry=registry, backend="fused")
    nf._fused = fc
    actions = nf.process_batch(pkts)
    assert interp == _observe(nf, rt, registry, tuple(sorted(actions.items())))


def test_fuse_rejects_bad_input():
    reg = runnable_registry(0)
    with pytest.raises(FuseError):
        fuse_chain(reg, [])
    with pytest.raises(FuseError):
        fuse_chain(reg, [get_case("nf_classifier").prog])  # not verified


# -- caching ----------------------------------------------------------------


def test_cache_hit_returns_same_object():
    reg = runnable_registry(0)
    vps = _verified(NF_CHAIN_STAGES, reg)
    before = cache_info()
    first = fused_for(reg, vps)
    second = fused_for(reg, vps)
    after = cache_info()
    assert first is second
    assert after["hits"] >= before["hits"] + 1
    assert after["misses"] == before["misses"] + 1


def test_cache_keyed_by_chain_elide_and_registry():
    reg = runnable_registry(0)
    vps = _verified(NF_CHAIN_STAGES, reg)
    base = fused_for(reg, vps)
    # Different elide mode -> different closure.
    assert fused_for(reg, vps, elide_checks=False) is not base
    # Different chain (prefix) -> different closure.
    assert fused_for(reg, vps[:2]) is not base
    # Different registry -> different cache bucket entirely.
    reg2 = runnable_registry(0)
    vps2 = _verified(NF_CHAIN_STAGES, reg2)
    assert fused_for(reg2, vps2) is not base


# -- fuzz chains ------------------------------------------------------------


def test_fuzz_chain_parity():
    """Fuse random 2–3 program chains drawn from the differential-fuzz
    generator's accept frontier and pin bit-identical behaviour against
    the interpreted chain on random traces."""
    rng = random.Random(SEED)
    verifier = Verifier(runnable_registry(SEED))
    accepted = []
    for idx in range(FUZZ_POOL):
        prog = _gen_program(rng, idx)
        try:
            accepted.append(verifier.verify(prog))
        except VerifierError:
            continue
    assert len(accepted) >= 2, "fuzz generator produced no accept pool"

    fused_runs = 0
    for i in range(N_FUZZ_CHAINS):
        chain = [rng.choice(accepted) for _ in range(rng.choice((2, 3)))]
        pkts = _mk_packets(6, seed=SEED + 1000 + i)
        reg_seed = rng.randrange(1 << 30)
        interp = _run_chain(chain, pkts, "interp", True, reg_seed=reg_seed)
        fused = _run_chain(chain, pkts, "fused", True, reg_seed=reg_seed)
        assert interp == fused, (
            f"fuzz chain {[vp.prog.name for vp in chain]} "
            f"(seed {SEED}, run {i}) diverged"
        )
        fused_runs += 1
    assert fused_runs == N_FUZZ_CHAINS
