"""Golden witness matrix for single-core replay.

Every scenario below replays a fixed trace through one
:class:`XdpPipeline` entry point — :meth:`~XdpPipeline.run` (with and
without latency measurement), :meth:`~XdpPipeline.run_batch`, or a
:class:`ReplaySession` fed in batches — and hashes everything the run
can observe: packet count, cycles per category, verdicts, the error
counter, the simulated clock and the per-packet latencies.  IR NFs
also hash their raw r0 log and VM statistics.

The expected digests were recorded before the replay paths were merged
into one batch core.  Latencies are hashed in order on clean runs and
sorted under faults: the fault pre-screen may group the packets a
fault aborts, which reorders latencies within a batch but never
changes their values.
"""

import hashlib
import json

import pytest

from repro.ebpf.cost_model import ExecMode
from repro.ebpf.progs import NF_CHAIN_STAGES, get_case
from repro.ebpf.runtime import BpfRuntime
from repro.faults import FaultInjector, FaultPlan
from repro.net.flowgen import FlowGenerator
from repro.net.irnf import IrChainNf, IrNf
from repro.net.xdp import ReplaySession, XdpPipeline, iter_batches
from repro.nfs import (
    CountMinNF,
    CuckooSwitchNF,
    EiffelNF,
    FlowMonitorNF,
    TimeWheelNF,
)

PLAN = FaultPlan(
    seed=5,
    drop_rate=0.03,
    corrupt_rate=0.02,
    dup_rate=0.03,
    helper_rate=0.02,
    map_full_rate=0.02,
)

NFS = {
    "timewheel": TimeWheelNF,
    "countmin": CountMinNF,
    "eiffel": EiffelNF,
    "cuckoo_switch": CuckooSwitchNF,
    # Updates a BPF hash map, so map-full faults fire inside the NF.
    "flow_monitor": FlowMonitorNF,
}
MODES = {"ebpf": ExecMode.PURE_EBPF, "enetstl": ExecMode.ENETSTL}
ENTRIES = ("run", "run_latency", "run_batch", "feed")


def trace(n_packets):
    fg = FlowGenerator(n_flows=128, seed=21, distribution="zipf")
    return fg.trace(n_packets, inter_arrival_ns=700)


def digest(*parts):
    blob = json.dumps(parts, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def replay(nf, entry, faulty, packets):
    faults = FaultInjector(PLAN) if faulty else None
    pipeline = XdpPipeline(nf, faults=faults)
    if entry == "run":
        result = pipeline.run(packets)
    elif entry == "run_latency":
        result = pipeline.run(packets, measure_latency=True)
    elif entry == "run_batch":
        result = pipeline.run_batch(packets, batch_size=64)
    else:
        session = ReplaySession(pipeline)
        for batch in iter_batches(iter(packets), 100):
            session.feed(batch)
        result = session.finish()
    latencies = result.latencies_ns
    return (
        result.n_packets,
        result.total_cycles,
        sorted((c.name, v) for c, v in result.by_category.items()),
        sorted(result.actions.items()),
        sorted(result.errors.items()),
        nf.rt.now_ns,
        sorted(latencies) if faulty else latencies,
    )


def ir_state(nf):
    s = nf.stats
    return (
        digest(nf.returns),
        (s.steps, s.checks_performed, s.checks_elided,
         s.insn_cycles, s.check_cycles),
    )


NF_GRID = [
    (name, mode, entry, faulty)
    for name in NFS
    for mode in MODES
    for entry in ENTRIES
    for faulty in (False, True)
]

NF_EXPECTED = {
    ('timewheel', 'ebpf', 'run', False): '832bbcf05ef9c677',
    ('timewheel', 'ebpf', 'run', True): '86f36092ac69b903',
    ('timewheel', 'ebpf', 'run_latency', False): 'f9c2e503f4adeced',
    ('timewheel', 'ebpf', 'run_latency', True): '819aa3f27ff9a9a5',
    ('timewheel', 'ebpf', 'run_batch', False): '832bbcf05ef9c677',
    ('timewheel', 'ebpf', 'run_batch', True): '86f36092ac69b903',
    ('timewheel', 'ebpf', 'feed', False): '832bbcf05ef9c677',
    ('timewheel', 'ebpf', 'feed', True): '86f36092ac69b903',
    ('timewheel', 'enetstl', 'run', False): 'f0436bd5435a444c',
    ('timewheel', 'enetstl', 'run', True): '3bb0df1f1ba5abf9',
    ('timewheel', 'enetstl', 'run_latency', False): '88295b0d10be6fdd',
    ('timewheel', 'enetstl', 'run_latency', True): '4be172d186eb1061',
    ('timewheel', 'enetstl', 'run_batch', False): 'f0436bd5435a444c',
    ('timewheel', 'enetstl', 'run_batch', True): '3bb0df1f1ba5abf9',
    ('timewheel', 'enetstl', 'feed', False): 'f0436bd5435a444c',
    ('timewheel', 'enetstl', 'feed', True): '3bb0df1f1ba5abf9',
    ('countmin', 'ebpf', 'run', False): 'ed44c24a358bcc86',
    ('countmin', 'ebpf', 'run', True): '280782eef81d5a73',
    ('countmin', 'ebpf', 'run_latency', False): '1521dc731ee19cbe',
    ('countmin', 'ebpf', 'run_latency', True): 'eb709adf0fbeb124',
    ('countmin', 'ebpf', 'run_batch', False): 'ed44c24a358bcc86',
    ('countmin', 'ebpf', 'run_batch', True): '280782eef81d5a73',
    ('countmin', 'ebpf', 'feed', False): 'ed44c24a358bcc86',
    ('countmin', 'ebpf', 'feed', True): '280782eef81d5a73',
    ('countmin', 'enetstl', 'run', False): 'e444c0b6bb369688',
    ('countmin', 'enetstl', 'run', True): 'eb3836705bf9092a',
    ('countmin', 'enetstl', 'run_latency', False): 'c7e04ad890ae8ecf',
    ('countmin', 'enetstl', 'run_latency', True): 'ae57c4b7db78521c',
    ('countmin', 'enetstl', 'run_batch', False): 'e444c0b6bb369688',
    ('countmin', 'enetstl', 'run_batch', True): 'eb3836705bf9092a',
    ('countmin', 'enetstl', 'feed', False): 'e444c0b6bb369688',
    ('countmin', 'enetstl', 'feed', True): 'eb3836705bf9092a',
    ('eiffel', 'ebpf', 'run', False): 'f658abf424ac57d9',
    ('eiffel', 'ebpf', 'run', True): '0f474e5dead58aa3',
    ('eiffel', 'ebpf', 'run_latency', False): 'a99eb2428e9c6bbe',
    ('eiffel', 'ebpf', 'run_latency', True): 'dc921bca1ed175c0',
    ('eiffel', 'ebpf', 'run_batch', False): 'f658abf424ac57d9',
    ('eiffel', 'ebpf', 'run_batch', True): '0f474e5dead58aa3',
    ('eiffel', 'ebpf', 'feed', False): 'f658abf424ac57d9',
    ('eiffel', 'ebpf', 'feed', True): '0f474e5dead58aa3',
    ('eiffel', 'enetstl', 'run', False): '936ac53530f50812',
    ('eiffel', 'enetstl', 'run', True): '6bc105a105fb477b',
    ('eiffel', 'enetstl', 'run_latency', False): '1b80030db761e631',
    ('eiffel', 'enetstl', 'run_latency', True): '9a1e6d462dad6160',
    ('eiffel', 'enetstl', 'run_batch', False): '936ac53530f50812',
    ('eiffel', 'enetstl', 'run_batch', True): '6bc105a105fb477b',
    ('eiffel', 'enetstl', 'feed', False): '936ac53530f50812',
    ('eiffel', 'enetstl', 'feed', True): '6bc105a105fb477b',
    ('cuckoo_switch', 'ebpf', 'run', False): '3e95aaf9c141558a',
    ('cuckoo_switch', 'ebpf', 'run', True): 'e62f8dc474412b91',
    ('cuckoo_switch', 'ebpf', 'run_latency', False): '7b3242712e3ba7fb',
    ('cuckoo_switch', 'ebpf', 'run_latency', True): '76a9d2d0266a41b1',
    ('cuckoo_switch', 'ebpf', 'run_batch', False): '3e95aaf9c141558a',
    ('cuckoo_switch', 'ebpf', 'run_batch', True): 'e62f8dc474412b91',
    ('cuckoo_switch', 'ebpf', 'feed', False): '3e95aaf9c141558a',
    ('cuckoo_switch', 'ebpf', 'feed', True): 'e62f8dc474412b91',
    ('cuckoo_switch', 'enetstl', 'run', False): 'cfc2fe7411ae6675',
    ('cuckoo_switch', 'enetstl', 'run', True): '42a0746c6de3bee6',
    ('cuckoo_switch', 'enetstl', 'run_latency', False): '412f1c06245cae43',
    ('cuckoo_switch', 'enetstl', 'run_latency', True): '44c45a2346ae2a31',
    ('cuckoo_switch', 'enetstl', 'run_batch', False): 'cfc2fe7411ae6675',
    ('cuckoo_switch', 'enetstl', 'run_batch', True): '42a0746c6de3bee6',
    ('cuckoo_switch', 'enetstl', 'feed', False): 'cfc2fe7411ae6675',
    ('cuckoo_switch', 'enetstl', 'feed', True): '42a0746c6de3bee6',
    ('flow_monitor', 'ebpf', 'run', False): '89910db8eeb7e4b3',
    ('flow_monitor', 'ebpf', 'run', True): 'cb14af5c96a5acfa',
    ('flow_monitor', 'ebpf', 'run_latency', False): 'ab058fa498a252e0',
    ('flow_monitor', 'ebpf', 'run_latency', True): '3224b073d6ed89cd',
    ('flow_monitor', 'ebpf', 'run_batch', False): '89910db8eeb7e4b3',
    ('flow_monitor', 'ebpf', 'run_batch', True): 'cb14af5c96a5acfa',
    ('flow_monitor', 'ebpf', 'feed', False): '89910db8eeb7e4b3',
    ('flow_monitor', 'ebpf', 'feed', True): 'cb14af5c96a5acfa',
    ('flow_monitor', 'enetstl', 'run', False): '89910db8eeb7e4b3',
    ('flow_monitor', 'enetstl', 'run', True): 'cb14af5c96a5acfa',
    ('flow_monitor', 'enetstl', 'run_latency', False): 'ab058fa498a252e0',
    ('flow_monitor', 'enetstl', 'run_latency', True): '3224b073d6ed89cd',
    ('flow_monitor', 'enetstl', 'run_batch', False): '89910db8eeb7e4b3',
    ('flow_monitor', 'enetstl', 'run_batch', True): 'cb14af5c96a5acfa',
    ('flow_monitor', 'enetstl', 'feed', False): '89910db8eeb7e4b3',
    ('flow_monitor', 'enetstl', 'feed', True): 'cb14af5c96a5acfa',
}


@pytest.mark.parametrize("name,mode,entry,faulty", NF_GRID)
def test_nf_witness(name, mode, entry, faulty):
    nf = NFS[name](BpfRuntime(mode=MODES[mode], seed=1))
    got = digest(replay(nf, entry, faulty, trace(600)))
    assert got == NF_EXPECTED[(name, mode, entry, faulty)]


def test_faulted_tail_still_moves_clock():
    """Per-packet replay moves the clock to every arrival, also to the
    packets a fault drops or aborts: here the trace's last packet is
    corrupted, yet the clock ends at its timestamp."""
    packets = trace(596)
    screen = FaultInjector(PLAN)
    tags = [screen.packet_fault() for _ in packets]
    assert tags[-1] is not None
    nf = TimeWheelNF(BpfRuntime(mode=ExecMode.ENETSTL, seed=1))
    XdpPipeline(nf, faults=FaultInjector(PLAN)).run(packets)
    assert nf.rt.now_ns == packets[-1].timestamp_ns


IR_GRID = [
    (prog, backend, entry, faulty)
    for prog in NF_CHAIN_STAGES
    for backend in ("interp", "jit")
    for entry in ENTRIES
    for faulty in (False, True)
]

IR_EXPECTED = {
    ('nf_classifier', 'interp', 'run', False): 'aa1db70ae192b0aa',
    ('nf_classifier', 'interp', 'run', True): 'b0f9f0041f51d353',
    ('nf_classifier', 'interp', 'run_latency', False): 'b5e85fe4bed0ab46',
    ('nf_classifier', 'interp', 'run_latency', True): '8781d4703909b6bc',
    ('nf_classifier', 'interp', 'run_batch', False): 'aa1db70ae192b0aa',
    ('nf_classifier', 'interp', 'run_batch', True): 'b0f9f0041f51d353',
    ('nf_classifier', 'interp', 'feed', False): 'aa1db70ae192b0aa',
    ('nf_classifier', 'interp', 'feed', True): 'b0f9f0041f51d353',
    ('nf_classifier', 'jit', 'run', False): 'aa1db70ae192b0aa',
    ('nf_classifier', 'jit', 'run', True): 'b0f9f0041f51d353',
    ('nf_classifier', 'jit', 'run_latency', False): 'b5e85fe4bed0ab46',
    ('nf_classifier', 'jit', 'run_latency', True): '8781d4703909b6bc',
    ('nf_classifier', 'jit', 'run_batch', False): 'aa1db70ae192b0aa',
    ('nf_classifier', 'jit', 'run_batch', True): 'b0f9f0041f51d353',
    ('nf_classifier', 'jit', 'feed', False): 'aa1db70ae192b0aa',
    ('nf_classifier', 'jit', 'feed', True): 'b0f9f0041f51d353',
    ('nf_cm_sketch', 'interp', 'run', False): 'b387c281139af984',
    ('nf_cm_sketch', 'interp', 'run', True): 'f4aedc7cf82e6a1c',
    ('nf_cm_sketch', 'interp', 'run_latency', False): '7cda12fee02f9e38',
    ('nf_cm_sketch', 'interp', 'run_latency', True): '292990f4fb72ea69',
    ('nf_cm_sketch', 'interp', 'run_batch', False): 'b387c281139af984',
    ('nf_cm_sketch', 'interp', 'run_batch', True): 'f4aedc7cf82e6a1c',
    ('nf_cm_sketch', 'interp', 'feed', False): 'b387c281139af984',
    ('nf_cm_sketch', 'interp', 'feed', True): 'f4aedc7cf82e6a1c',
    ('nf_cm_sketch', 'jit', 'run', False): 'b387c281139af984',
    ('nf_cm_sketch', 'jit', 'run', True): 'f4aedc7cf82e6a1c',
    ('nf_cm_sketch', 'jit', 'run_latency', False): '7cda12fee02f9e38',
    ('nf_cm_sketch', 'jit', 'run_latency', True): '292990f4fb72ea69',
    ('nf_cm_sketch', 'jit', 'run_batch', False): 'b387c281139af984',
    ('nf_cm_sketch', 'jit', 'run_batch', True): 'f4aedc7cf82e6a1c',
    ('nf_cm_sketch', 'jit', 'feed', False): 'b387c281139af984',
    ('nf_cm_sketch', 'jit', 'feed', True): 'f4aedc7cf82e6a1c',
    ('nf_maglev_pick', 'interp', 'run', False): '2b37ce661cece470',
    ('nf_maglev_pick', 'interp', 'run', True): '1d332ed1ca1098b4',
    ('nf_maglev_pick', 'interp', 'run_latency', False): '6b190d98e36e69ef',
    ('nf_maglev_pick', 'interp', 'run_latency', True): '8e3f75b6ccfb21ec',
    ('nf_maglev_pick', 'interp', 'run_batch', False): '2b37ce661cece470',
    ('nf_maglev_pick', 'interp', 'run_batch', True): '1d332ed1ca1098b4',
    ('nf_maglev_pick', 'interp', 'feed', False): '2b37ce661cece470',
    ('nf_maglev_pick', 'interp', 'feed', True): '1d332ed1ca1098b4',
    ('nf_maglev_pick', 'jit', 'run', False): '2b37ce661cece470',
    ('nf_maglev_pick', 'jit', 'run', True): '1d332ed1ca1098b4',
    ('nf_maglev_pick', 'jit', 'run_latency', False): '6b190d98e36e69ef',
    ('nf_maglev_pick', 'jit', 'run_latency', True): '8e3f75b6ccfb21ec',
    ('nf_maglev_pick', 'jit', 'run_batch', False): '2b37ce661cece470',
    ('nf_maglev_pick', 'jit', 'run_batch', True): '1d332ed1ca1098b4',
    ('nf_maglev_pick', 'jit', 'feed', False): '2b37ce661cece470',
    ('nf_maglev_pick', 'jit', 'feed', True): '1d332ed1ca1098b4',
}


@pytest.mark.parametrize("prog,backend,entry,faulty", IR_GRID)
def test_irnf_witness(prog, backend, entry, faulty):
    rt = BpfRuntime(mode=ExecMode.ENETSTL, seed=1)
    nf = IrNf(rt, get_case(prog).prog, seed=4, backend=backend)
    got = digest(replay(nf, entry, faulty, trace(240)), ir_state(nf))
    assert got == IR_EXPECTED[(prog, backend, entry, faulty)]


CHAIN_GRID = [
    (backend, entry, faulty)
    for backend in ("interp", "jit", "fused")
    for entry in ENTRIES
    for faulty in (False, True)
]

CHAIN_EXPECTED = {
    ('interp', 'run', False): 'b39dc408117dfa0c',
    ('interp', 'run', True): '8b10ed77db52adde',
    ('interp', 'run_latency', False): 'e9ceea86496385ae',
    ('interp', 'run_latency', True): '30f355916455fb87',
    ('interp', 'run_batch', False): 'b39dc408117dfa0c',
    ('interp', 'run_batch', True): '8b10ed77db52adde',
    ('interp', 'feed', False): 'b39dc408117dfa0c',
    ('interp', 'feed', True): '8b10ed77db52adde',
    ('jit', 'run', False): 'b39dc408117dfa0c',
    ('jit', 'run', True): '8b10ed77db52adde',
    ('jit', 'run_latency', False): 'e9ceea86496385ae',
    ('jit', 'run_latency', True): '30f355916455fb87',
    ('jit', 'run_batch', False): 'b39dc408117dfa0c',
    ('jit', 'run_batch', True): '8b10ed77db52adde',
    ('jit', 'feed', False): 'b39dc408117dfa0c',
    ('jit', 'feed', True): '8b10ed77db52adde',
    ('fused', 'run', False): 'b39dc408117dfa0c',
    ('fused', 'run', True): '8b10ed77db52adde',
    ('fused', 'run_latency', False): 'e9ceea86496385ae',
    ('fused', 'run_latency', True): '30f355916455fb87',
    ('fused', 'run_batch', False): 'b39dc408117dfa0c',
    ('fused', 'run_batch', True): '8b10ed77db52adde',
    ('fused', 'feed', False): 'b39dc408117dfa0c',
    ('fused', 'feed', True): '8b10ed77db52adde',
}


@pytest.mark.parametrize("backend,entry,faulty", CHAIN_GRID)
def test_chain_witness(backend, entry, faulty):
    rt = BpfRuntime(mode=ExecMode.ENETSTL, seed=1)
    progs = [get_case(n).prog for n in NF_CHAIN_STAGES]
    nf = IrChainNf(rt, progs, seed=4, backend=backend)
    got = digest(replay(nf, entry, faulty, trace(240)), ir_state(nf))
    assert got == CHAIN_EXPECTED[(backend, entry, faulty)]
