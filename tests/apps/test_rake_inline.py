"""The fused ``enetstl_rake_update`` inline spec equals its impl.

The spec emits the four level hashes as straight-line source
(:func:`~repro.core.algorithms.hashing.fast_hash32_src`) instead of
calling the kfunc's impl.  A probe program feeds the kfunc arbitrary
level keys over the full u64 domain; each case runs once through the
fused closure (spec inlined) and once through the interpreter (impl
called) on fresh same-seed app states, and both must give the same
returns, the same ``rake_levels`` counters and the same cycles.

The probe XORs each key immediate with the packet's timestamp field, so
the fused code sees the keys as runtime register values rather than
literals; a zero timestamp passes the immediates through unchanged.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.ir import RAKE_LEVELS, ir_registry
from repro.ebpf.insn import (
    R0,
    R1,
    R2,
    R3,
    R4,
    R5,
    Alu,
    Call,
    Exit,
    Imm,
    JmpIf,
    Load,
    Mov,
    Program,
)
from repro.ebpf.runtime import BpfRuntime
from repro.net.irnf import HEADER_BYTES, PKT_TIMESTAMP, IrChainNf
from repro.net.packet import Packet

U64 = st.integers(0, (1 << 64) - 1)
KEYS = st.tuples(*[U64] * RAKE_LEVELS)
STAMPS = st.lists(U64, min_size=1, max_size=4)
SEED = 5


def _probe(keys):
    """Guard the header, then ``rake_update(k_i ^ timestamp)``."""
    k0, k1, k2, k3 = keys
    return Program(
        [
            Load(R2, R1, 0),                    # r2 = ctx->data
            Load(R3, R1, 8),                    # r3 = ctx->data_end
            Mov(R4, R2),
            Alu("add", R4, Imm(HEADER_BYTES)),
            JmpIf("gt", R4, R3, 16),            # short packet: r0 = 0
            Load(R5, R2, PKT_TIMESTAMP),
            Mov(R1, Imm(k0)),
            Alu("xor", R1, R5),
            Mov(R2, Imm(k1)),
            Alu("xor", R2, R5),
            Mov(R3, Imm(k2)),
            Alu("xor", R3, R5),
            Mov(R4, Imm(k3)),
            Alu("xor", R4, R5),
            Call("enetstl_rake_update"),        # r0 = worst level count
            Exit(),
            Mov(R0, Imm(0)),
            Exit(),
        ],
        name="rake_probe",
    )


def _run(backend, cases, stamps):
    registry = ir_registry(SEED)
    rt = BpfRuntime()
    packets = [Packet(1, 2, 3, 4, timestamp_ns=ts) for ts in stamps]
    nfs = []
    for keys in cases:
        nf = IrChainNf(rt, [_probe(keys)], registry=registry, backend=backend)
        nf.process_batch(packets)
        nfs.append(nf)
    return (
        [list(nf.returns) for nf in nfs],
        registry.app_state.rake_levels,
        rt.cycles.total,
        rt.cycles.breakdown(),
        [(nf.stats.steps, nf.stats.insn_cycles, nf.stats.check_cycles) for nf in nfs],
    ), nfs


@given(st.lists(KEYS, min_size=1, max_size=3), STAMPS)
@settings(max_examples=40, deadline=None)
@example([(0, 0, 0, 0)], [0, 0])
@example([((1 << 64) - 1, 1 << 63, (1 << 63) + 1, 0)], [0])
@example([(7, 7, 7, 7), (7, 7, 7, 7)], [0, 1 << 63])
def test_fused_rake_update_equals_interpreted(cases, stamps):
    fused, fused_nfs = _run("fused", cases, stamps)
    interp, _ = _run("interp", cases, stamps)
    assert fused == interp
    assert all(nf._fused.inlined_kfuncs == 1 for nf in fused_nfs)
    # Every level of every probe packet bumped exactly one counter.
    levels = fused[1]
    assert all(sum(row) == len(cases) * len(stamps) for row in levels)


def test_fused_rake_update_emits_the_hash_inline():
    _, (nf,) = _run("fused", [(1, 2, 3, 4)], [0])
    source = nf._fused.source
    assert "enetstl_rake_update" not in source
    assert "fast_hash32" not in source
    assert "0x94D049BB133111EB" in source
