"""Run verified IR programs as XDP network functions.

:class:`IrChainNf` bridges the two halves of the eBPF substrate: the
static side (:mod:`repro.ebpf.verifier`) and the data plane
(:mod:`repro.net.xdp`); :class:`IrNf` is its one-program spelling.
Each program is verified **once** at attach time
— rejected programs never reach the pipeline, exactly like
``BPF_PROG_LOAD`` — and the resulting
:class:`~repro.ebpf.verifier.VerifiedProgram` proof table rides along
to every per-packet VM run, letting the interpreter skip the bounds
and divisor checks the verifier already discharged (§4.1's
lazy-checking payoff).  ``elide_checks=False`` is the ablation knob:
identical execution, every check still performed and charged.

Packets cross the boundary through :func:`encode_packet`, which lays
the parsed 5-tuple out as little-endian u64 fields so guarded
``*(u64 *)(data + off)`` loads read real header bytes.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Sequence, Union

from ..ebpf.cost_model import Category
from ..ebpf.insn import Program
from ..ebpf.kfunc_meta import KfuncRegistry
from ..ebpf.progs import runnable_registry
from ..ebpf.runtime import BpfRuntime
from ..ebpf.verifier import VerifiedProgram, Verifier
from ..ebpf.vm import Vm, VmStats
from .packet import Packet, XdpAction

MASK64 = (1 << 64) - 1

#: The XDP return-code convention (``enum xdp_action``): r0 -> verdict.
XDP_RETURN_CODES = {
    0: XdpAction.ABORTED,
    1: XdpAction.DROP,
    2: XdpAction.PASS,
    3: XdpAction.TX,
    4: XdpAction.REDIRECT,
}

#: Byte offsets of the encoded header fields (u64 little-endian each).
PKT_SRC_IP = 0
PKT_DST_IP = 8
PKT_SRC_PORT = 16
PKT_DST_PORT = 24
PKT_PROTO = 32
PKT_SIZE = 40
PKT_TIMESTAMP = 48
HEADER_BYTES = 56


def encode_packet(pkt: Packet) -> bytes:
    """Serialize a packet's parsed view into the VM's packet buffer.

    The buffer is ``pkt.size`` bytes (64 minimum); the first 56 hold
    the 5-tuple and metadata as u64 fields, the rest is zero payload —
    so a program's ``data_end`` guard sees realistic frame lengths.
    """
    buf = bytearray(max(pkt.size, HEADER_BYTES + 8))
    struct.pack_into(
        "<7Q", buf, 0,
        pkt.src_ip, pkt.dst_ip, pkt.src_port, pkt.dst_port,
        pkt.proto, pkt.size, pkt.timestamp_ns & MASK64,
    )
    return bytes(buf)


#: The raw verdict that forwards a packet to the next chain stage.
PASS_R0 = 2


class IrChainNf:
    """An ordered chain of verified IR programs attached as one NF.

    Chain semantics mirror a multi-program XDP pipeline: each stage
    sees the freshly encoded packet; a stage returning ``XDP_PASS``
    (r0 == 2) hands the packet to the next stage, any other verdict is
    final and later stages never run.  The chain's ``returns`` records
    each packet's *final* r0; ``stats`` aggregates VM statistics across
    all executed stages.

    Three backends, bit-identical by contract:

    - ``"interp"`` — a fresh interpreted VM per packet per stage.
    - ``"jit"`` — per-program compiled closures
      (:mod:`repro.ebpf.jit`), still a fresh VM and interpreted glue
      between stages.
    - ``"fused"`` — the whole chain *and* the batch loop compiled into
      one closure (:mod:`repro.ebpf.fuse`) running against a single
      persistent VM; verdict mapping, stats aggregation, and cycle
      charges are folded to per-batch constants.
    """

    def __init__(
        self,
        rt: BpfRuntime,
        progs: Sequence[Union[Program, VerifiedProgram]],
        registry: Optional[KfuncRegistry] = None,
        elide_checks: bool = True,
        seed: int = 0,
        backend: str = "interp",
    ) -> None:
        if not progs:
            raise ValueError("chain needs at least one program")
        self.rt = rt
        self.registry = registry if registry is not None else runnable_registry(seed)
        verifier: Optional[Verifier] = None
        self.verified: List[VerifiedProgram] = []
        for p in progs:
            if isinstance(p, VerifiedProgram):
                self.verified.append(p)
            else:
                if verifier is None:
                    verifier = Verifier(self.registry)
                self.verified.append(verifier.verify(p))
        self.progs = [vp.prog for vp in self.verified]
        self.elide_checks = elide_checks
        if backend not in ("interp", "jit", "fused"):
            raise ValueError(f"unknown backend {backend!r}")
        self.backend = backend
        self.stats = VmStats()
        self.returns: List[int] = []
        if backend == "jit":
            from ..ebpf.jit import compiled_for

            for vp in self.verified:
                compiled_for(self.registry, vp.prog, vp, elide_checks)
        elif backend == "fused":
            from ..ebpf.fuse import fused_for

            # Attach-time fusion (cached by stage hashes): the first
            # batch pays no compile latency.
            self._fused = fused_for(
                self.registry,
                self.verified,
                elide_checks=elide_checks,
                costs=rt.costs,
            )
            #: The persistent VM the fused closure recycles across
            #: stages and packets (sound: the verifier guarantees
            #: initialized-before-read on the stack; pkt/ctx are
            #: refreshed by generated code exactly where needed).
            self._vm = Vm(self.registry, costs=rt.costs)

    def _run_stages(self, packet: Packet) -> int:
        """Interp/jit path: run stages on fresh VMs until a non-PASS
        verdict, aggregating VM stats and charging each stage's
        instruction and performed-check cycles."""
        enc = encode_packet(packet)
        vm_backend = "jit" if self.backend == "jit" else "interp"
        st = self.stats
        rt = self.rt
        r0 = PASS_R0
        for vp in self.verified:
            vm = Vm(
                self.registry,
                packet=enc,
                proofs=vp,
                costs=rt.costs,
                elide_checks=self.elide_checks,
                backend=vm_backend,
            )
            r0 = vm.run(vp.prog)
            s = vm.stats
            st.steps += s.steps
            st.checks_performed += s.checks_performed
            st.checks_elided += s.checks_elided
            st.insn_cycles += s.insn_cycles
            st.check_cycles += s.check_cycles
            rt.charge(s.insn_cycles, Category.OTHER)
            if s.check_cycles:
                rt.charge(s.check_cycles, Category.FRAMEWORK)
            if r0 != PASS_R0:
                break
        return r0

    def process(self, packet: Packet) -> str:
        if self.backend == "fused":
            self._fused.fn(self, (packet,))
            r0 = self.returns[-1]
        else:
            r0 = self._run_stages(packet)
            self.returns.append(r0)
        return XDP_RETURN_CODES.get(r0, XdpAction.ABORTED)

    def process_batch(self, batch: Sequence[Packet]) -> Dict[str, int]:
        """Batched chain replay; with ``backend="fused"`` the whole
        batch runs inside the fused closure — one Python call per
        batch, raw verdicts mapped to actions once per distinct r0."""
        if self.backend == "fused":
            raw = self._fused.fn(self, batch)
        else:
            run = self._run_stages
            append = self.returns.append
            raw = {}
            for pkt in batch:
                r0 = run(pkt)
                append(r0)
                raw[r0] = raw.get(r0, 0) + 1
        counts: Dict[str, int] = {}
        for r0, n in raw.items():
            action = XDP_RETURN_CODES.get(r0, XdpAction.ABORTED)
            counts[action] = counts.get(action, 0) + n
        return counts


class IrNf(IrChainNf):
    """One verified IR program attached to the XDP pipeline as an NF:
    a one-stage :class:`IrChainNf` that keeps the program as ``prog``.

    Each packet gets a fresh VM (programs see no cross-packet state
    except what kfuncs carry in the registry closure); cycles are
    charged to ``rt.cycles`` — interpreted instructions to
    ``Category.OTHER``, *performed* safety checks to
    ``Category.FRAMEWORK``, so the elision win shows up exactly where
    the cost model books framework overhead.  ``backend="jit"`` runs
    the program's compiled closure (:mod:`repro.ebpf.jit`) instead of
    the interpreter loop — same outputs, stats and cycle charges, bit
    for bit.
    """

    def __init__(
        self,
        rt: BpfRuntime,
        prog: Union[Program, VerifiedProgram],
        registry: Optional[KfuncRegistry] = None,
        elide_checks: bool = True,
        seed: int = 0,
        backend: str = "interp",
    ) -> None:
        super().__init__(
            rt,
            [prog],
            registry=registry,
            elide_checks=elide_checks,
            seed=seed,
            backend=backend,
        )
        self.prog = self.progs[0]
