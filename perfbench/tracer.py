"""Layer tracing from outside the simulator.

The traced run wraps the public entry points at each layer boundary —
class, instance and module attributes, patched from here and restored
afterwards; nothing under ``src/`` changes.  A wrapped call either
records a **span** (name, start, end, parent) or, for per-packet
boundaries (steering, fault draws, RX-ring operations, NF ``process``),
only adds to its layer's call count and time.  Both feed the same call
stack, so every layer's *self time* — its time minus the time its
children covered — is exact whichever way its children were recorded.

Hash functions and ``BpfRuntime.charge`` get count-only wrappers: they
run several times per packet and a clock read would cost more than
the call.

Spans stay in memory; :meth:`Tracer.dump` writes them out at the end.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

from spec import EXPERIMENTS

_MISSING = object()

#: The experiment each ``run_experiments`` subtask belongs to.
_SUBTASK_EXPERIMENT = {
    "fig3a_skiplist_lookup": "fig3a",
    "fig3b_skiplist_update_delete": "fig3b",
    "fig3c_cuckoo_switch": "fig3c",
    "fig3d_nitrosketch": "fig3d",
    "fig3e_countmin": "fig3e",
    "fig3f_timewheel": "fig3f",
    "fig3g_cuckoo_filter": "fig3g",
    "fig3h_eiffel": "fig3h",
    "fig1_behavior_shares": "fig1",
    "fig7_apps": "fig7",
}


class Tracer:
    def __init__(self) -> None:
        self.clock = time.perf_counter
        #: [name, start, end, parent span index or -1]
        self.spans: List[list] = []
        self.calls: Counter = Counter()
        self.items: Counter = Counter()
        self.counts: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.wall_s: Dict[str, float] = defaultdict(float)
        self.region_s = 0.0
        self.covered_s = 0.0
        self._stack: List[list] = []          # frames: [child_s, span id]
        self._depth: Counter = Counter()
        self._undo: List[tuple] = []

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr: str, make: Callable) -> None:
        saved = vars(owner).get(attr, _MISSING)
        setattr(owner, attr, make(getattr(owner, attr)))
        self._undo.append((owner, attr, saved))

    def restore(self) -> None:
        """Put every patched attribute back, last patch first."""
        while self._undo:
            owner, attr, saved = self._undo.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    def timed(
        self,
        owner,
        attr: str,
        layer,
        span: bool = True,
        hook: Optional[Callable] = None,
    ) -> None:
        """Time calls of ``owner.attr`` as ``layer``.

        ``layer`` is a name or a function of the call's arguments that
        returns one.  ``hook(args)`` may return a callable that receives
        the call's result (for counting items, cycles, outcomes).
        """
        stack, depth, spans = self._stack, self._depth, self.spans
        calls, self_s, wall_s = self.calls, self.self_s, self.wall_s
        clock = self.clock
        name_of = layer if callable(layer) else None

        def make(fn):
            def traced(*args, **kwargs):
                name = name_of(args) if name_of is not None else layer
                parent = stack[-1][1] if stack else -1
                sid = parent
                if span:
                    sid = len(spans)
                    spans.append([name, 0.0, 0.0, parent])
                frame = [0.0, sid]
                stack.append(frame)
                depth[name] += 1
                after = hook(args) if hook is not None else None
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    depth[name] -= 1
                    d = t1 - t0
                    calls[name] += 1
                    self_s[name] += d - frame[0]
                    if not depth[name]:
                        wall_s[name] += d
                    if stack:
                        stack[-1][0] += d
                    if span:
                        spans[sid][1] = t0
                        spans[sid][2] = t1
                if after is not None:
                    after(result)
                return result

            return traced

        self._patch(owner, attr, make)

    def counted(self, owner, attr: str, key: str) -> None:
        """Count calls of ``owner.attr`` (no clock reads)."""
        counts = self.counts

        def make(fn):
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return counted

        self._patch(owner, attr, make)

    # -- the timed region ---------------------------------------------------------

    def region(self, fn: Callable, *args):
        """Run ``fn(*args)`` as the timed region; top-level layer time
        inside it counts as covered."""
        frame = [0.0, -1]
        self._stack.append(frame)
        t0 = self.clock()
        try:
            return fn(*args)
        finally:
            self.region_s += self.clock() - t0
            self._stack.pop()
            self.covered_s += frame[0]

    # -- output -------------------------------------------------------------------

    def dump(self, path: str, meta: Dict[str, object]) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    **meta,
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "spans": self.spans,
                },
                fh,
            )


# -- the layer boundaries -------------------------------------------------------------


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    import repro.analysis.paper_targets as paper_targets
    import repro.analysis.parallel as parallel
    import repro.apps.ir as apps_ir
    import repro.core.algorithms.hashing as hashing
    import repro.ebpf.fuse as fuse
    from repro.apps.base import BaseApp
    from repro.apps.ir import KatranState
    from repro.ebpf.runtime import BpfRuntime
    from repro.ebpf.verifier import Verifier
    from repro.faults import FaultInjector
    from repro.net.irnf import IrChainNf, IrNf
    from repro.net.multicore import RssDispatcher
    from repro.net.queueing import CoreQueue
    from repro.net.slo import IndirectionTable, SloController
    from repro.net.steering import NtupleSteering, RssSteering
    from repro.net.xdp import ReplaySession, XdpPipeline
    from repro.nfs.base import BaseNF

    t = tracer
    counts = t.counts

    # Set-up: verification, fusion, per-core app registries.
    def verified(args):
        return lambda vp: counts.update(
            {"verifier.states": vp.states_explored}
        )

    t.timed(Verifier, "verify", "verifier", hook=verified)
    t.timed(fuse, "fused_for", "fuse")
    t.timed(apps_ir, "ir_registry", "apps.registry")

    # Dispatch: steering, fault draws, RX rings, the dispatch loops.
    for cls in (RssSteering, NtupleSteering):
        t.timed(cls, "queue_of", "steering", span=False)
    t.timed(IndirectionTable, "core_of", "steering", span=False)
    t.counted(IndirectionTable, "repack", "slo.repacks")

    def injected(args):
        return lambda hit: hit and counts.update({"faults.injected": 1})

    for attr in ("packet_fault", "helper_fault", "map_update_fault"):
        t.timed(FaultInjector, attr, "faults", span=False, hook=injected)
    t.counted(FaultInjector, "_fires", "faults.draws")

    def offered(args):
        return lambda ok: counts.update(
            {"queueing.offers": 1, "queueing.overflow": 0 if ok else 1}
        )

    def taken(args):
        def after(result):
            counts["queueing.batches"] += 1
            counts["queueing.taken"] += len(result[0])

        return after

    t.timed(CoreQueue, "offer", "queueing", span=False, hook=offered)
    t.timed(CoreQueue, "take", "queueing", span=False, hook=taken)
    for attr in ("complete", "drain"):
        t.timed(CoreQueue, attr, "queueing", span=False)
    t.timed(RssDispatcher, "run", "multicore")
    t.timed(SloController, "run", "slo")

    # Replay glue and accounting.
    def fed(args):
        t.items["xdp"] += len(args[1])

    t.timed(ReplaySession, "feed", "xdp", hook=fed)
    t.timed(ReplaySession, "finish", "accounting")
    t.timed(XdpPipeline, "run", "xdp.run")

    # NF closures: verified IR chains, then the Python NFs and apps.
    def ir_work(size):
        def hook(args):
            nf = args[0]
            before = nf.rt.cycles.total
            t.items["irnf"] += size(args)
            return lambda result: counts.update(
                {"irnf.cycles": nf.rt.cycles.total - before}
            )

        return hook

    for cls in (IrChainNf, IrNf):
        t.timed(cls, "process_batch", "irnf",
                hook=ir_work(lambda args: len(args[1])))
        t.timed(cls, "process", "irnf", span=False,
                hook=ir_work(lambda args: 1))
    for cls in _subclasses(BaseNF) + _subclasses(BaseApp):
        for attr in ("process", "process_batch"):
            if attr in vars(cls):
                t.timed(cls, attr, "nfs", span=(attr == "process_batch"))

    # Control plane.
    t.timed(KatranState, "fail_real", "apps.fail_real")

    # Per-packet library work: hashes and cycle charges (counts only).
    # fast_hash32 calls the module-global fast_hash64, so patching
    # every binding of fast_hash64 and crc_hash32 counts each hash once.
    originals = {a: getattr(hashing, a) for a in ("fast_hash64", "crc_hash32")}
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, fn in originals.items():
            if getattr(module, attr, None) is fn:
                t.counted(module, attr, "core.hash_calls")
    t.counted(BpfRuntime, "charge", "runtime.charges")

    # paper_check: one span per experiment.
    def experiment(args):
        fn_name, kwargs = args[0]
        exp = _SUBTASK_EXPERIMENT.get(fn_name) or kwargs.get("name", fn_name)
        return f"analysis.{exp}"

    t.timed(parallel, "_run_subtask", experiment)
    for attr, exp in (
        ("table2_improvements", "table2"),
        ("fig6_interface_comparison", "fig6"),
        ("survey_summary", "table1"),
    ):
        t.timed(paper_targets, attr, f"analysis.{exp}")


def _subclasses(cls) -> List[type]:
    out, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


def layer_metrics(
    tracer: Tracer, packets: int, modeled: Dict[str, float]
) -> Dict[str, float]:
    """The per-layer metrics of one traced pass (see ``spec.PER_LAYER``)."""
    t, c = tracer, tracer.counts
    calls, wall, self_s, items = t.calls, t.wall_s, t.self_s, t.items

    def per(num, den):
        return num / den if den else 0.0

    out = {
        "verifier.calls": calls["verifier"],
        "verifier.wall_s": wall["verifier"],
        "verifier.states": c["verifier.states"],
        "fuse.calls": calls["fuse"],
        "fuse.wall_s": wall["fuse"],
        "apps.registry_s": wall["apps.registry"],
        "steering.calls": calls["steering"],
        "steering.wall_s": wall["steering"],
        "faults.draws": c["faults.draws"],
        "faults.wall_s": wall["faults"],
        "faults.injected": c["faults.injected"],
        "queueing.offers": c["queueing.offers"],
        "queueing.batches": c["queueing.batches"],
        "queueing.pkts_per_batch": per(c["queueing.taken"],
                                       c["queueing.batches"]),
        "queueing.wall_s": wall["queueing"],
        "queueing.overflow": c["queueing.overflow"],
        "multicore.self_s": self_s["multicore"],
        "slo.self_s": self_s["slo"],
        "slo.repacks": c["slo.repacks"],
        "xdp.feeds": calls["xdp"],
        "xdp.pkts_per_feed": per(items["xdp"], calls["xdp"]),
        "xdp.self_s": self_s["xdp"],
        "xdp.run_calls": calls["xdp.run"],
        "xdp.run_s": wall["xdp.run"],
        "irnf.calls": calls["irnf"],
        "irnf.wall_s": wall["irnf"],
        "irnf.host_ns_per_pkt": per(wall["irnf"] * 1e9, items["irnf"]),
        "irnf.model_cycles_per_pkt": per(c["irnf.cycles"], items["irnf"]),
        "nfs.calls": calls["nfs"],
        "nfs.wall_s": wall["nfs"],
        "core.hash_calls_per_pkt": per(c["core.hash_calls"], packets),
        "runtime.charges_per_pkt": per(c["runtime.charges"], packets),
        "apps.fail_real_s": wall["apps.fail_real"],
        "accounting.wall_s": wall["accounting"],
        "trace.coverage": per(t.covered_s, t.region_s),
    }
    for exp in EXPERIMENTS:
        out[f"analysis.{exp}.wall_s"] = wall[f"analysis.{exp}"]
    for key in (
        "steering.imbalance", "multicore.resteered", "slo.epochs",
        "slo.scale_events", "apps.ring_slots_moved",
    ):
        out[key] = modeled.get(key, 0)
    return out
