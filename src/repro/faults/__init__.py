"""Deterministic fault injection for the simulated data plane.

Real XDP programs cannot crash: helper failures surface as error codes
(``bpf_map_update_elem`` returns ``-E2BIG``/``-ENOMEM``, a failed
``bpf_map_lookup_elem`` returns NULL), malformed packets become
``XDP_ABORTED`` counted by the kernel's ``xdp_exception`` tracepoint,
and the NF keeps forwarding.  This module reproduces that fault model
so the rest of the data plane can be hardened against it — and so
resilience can be *measured* (the fault-rate sweep and watchdog
contracts in ``tests/net/test_resilience.py``).

Two pieces:

- :class:`FaultPlan` — a declarative, **seed-driven** schedule of
  faults: per-kind rates for packet-level faults (drop / corruption /
  truncation / duplication), helper error returns, map-update failures
  (E2BIG / ENOMEM), plus optional core-level faults (crash or wedge one
  core at a packet index).  Plans are frozen and hashable; the same
  plan always yields the same faults, bit for bit.
- :class:`FaultInjector` — one plan instantiated for one core.  The
  data plane screens each batch with one call ("which of these next
  ``n`` packets fault?", :meth:`FaultInjector.screen`) and asks per
  event only where events are sparse ("does this map update fail?").
  Every answer comes from a counter-indexed hash of the seed, so the
  schedule is independent of *when* and *in what grouping* the
  questions are asked, and reproducible across runs, cores, and
  replay paths (per-packet :meth:`~repro.net.xdp.XdpPipeline.run` and
  batched :meth:`~repro.net.xdp.XdpPipeline.run_batch` see identical
  faults).

How injected faults map to the real system:

====================  =================================================
fault kind            real-world counterpart
====================  =================================================
``pkt_drop``          NIC/ring drop before the XDP hook (rx_dropped)
``pkt_corrupt``       bit-flipped frame: parse fails -> XDP_ABORTED
``pkt_truncate``      runt frame / bad length: parse fails -> ABORTED
``pkt_dup``           link-level retransmit duplicates the frame
``helper``            helper error return (lookup NULL / -EINVAL)
``map_full``          ``bpf_map_update_elem`` -> -E2BIG (map full)
``map_nomem``         ``bpf_map_update_elem`` -> -ENOMEM (alloc fail)
``core_crash``        worker/core death (watchdog sees it immediately)
``core_wedge``        wedged core: stops consuming; watchdog deadline
====================  =================================================

Chaos runs from the shell go through the data-plane CLI,
``python -m repro.net.replay --rate ...``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Tuple

from ..core.algorithms.hashing import M32, M64, fast_hash32

# -- fault kinds ------------------------------------------------------------

PKT_DROP = "pkt_drop"
PKT_CORRUPT = "pkt_corrupt"
PKT_TRUNCATE = "pkt_truncate"
PKT_DUP = "pkt_dup"
HELPER = "helper"
MAP_FULL = "map_full"
MAP_NOMEM = "map_nomem"
CORE_CRASH = "core_crash"
CORE_WEDGE = "core_wedge"

#: Packet-level kinds in evaluation-precedence order: a dropped packet
#: cannot also be corrupted; corruption shadows truncation, etc.
PACKET_KINDS = (PKT_DROP, PKT_CORRUPT, PKT_TRUNCATE, PKT_DUP)

#: All rate-driven kinds (core faults are point events, not rates).
RATE_KINDS = PACKET_KINDS + (HELPER, MAP_FULL, MAP_NOMEM)

#: The errno a fault kind surfaces as in the real system.
ERRNO = {
    MAP_FULL: ("E2BIG", -7),
    MAP_NOMEM: ("ENOMEM", -12),
    HELPER: ("EINVAL", -22),
}

#: Per-kind salt decorrelating the decision streams of one seed.
_KIND_SALT = {kind: 0x9E3779B9 * (i + 1) & 0xFFFFFFFF
              for i, kind in enumerate(RATE_KINDS)}


class HelperFaultError(RuntimeError):
    """An injected helper error return (``-EINVAL`` / NULL lookup)."""

    errno = -22


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible schedule of injected faults.

    Rates are per-event probabilities in [0, 1]; every decision derives
    from ``seed``, so two plans with equal fields produce bit-identical
    fault schedules.  ``crash_core``/``wedge_core`` name one core that
    dies (resp. stops consuming) after processing ``crash_at`` /
    ``wedge_at`` packets of its own queue.
    """

    seed: int = 0
    drop_rate: float = 0.0
    corrupt_rate: float = 0.0
    truncate_rate: float = 0.0
    dup_rate: float = 0.0
    helper_rate: float = 0.0
    map_full_rate: float = 0.0
    map_nomem_rate: float = 0.0
    crash_core: Optional[int] = None
    crash_at: int = 0
    wedge_core: Optional[int] = None
    wedge_at: int = 0

    def __post_init__(self) -> None:
        for name, value in self.rates().items():
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        for name in ("crash_at", "wedge_at"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        for name in ("crash_core", "wedge_core"):
            core = getattr(self, name)
            if core is not None and core < 0:
                raise ValueError(
                    f"{name} must be a non-negative core index, got {core} "
                    f"(use None for no {name.split('_')[0]})"
                )
        if (
            self.crash_core is not None
            and self.crash_core == self.wedge_core
        ):
            raise ValueError(
                f"core {self.crash_core} cannot both crash and wedge: a "
                "crashed worker is detectably dead, a wedged one is not — "
                "pick one fault per core (crash_core and wedge_core may "
                "name different cores)"
            )

    @classmethod
    def uniform(cls, rate: float, seed: int = 0, **overrides) -> "FaultPlan":
        """Split an aggregate fault ``rate`` evenly across the six
        recoverable kinds (packet drop/corrupt/truncate/dup, helper
        errors, map-full) — the "1% injected fault rate" spelling."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        share = rate / 6.0
        params = dict(
            seed=seed,
            drop_rate=share,
            corrupt_rate=share,
            truncate_rate=share,
            dup_rate=share,
            helper_rate=share,
            map_full_rate=share,
        )
        params.update(overrides)
        return cls(**params)

    def rates(self) -> Dict[str, float]:
        return {
            PKT_DROP: self.drop_rate,
            PKT_CORRUPT: self.corrupt_rate,
            PKT_TRUNCATE: self.truncate_rate,
            PKT_DUP: self.dup_rate,
            HELPER: self.helper_rate,
            MAP_FULL: self.map_full_rate,
            MAP_NOMEM: self.map_nomem_rate,
        }

    @property
    def any_rate(self) -> bool:
        return any(r > 0.0 for r in self.rates().values())

    def injector(self, core: int = 0) -> "FaultInjector":
        """A fresh injector for ``core`` (per-core decorrelated seed)."""
        return FaultInjector(self, core=core)

    def validate_for_cores(self, n_cores: int) -> None:
        """Reject core-level faults naming cores the fleet doesn't have.

        The plan itself doesn't know the fleet size, so this runs where
        the two meet (:class:`~repro.net.multicore.RssDispatcher` and
        the SLO controller call it at attach time) — a crash scheduled
        on core 9 of an 8-core fleet would otherwise silently never
        fire.
        """
        if n_cores <= 0:
            raise ValueError("n_cores must be positive")
        for name in ("crash_core", "wedge_core"):
            core = getattr(self, name)
            if core is not None and core >= n_cores:
                raise ValueError(
                    f"{name}={core} names a nonexistent core: the fleet "
                    f"has cores 0..{n_cores - 1}"
                )

    def crash_point(self, core: int) -> Optional[int]:
        """Packet index at which ``core`` dies, or None."""
        if self.crash_core is not None and core == self.crash_core:
            return self.crash_at
        return None

    def wedge_point(self, core: int) -> Optional[int]:
        """Packet index at which ``core`` stops consuming, or None."""
        if self.wedge_core is not None and core == self.wedge_core:
            return self.wedge_at
        return None

    def schedule(self, kind: str, n_events: int, core: int = 0):
        """Event indices in [0, n_events) at which ``kind`` fires.

        A pure function of the plan — used by determinism tests and for
        reasoning about a replay without running it.
        """
        injector = FaultInjector(self, core)
        return [i for i in range(n_events) if injector._fires(kind)]

    def describe(self) -> Dict[str, object]:
        """Plan as a plain dict (benchmark / CLI metadata)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _core_seed(seed: int, core: int) -> int:
    """Decorrelate per-core decision streams of one plan seed."""
    if core == 0:
        return seed
    return fast_hash32(core, seed ^ 0xFA017)


class FaultInjector:
    """One core's live view of a :class:`FaultPlan`.

    Stateful only in its per-kind event counters; every answer is the
    deterministic ``(seed, kind, index)`` hash, so identical plans
    produce identical fault sequences.  The data plane attaches one
    injector per core: :class:`~repro.net.xdp.XdpPipeline` draws each
    batch's packet and helper decisions with one :meth:`screen` call,
    and the simulated BPF maps consult :meth:`map_update_fault` per
    update through ``rt.faults``.  ``screen(n)`` is ``n`` rounds of
    :meth:`packet_fault` + :meth:`helper_fault`, and every decision is
    one :meth:`_fires` call, so hooks on the per-event methods see
    every draw.
    """

    def __init__(self, plan: FaultPlan, core: int = 0) -> None:
        self.plan = plan
        self.core = core
        self._seed = _core_seed(plan.seed, core)
        self._base = (self._seed + 1) * 0x9E3779B97F4A7C15
        rates = plan.rates()
        #: kind -> [events drawn, rate * 2**32, salt]
        self._streams: Dict[str, list] = {
            kind: [0, rates[kind] * 4294967296.0, _KIND_SALT[kind]]
            for kind in RATE_KINDS
        }
        #: Injected-fault counts by kind (the chaos report's ledger).
        self.injected: Counter = Counter()

    def _fires(self, kind: str) -> bool:
        """Advance ``kind``'s event counter and decide this event: the
        one fault-decision primitive.

        Event ``index`` fires when ``fast_hash32((index << 7) ^ salt,
        seed)``, read as a uniform draw in [0, 1), falls below the
        kind's rate.  Indexed hashing (not a stateful PRNG) makes the
        schedule a pure function of ``(seed, kind, index)``: the n-th
        packet faults the same way no matter which core asks first, how
        events interleave with other fault kinds, or how the events are
        grouped into :meth:`screen` calls.  The splitmix64 rounds of
        :func:`~repro.core.algorithms.hashing.fast_hash64` are inlined
        and the draw is compared as an integer against ``rate * 2**32``
        (both scalings are exact), so a draw costs one call.
        """
        stream = self._streams[kind]
        idx, threshold, salt = stream
        stream[0] = idx + 1
        if threshold <= 0.0:
            return False
        x = (((idx << 7) ^ salt) + self._base) & M64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & M64
        # The low 32 bits read below depend only on the low 63 bits of
        # this product, so it is left unmasked.
        x = (x ^ (x >> 27)) * 0x94D049BB133111EB
        return ((x ^ (x >> 31)) & M32) < threshold

    def screen(self, n: int) -> List[Tuple[int, Optional[str], bool]]:
        """Draw the next ``n`` packets' packet and helper faults at once.

        Returns ``(offset, packet_fault, helper_fault)`` for each packet
        that drew either, in packet order; the packets not listed are
        clean.  It is ``n`` rounds of :meth:`packet_fault` +
        :meth:`helper_fault`, so decisions, counters and
        :attr:`injected` end exactly as those rounds leave them.
        """
        packet_fault, helper_fault = self.packet_fault, self.helper_fault
        hits = []
        for i in range(n):
            kind = packet_fault()
            helper = helper_fault()
            if helper or kind is not None:
                hits.append((i, kind, helper))
        return hits

    def packet_fault(self) -> Optional[str]:
        """The fault afflicting the next packet, if any.

        Every packet advances all four packet-kind streams (so the
        schedule of each kind is independent of the others' outcomes);
        the highest-precedence firing kind wins and is the only one
        counted as injected.
        """
        hit = None
        for kind in PACKET_KINDS:
            if self._fires(kind) and hit is None:
                hit = kind
        if hit is not None:
            self.injected[hit] += 1
        return hit

    def helper_fault(self) -> bool:
        """Does the next helper-call opportunity fail?"""
        if self._fires(HELPER):
            self.injected[HELPER] += 1
            return True
        return False

    def map_update_fault(self, map_name: str = "") -> Optional[Exception]:
        """The error the next map update fails with, or None.

        Returns an exception *instance* (``MapFullError`` for -E2BIG,
        ``MapNoMemError`` for -ENOMEM) for the map layer to raise, so
        callers see exactly the error a real ``bpf_map_update_elem``
        would return.
        """
        full = self._fires(MAP_FULL)
        nomem = self._fires(MAP_NOMEM)
        if full:
            from ..ebpf.maps import MapFullError

            self.injected[MAP_FULL] += 1
            return MapFullError(
                f"{map_name or 'map'}: injected -E2BIG (map full)"
            )
        if nomem:
            from ..ebpf.maps import MapNoMemError

            self.injected[MAP_NOMEM] += 1
            return MapNoMemError(
                f"{map_name or 'map'}: injected -ENOMEM (allocation failed)"
            )
        return None

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def describe(self) -> Dict[str, object]:
        return {
            "core": self.core,
            "injected": dict(self.injected),
            "events_seen": {kind: s[0] for kind, s in self._streams.items()},
        }


@dataclass(frozen=True)
class WedgeDetection:
    """Probabilistic wedge-detection latency (the watchdog's reality).

    PR 3's watchdog declared a wedged core dead after a *fixed* number
    of lost packets.  Real detectors (missed heartbeats, stall
    samplers, queue-depth probes) have a detection-latency
    *distribution*: memoryless checks mean the time-to-detect is
    (shifted-)exponentially distributed around the detector's period.
    This model draws each core's detection deadline — in lost packets,
    the unit the watchdog counts — from

    ``deadline(core) = min + Exp(mean - min)``

    using the same counter-indexed hashing as every other fault
    stream, so a given ``(seed, core)`` always detects after the same
    backlog, bit for bit, while different cores (and seeds) see
    realistically spread detection latencies.  ``mean`` is the knob
    comparable to PR 3's fixed deadline; ``min_packets`` is the floor
    no detector can beat (you cannot notice a stall before anything
    is missing).
    """

    mean_packets: int = 1024
    min_packets: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.min_packets <= 0:
            raise ValueError(
                f"min_packets must be positive, got {self.min_packets}"
            )
        if self.mean_packets < self.min_packets:
            raise ValueError(
                f"mean_packets ({self.mean_packets}) must be >= "
                f"min_packets ({self.min_packets})"
            )

    def deadline_for(self, core: int) -> int:
        """Lost packets before ``core``'s wedge is declared (>= 1)."""
        if core < 0:
            raise ValueError("core must be non-negative")
        if self.mean_packets == self.min_packets:
            return self.min_packets
        h = fast_hash32((core << 9) ^ 0xDE7EC7, self.seed)
        u = (h + 0.5) / 4294967296.0
        spread = self.mean_packets - self.min_packets
        return self.min_packets + int(-math.log(1.0 - u) * spread)

    def describe(self) -> Dict[str, object]:
        return {
            "mean_packets": self.mean_packets,
            "min_packets": self.min_packets,
            "seed": self.seed,
        }


__all__ = [
    "CORE_CRASH",
    "CORE_WEDGE",
    "ERRNO",
    "FaultInjector",
    "FaultPlan",
    "WedgeDetection",
    "HELPER",
    "HelperFaultError",
    "MAP_FULL",
    "MAP_NOMEM",
    "PACKET_KINDS",
    "PKT_CORRUPT",
    "PKT_DROP",
    "PKT_DUP",
    "PKT_TRUNCATE",
    "RATE_KINDS",
]
