"""Widening-based loop verification: end-to-end contracts.

The two bundled data-dependent-loop programs (``loop_pkt_search``,
``loop_lpm_walk``) are the acceptance witnesses for PR 9: the seed
verifier (``widen="off"``) rejects both by state explosion, the
widening verifier accepts both in O(1) abstract states, the proofs
that survive widening still elide runtime checks, and the programs run
bit-identically through :class:`~repro.net.irnf.IrNf` on both
backends.
"""

import pytest

from repro.ebpf.insn import Alu, Imm, Program, R8
from repro.ebpf.jit import compile_program
from repro.ebpf.kfunc_meta import default_registry
from repro.ebpf.progs import bundled_cases, get_case, runnable_registry
from repro.ebpf.verifier import (
    MAX_FIXPOINT_ITERS,
    Verifier,
    VerifierError,
    WIDEN_AFTER_TRIPS,
)
from repro.net.packet import Packet
from repro.net.irnf import IrNf
from repro.ebpf.runtime import BpfRuntime

from tests.speed import best_of, timed

DATA_LOOPS = ("loop_pkt_search", "loop_lpm_walk")


@pytest.fixture(scope="module")
def registry():
    return default_registry()


def _pkt(**kw) -> Packet:
    defaults = dict(src_ip=0x0A000001, dst_ip=0x0A000002,
                    src_port=1234, dst_port=80)
    defaults.update(kw)
    return Packet(**defaults)


class TestBundledDataLoops:
    @pytest.mark.parametrize("name", DATA_LOOPS)
    def test_seed_rejects(self, registry, name):
        """The exact programs now shipped were unverifiable before
        widening: per-trip enumeration blows the state budget."""
        with pytest.raises(VerifierError, match="state limit"):
            Verifier(registry, widen="off").verify(get_case(name).prog)

    @pytest.mark.parametrize("name", DATA_LOOPS)
    def test_widening_accepts_in_constant_states(self, registry, name):
        vp = Verifier(registry).verify(get_case(name).prog)
        st = vp.stats
        assert st.loops_widened == 1
        assert 0 < st.fixpoint_iters < MAX_FIXPOINT_ITERS
        # O(1) abstract states: far below one state per trip (the
        # data-dependent bound is 16383) and below the widening trip
        # threshold itself.
        assert st.states_explored < WIDEN_AFTER_TRIPS
        assert st.states_explored <= 64
        assert len(vp.loop_invariants) == 1
        (inv,) = vp.loop_invariants.values()
        assert inv.trip_bound == 16385  # 0x3fff bound, +2 slack

    def test_proofs_survive_widening(self, registry):
        """The elisions the widened invariant can still justify are
        kept — the Kops lesson: an analysis extension only pays off if
        the downstream proofs survive it."""
        vp = Verifier(registry).verify(get_case("loop_pkt_search").prog)
        # In-loop guarded packet load at pc 17 stays elided.
        assert 17 in vp.annotations.safe_mem
        vp = Verifier(registry).verify(get_case("loop_lpm_walk").prog)
        # In-loop division by the loop-invariant nonzero radix.
        assert 13 in vp.annotations.safe_div

    @pytest.mark.parametrize("name", DATA_LOOPS)
    def test_widened_loops_are_not_unrolled(self, registry, name):
        """Widened back-edges carry no constant trip count, so they
        must stay out of ``loop_bounds`` (the JIT's unroll driver) and
        flow through the guarded dispatch loop instead."""
        vp = Verifier(registry).verify(get_case(name).prog)
        assert not vp.annotations.loop_bounds
        assert vp.widened_steps > 0
        assert vp.max_steps > vp.widened_steps  # base budget still there
        compiled = compile_program(
            get_case(name).prog, vp, runnable_registry(0), elide_checks=True
        )
        assert compiled.unrolled == {}

    @pytest.mark.parametrize("name", DATA_LOOPS)
    def test_irnf_interp_jit_parity(self, registry, name):
        """Bit-identical verdicts and accounting through the NF layer,
        across packets that drive different trip counts."""
        vp = Verifier(registry).verify(get_case(name).prog)
        pkts = [
            _pkt(),                                  # tiny loop bounds
            _pkt(src_ip=0xDEAD0007, dst_ip=0x00000FFF),
            _pkt(src_ip=0x00000000, dst_ip=0x00000000),  # zero-trip walk
            _pkt(src_ip=0x12345678, dst_ip=0x0BAD0FAD),
            _pkt(src_ip=0xFFFFFFFF, dst_ip=0xFFFFFFFF, size=128),
        ]
        results = {}
        for backend in ("interp", "jit"):
            rt = BpfRuntime()
            nf = IrNf(rt, vp, registry=runnable_registry(0), backend=backend)
            actions = nf.process_batch(pkts)
            results[backend] = (
                tuple(nf.returns), dict(actions), nf.stats.steps,
                nf.stats.checks_performed, nf.stats.checks_elided,
                nf.stats.insn_cycles, nf.stats.check_cycles,
            )
            assert set(nf.returns) <= {1, 2}, nf.returns
        assert results["interp"] == results["jit"]


def _search_prog(mask: int) -> Program:
    """``loop_pkt_search`` with its bound mask (insn 7, ``r8 &= 0x3fff``)
    narrowed: small masks keep the seed verifier's per-trip enumeration
    inside the state budget, so seed and widened verification both
    accept."""
    insns = list(get_case("loop_pkt_search").prog)
    assert insns[7] == Alu("and", R8, Imm(0x3FFF))
    insns[7] = Alu("and", R8, Imm(mask))
    return Program(insns, name=f"search_{mask:#x}")


def _proofs(vp) -> set:
    return ({("mem", pc) for pc in vp.annotations.safe_mem}
            | {("div", pc) for pc in vp.annotations.safe_div})


def _verify_or_none(verifier, prog):
    try:
        return verifier.verify(prog)
    except VerifierError:
        return None


class TestVerifyTimeScaling:
    """A mask ladder over the bounded linear search.  Every rung's trip
    bound exceeds ``WIDEN_AFTER_TRIPS``, so auto mode widens it, while
    the seed verifier still accepts by enumerating each trip."""

    MASKS = (0xFF, 0x1FF, 0x3FF)

    @pytest.fixture(scope="class")
    def ladder(self, registry):
        return [
            (Verifier(registry, widen="off").verify(_search_prog(mask)),
             Verifier(registry).verify(_search_prog(mask)))
            for mask in self.MASKS
        ]

    def test_every_rung_widens_without_losing_proofs(self, ladder):
        for seed, widened in ladder:
            assert widened.stats.loops_widened == 1
            assert _proofs(seed) <= _proofs(widened)

    def test_seed_states_grow_while_widened_states_stay_flat(self, ladder):
        seed_states = [seed.stats.states_explored for seed, _ in ladder]
        assert seed_states == sorted(set(seed_states))
        widened = [w.stats.states_explored for _, w in ladder]
        assert max(widened) <= 2 * min(widened)
        assert seed_states[-1] >= 10 * widened[-1]

    def test_widening_verifies_faster_at_largest_rung(self, registry):
        """Best of 3 per mode on the 0x3ff rung."""
        prog = _search_prog(self.MASKS[-1])

        def rep(widen):
            seconds, vp = timed(Verifier(registry, widen=widen).verify, prog)
            return seconds, vp.stats.states_explored

        seed_s, _ = best_of(lambda: rep("off"))
        widened_s, _ = best_of(lambda: rep("auto"))
        assert seed_s / widened_s > 1.0


def test_widen_always_ablation_over_bundled_corpus(registry):
    """Widening every back-edge target never accepts a program the
    precise verifier rejects, keeps most accepts, and keeps at least
    half of their proofs."""
    kept = lost = survived = total = 0
    for case in bundled_cases():
        base = _verify_or_none(Verifier(registry), case.prog)
        wide = _verify_or_none(Verifier(registry, widen="always"), case.prog)
        if base is None:
            assert wide is None, case.name
        elif wide is None:
            lost += 1
        else:
            kept += 1
            survived += len(_proofs(base) & _proofs(wide))
            total += len(_proofs(base))
    assert kept >= lost
    assert total == 0 or survived / total >= 0.5


class TestWidenModes:
    def test_off_matches_seed_on_counted_loop(self, registry):
        """``widen="off"`` is the seed verifier: constant-trip loops
        still verify by per-trip enumeration, no fixpoint machinery."""
        vp = Verifier(registry, widen="off").verify(
            get_case("loop_counted").prog)
        assert vp.stats.loops_bounded == 1
        assert vp.stats.loops_widened == 0
        assert vp.stats.fixpoint_iters == 0
        assert not vp.loop_invariants

    def test_auto_leaves_small_loops_alone(self, registry):
        """Loops under the trip threshold keep the precise per-trip
        analysis (and with it, JIT unrolling)."""
        vp = Verifier(registry).verify(get_case("loop_counted").prog)
        assert vp.stats.loops_widened == 0
        assert vp.annotations.loop_bounds  # unroll info preserved

    def test_always_mode_widens_counted_loop(self, registry):
        """The ablation mode widens every back-edge target: the same
        16-trip loop verifies in fewer states through one invariant."""
        auto = Verifier(registry).verify(get_case("loop_counted").prog)
        always = Verifier(registry, widen="always").verify(
            get_case("loop_counted").prog)
        assert always.stats.loops_widened == 1
        assert always.stats.fixpoint_iters > 0
        assert always.stats.states_explored < auto.stats.states_explored

    def test_invalid_mode_rejected(self, registry):
        with pytest.raises(ValueError, match="widen"):
            Verifier(registry, widen="sometimes")


class TestDiagnostics:
    def test_no_progress_loop_explains_itself(self, registry):
        """A loop whose body makes no provable progress is rejected
        with the back-edge named and the header-state diff printed."""
        with pytest.raises(VerifierError) as ei:
            Verifier(registry).verify(get_case("loop_unbounded").prog)
        err = ei.value
        assert "back-edge" in str(err)
        assert err.loop_header is not None
        text = err.explain()
        assert "loop header: insn" in text
        assert "->" in text  # joined/widened state diff entries

    def test_fixpoint_iteration_cap(self, registry):
        """The hard cap exists and is not hit by the bundled corpus."""
        assert MAX_FIXPOINT_ITERS >= 8
        for name in DATA_LOOPS:
            vp = Verifier(registry).verify(get_case(name).prog)
            assert vp.stats.fixpoint_iters <= 8
