"""The JIT compiler's parity, cache, unrolling, and pruning contracts.

The compiler's promise is *bit-identical observable behavior* to the
interpreter — r0, final stack/packet/ctx bytes, step counts, check
accounting, and cycle charges — while executing straight-line
generated Python.  These tests pin that promise on every bundled
program (both elide modes, with and without a cycle counter), plus the
cache-identity rules (same hash -> same closure object, mutated
program -> miss) and the subsumption-pruning budget win the unrolled
NF programs rely on.
"""

import random

import pytest

from repro.ebpf.cost_model import Cycles
from repro.ebpf.insn import (
    Alu,
    Exit,
    Imm,
    JmpIf,
    Load,
    Mov,
    Program,
    R0,
    R1,
    R2,
    R3,
    R6,
    R7,
    R8,
    R10,
    Store,
)
from repro.ebpf.jit import (
    CompiledProgram,
    JitError,
    compile_program,
    compiled_for,
    program_hash,
)
from repro.ebpf.progs import bundled_cases, get_case, runnable_registry
from repro.ebpf.runtime import BpfRuntime
from repro.ebpf.verifier import Verifier, VerifierError
from repro.ebpf.vm import Vm
from repro.net.flowgen import FlowGenerator
from repro.net.irnf import IrNf

from tests.ebpf.test_verifier import eq_dispatch_prog
from tests.speed import best_of, timed

SEED = 20260806


def _accepted_cases():
    verifier = Verifier(runnable_registry(0))
    out = []
    for case in bundled_cases():
        try:
            out.append((case, verifier.verify(case.prog)))
        except VerifierError:
            pass
    return out


def _run(prog, vp, backend, packet, elide=True, seed=3, cycles=None):
    vm = Vm(runnable_registry(seed), packet=packet, proofs=vp,
            elide_checks=elide, backend=backend, cycles=cycles)
    r0 = vm.run(prog)
    return vm, r0


def _observable(vm, r0):
    return (
        r0,
        bytes(vm.stack),
        bytes(vm.packet),
        bytes(vm.ctx),
        vm.stats.steps,
        vm.stats.checks_performed,
        vm.stats.checks_elided,
        vm.stats.insn_cycles,
        vm.stats.check_cycles,
    )


# -- parity ------------------------------------------------------------------


def test_bundled_parity_all_programs():
    """Every accepted bundled program, both elide modes, several
    packets: the JIT's machine state and accounting match the
    interpreter bit for bit."""
    rng = random.Random(SEED)
    checked = 0
    for case, vp in _accepted_cases():
        for _ in range(3):
            packet = bytes(rng.randrange(256)
                           for _ in range(rng.choice([0, 40, 64])))
            for elide in (True, False):
                vm_i, r0_i = _run(case.prog, vp, "interp", packet, elide)
                vm_j, r0_j = _run(case.prog, vp, "jit", packet, elide)
                assert _observable(vm_i, r0_i) == _observable(vm_j, r0_j), (
                    f"{case.name} elide={elide}"
                )
                checked += 1
    assert checked >= 40  # 11 accepted programs x 3 packets x 2 modes


def test_cycle_charges_identical():
    """With a cycle counter attached, per-category charges match."""
    packet = bytes(range(11, 75))
    for case, vp in _accepted_cases():
        cyc_i, cyc_j = Cycles(), Cycles()
        vm_i, r0_i = _run(case.prog, vp, "interp", packet, cycles=cyc_i)
        vm_j, r0_j = _run(case.prog, vp, "jit", packet, cycles=cyc_j)
        assert r0_i == r0_j
        assert cyc_i.total == cyc_j.total, case.name
        assert cyc_i.snapshot() == cyc_j.snapshot(), case.name


def test_kfunc_state_accumulates_identically():
    """Kfunc state lives in the registry closure and carries across
    packets: a 50-packet sketch run produces the same estimate
    sequence under both backends."""
    case = get_case("nf_cm_sketch")
    vp = Verifier(runnable_registry(0)).verify(case.prog)
    rng = random.Random(7)
    packets = [bytes(rng.randrange(256) for _ in range(64))
               for _ in range(50)]
    results = {}
    for backend in ("interp", "jit"):
        reg = runnable_registry(5)
        outs = []
        for pkt in packets:
            vm = Vm(reg, packet=pkt, proofs=vp, backend=backend)
            outs.append(vm.run(case.prog))
        results[backend] = outs
    assert results["interp"] == results["jit"]


def test_jit_requires_proofs():
    prog = Program([Mov(R0, Imm(0)), Exit()], name="tiny")
    with pytest.raises(JitError):
        compile_program(prog, None, runnable_registry(0))
    vm = Vm(runnable_registry(0), backend="jit")  # no proofs attached
    with pytest.raises(ValueError):
        vm.run(prog)


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        Vm(runnable_registry(0), backend="llvm")


@pytest.mark.parametrize(
    "name", ["nf_classifier", "nf_cm_sketch", "nf_maglev_pick"]
)
def test_jit_outruns_interp_bit_identically(name):
    """Best of 3 per backend over 1500 packets: the JIT replays the
    interpreter's r0 sequence and cycle total at >= 1.5x its speed."""
    trace = FlowGenerator(n_flows=64, seed=3).trace(1500)

    def rep(backend):
        rt = BpfRuntime(seed=1)
        nf = IrNf(rt, get_case(name).prog, seed=1, backend=backend)
        seconds, _ = timed(nf.process_batch, trace)
        return seconds, (tuple(nf.returns), rt.cycles.total)

    interp_s, interp = best_of(lambda: rep("interp"))
    jit_s, jit = best_of(lambda: rep("jit"))
    assert jit == interp
    assert interp_s / jit_s >= 1.5


# -- generated code shape ----------------------------------------------------


def test_loop_unrolled_to_straight_line():
    """loop_counted's proven 15 back-edge traversals unroll into 16
    body copies with forward-only dispatch — no `continue` (the
    generated code's only backward-jump construct) survives."""
    case = get_case("loop_counted")
    vp = Verifier(runnable_registry(0)).verify(case.prog)
    compiled = compile_program(case.prog, vp, runnable_registry(0))
    assert compiled.unrolled == {4: 16}
    assert "continue" not in compiled.source
    assert "eval" not in compiled.source


def test_oversized_loop_falls_back_to_dispatch():
    """A trip count past UNROLL_MAX_TRIPS still compiles — as a real
    dispatch loop with the step-budget guard — and stays bit-identical."""
    insns = [
        Mov(R6, Imm(0)),
        Mov(R7, Imm(0)),
        Alu("add", R7, R6),
        Alu("add", R6, Imm(1)),
        JmpIf("lt", R6, Imm(200), 2),   # 200 trips > UNROLL_MAX_TRIPS
        Mov(R0, R7),
        Exit(),
    ]
    prog = Program(insns, name="loop_wide")
    vp = Verifier(runnable_registry(0)).verify(prog)
    compiled = compile_program(prog, vp, runnable_registry(0))
    assert compiled.unrolled == {}
    assert "continue" in compiled.source
    vm_i, r0_i = _run(prog, vp, "interp", b"")
    vm_j, r0_j = _run(prog, vp, "jit", b"")
    assert _observable(vm_i, r0_i) == _observable(vm_j, r0_j)


# -- compiled-program cache --------------------------------------------------


def test_cache_hit_returns_same_closure():
    case = get_case("nf_classifier")
    reg = runnable_registry(0)
    vp = Verifier(reg).verify(case.prog)
    a = compiled_for(reg, case.prog, vp)
    b = compiled_for(reg, case.prog, vp)
    assert a is b
    assert a.fn is b.fn


def test_cache_miss_on_mutated_program():
    """Re-verifying a mutated program must miss the cache: the key is
    the program's content hash, not its name or object identity."""
    case = get_case("nf_classifier")
    reg = runnable_registry(0)
    verifier = Verifier(reg)
    vp = verifier.verify(case.prog)
    original = compiled_for(reg, case.prog, vp)

    mutated_insns = list(case.prog)
    # Flip the verdict fold: `and r0, 1` -> `and r0, 3`.
    mutated_insns[19] = Alu("and", R0, Imm(3))
    mutated = Program(mutated_insns, name=case.prog.name)  # same name!
    assert program_hash(mutated) != program_hash(case.prog)
    vp_m = verifier.verify(mutated)
    recompiled = compiled_for(reg, mutated, vp_m)
    assert recompiled is not original
    assert recompiled.prog_hash != original.prog_hash

    # The original's cache entry is untouched.
    assert compiled_for(reg, case.prog, vp) is original


def test_cache_keyed_by_registry_and_elide():
    """Kfunc impls are burned in at compile time, so each registry gets
    its own code; elide on/off are distinct entries too."""
    case = get_case("nf_classifier")
    reg_a, reg_b = runnable_registry(0), runnable_registry(0)
    vp = Verifier(reg_a).verify(case.prog)
    a = compiled_for(reg_a, case.prog, vp)
    b = compiled_for(reg_b, case.prog, vp)
    assert a is not b
    elided = compiled_for(reg_a, case.prog, vp, elide_checks=True)
    checked = compiled_for(reg_a, case.prog, vp, elide_checks=False)
    assert elided is not checked
    assert compiled_for(reg_a, case.prog, vp, elide_checks=False) is checked


def test_vm_runs_share_cached_closure():
    """Two JIT VMs over the same registry reuse one CompiledProgram."""
    case = get_case("pkt_guarded_read")
    reg = runnable_registry(0)
    vp = Verifier(reg).verify(case.prog)
    pkt = bytes(64)
    Vm(reg, packet=pkt, proofs=vp, backend="jit").run(case.prog)
    before = compiled_for(reg, case.prog, vp)
    Vm(reg, packet=pkt, proofs=vp, backend="jit").run(case.prog)
    assert compiled_for(reg, case.prog, vp) is before


# -- subsumption pruning budget ----------------------------------------------


def test_pruning_verifies_within_budget_unpruned_exceeds():
    """The acceptance demo: under the same ``max_states`` budget, the
    pruned verifier accepts the dispatch-heavy program that the
    unpruned verifier rejects as too complex."""
    prog = eq_dispatch_prog(12, 24)
    reg = runnable_registry(0)
    budget = 128

    vp = Verifier(reg, max_states=budget).verify(prog)
    assert vp.stats.states_pruned >= 12
    assert vp.stats.states_explored <= budget

    with pytest.raises(VerifierError, match="state limit"):
        Verifier(reg, prune=False, max_states=budget).verify(prog)
    # Without the budget the unpruned verifier accepts — and needs
    # several times more states, which is exactly what pruning saves.
    vp_u = Verifier(reg, prune=False).verify(prog)
    assert vp_u.stats.states_explored > 2 * (
        vp.stats.states_explored + vp.stats.states_pruned
    )


def test_pruned_program_runs_with_jit_parity():
    """The pruned proof table still drives a correct JIT compile."""
    prog = eq_dispatch_prog(8, 8)
    vp = Verifier(runnable_registry(0), max_states=128).verify(prog)
    for seed in (1, 2):
        vm_i, r0_i = _run(prog, vp, "interp", b"", seed=seed)
        vm_j, r0_j = _run(prog, vp, "jit", b"", seed=seed)
        assert _observable(vm_i, r0_i) == _observable(vm_j, r0_j)


def test_compiled_program_metadata():
    case = get_case("nf_cm_sketch")
    reg = runnable_registry(0)
    vp = Verifier(reg).verify(case.prog)
    compiled = compile_program(case.prog, vp, reg)
    assert isinstance(compiled, CompiledProgram)
    assert compiled.prog_hash == program_hash(case.prog)
    assert compiled.elide_checks is True
    # The 3-trip back-edge at pc 12 expands into 4 body copies.
    assert compiled.unrolled == {12: 4}
    assert compiled.n_nodes > 4
    assert compiled.source.startswith("def _jit_nf_cm_sketch")
