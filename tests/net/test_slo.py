"""SLO control loop: steering table, autoscaler, partial recovery."""

import pytest

from repro.ebpf.cost_model import ExecMode
from repro.ebpf.runtime import BpfRuntime
from repro.faults import FaultPlan, WedgeDetection
from repro.net.flowgen import FlowGenerator
from repro.net.multicore import RssDispatcher
from repro.net.queueing import ArrivalProcess, QueueingConfig
from repro.net.slo import (
    CoreAutoscaler,
    EpochStats,
    IndirectionTable,
    SloConfig,
    SloController,
    time_to_slo_s,
)
from repro.nfs import CountMinNF
from repro.nfs.degrade import ColdStartWarmup


def countmin_factory(core):
    return CountMinNF(BpfRuntime(mode=ExecMode.ENETSTL, seed=core), depth=4)


def bursty_trace(n, arrivals, seed=5, n_flows=512):
    fg = FlowGenerator(n_flows=n_flows, seed=seed, distribution="zipf")
    return list(fg.iter_trace_bursty(n, arrivals))


class TestIndirectionTable:
    def test_assign_spreads_round_robin(self):
        tbl = IndirectionTable(table_size=8)
        tbl.assign([0, 1, 2, 3])
        assert tbl.table == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_repack_moves_only_orphans(self):
        tbl = IndirectionTable(table_size=128)
        tbl.assign([0, 1, 2, 3])
        before = list(tbl.table)
        moved = tbl.repack([0, 1, 3])  # core 2 died
        assert moved == 32  # exactly the buckets that pointed at core 2
        assert 2 not in tbl.table
        # Every surviving bucket kept its placement (flow affinity).
        kept = sum(
            1 for a, b in zip(before, tbl.table) if a == b and a != 2
        )
        assert kept == 96

    def test_repack_balances_orphans(self):
        tbl = IndirectionTable(table_size=120)
        tbl.assign([0, 1, 2])
        tbl.repack([0, 1])
        assert tbl.table.count(0) == 60
        assert tbl.table.count(1) == 60

    def test_repack_onto_grown_set_feeds_newcomer(self):
        tbl = IndirectionTable(table_size=128)
        tbl.assign([0, 1])
        moved = tbl.repack([0, 1, 2])
        counts = {c: tbl.table.count(c) for c in (0, 1, 2)}
        # The newcomer gets within one bucket of an even share, and
        # nothing moved between the two incumbents.
        assert counts[2] >= 128 // 3 - 1
        assert moved == counts[2]

    def test_repack_noop_when_nothing_changed(self):
        tbl = IndirectionTable(table_size=64)
        tbl.assign([0, 1])
        assert tbl.repack([0, 1]) == 0

    def test_core_of_is_stable(self):
        tbl = IndirectionTable(table_size=64)
        tbl.assign([0, 1, 2])
        assert [tbl.core_of(k) for k in range(50)] == [
            tbl.core_of(k) for k in range(50)
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            IndirectionTable(table_size=0)
        with pytest.raises(ValueError):
            IndirectionTable().assign([])
        with pytest.raises(ValueError):
            IndirectionTable().repack([])


class TestCoreAutoscaler:
    def scaler(self, **kw):
        kw.setdefault("min_cores", 1)
        kw.setdefault("max_cores", 8)
        kw.setdefault("target_p99_us", 100.0)
        kw.setdefault("cooldown_epochs", 2)
        return CoreAutoscaler(**kw)

    def test_scales_up_on_breach(self):
        assert self.scaler().decide(150.0, 4) == "up"

    def test_scales_down_when_far_under(self):
        assert self.scaler().decide(10.0, 4) == "down"

    def test_holds_inside_hysteresis_band(self):
        # Between low_water (50) and high_water (100): no action.
        assert self.scaler().decide(75.0, 4) == "hold"

    def test_respects_max_cores(self):
        assert self.scaler().decide(150.0, 8) == "hold"

    def test_respects_min_cores(self):
        assert self.scaler(min_cores=2).decide(10.0, 2) == "hold"

    def test_cooldown_after_action(self):
        s = self.scaler(cooldown_epochs=3)
        assert s.decide(150.0, 4) == "up"
        assert s.decide(150.0, 5) == "hold"
        assert s.decide(150.0, 5) == "hold"

    def test_backoff_doubles_on_failed_scale_up(self):
        s = self.scaler(cooldown_epochs=2, max_backoff_epochs=8)
        assert s.decide(150.0, 4) == "up"     # waits 2
        assert s.decide(150.0, 5) == "hold"
        assert s.decide(150.0, 5) == "up"     # still over: backoff -> 4
        assert [s.decide(150.0, 6) for _ in range(3)] == ["hold"] * 3
        assert s.decide(150.0, 6) == "up"     # backoff -> 8 (the cap)

    def test_compliant_epoch_resets_backoff(self):
        s = self.scaler(cooldown_epochs=2, max_backoff_epochs=8)
        s.decide(150.0, 4)
        s.decide(150.0, 5)
        s.decide(150.0, 5)                    # backoff now 4
        s.decide(80.0, 6)                     # under target: reset
        assert s._backoff == 2

    def test_counters(self):
        s = self.scaler(cooldown_epochs=0)
        s.decide(150.0, 4)
        s.decide(10.0, 5)
        assert s.scale_ups == 1
        assert s.scale_downs == 1

    @pytest.mark.parametrize(
        "kw",
        [
            dict(min_cores=0, max_cores=4, target_p99_us=10),
            dict(min_cores=4, max_cores=2, target_p99_us=10),
            dict(min_cores=1, max_cores=4, target_p99_us=0),
            dict(min_cores=1, max_cores=4, target_p99_us=10, low_water=1.5),
            dict(min_cores=1, max_cores=4, target_p99_us=10,
                 cooldown_epochs=4, max_backoff_epochs=2),
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            CoreAutoscaler(**kw)


class TestSloConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(target_p99_us=0),
            dict(epoch_packets=0),
            dict(min_cores=0),
            dict(low_water=0.9, high_water=0.5),
            dict(rejoin_epochs=-1),
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            SloConfig(**kw)


class TestTimeToSlo:
    def epoch(self, i, p99, span_ns=1_000_000):
        return EpochStats(
            epoch=i, start_ns=i * span_ns, end_ns=(i + 1) * span_ns,
            packets=100, active_cores=[0], p99_us=p99,
        )

    def test_none_when_never_breached(self):
        timeline = [self.epoch(i, 40.0) for i in range(5)]
        assert time_to_slo_s(timeline, 60.0) is None

    def test_none_when_never_healed(self):
        timeline = [self.epoch(i, 90.0) for i in range(5)]
        assert time_to_slo_s(timeline, 60.0) is None

    def test_breach_then_recovery(self):
        p99s = [40, 90, 90, 40, 40]
        timeline = [self.epoch(i, p) for i, p in enumerate(p99s)]
        # Breach ends at epoch 1 (2 ms); second compliant epoch ends at
        # 5 ms => 3 ms to sustained compliance.
        assert time_to_slo_s(timeline, 60.0, settle_epochs=2) == pytest.approx(
            0.003
        )

    def test_settle_requires_consecutive_compliance(self):
        p99s = [90, 40, 90, 40, 40]
        timeline = [self.epoch(i, p) for i, p in enumerate(p99s)]
        assert time_to_slo_s(timeline, 60.0, settle_epochs=2) == pytest.approx(
            0.004
        )

    def test_settle_epochs_validated(self):
        with pytest.raises(ValueError):
            time_to_slo_s([], 60.0, settle_epochs=0)


class TestColdStartWarmup:
    def test_penalty_decays_to_zero(self):
        w = ColdStartWarmup(penalty_cycles=120, tau_packets=1000)
        assert w.penalty_at(0) == 120
        assert 0 < w.penalty_at(1000) < 120
        assert w.penalty_at(w.horizon_packets) == 0

    def test_fill_fraction_monotone(self):
        w = ColdStartWarmup()
        fills = [w.fill_fraction(m) for m in range(0, 20_000, 1000)]
        assert fills == sorted(fills)
        assert fills[0] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ColdStartWarmup(penalty_cycles=-1)
        with pytest.raises(ValueError):
            ColdStartWarmup(tau_packets=0)


class TestWedgeDetectionModel:
    def test_deadlines_deterministic_per_core(self):
        det = WedgeDetection(mean_packets=1024, min_packets=64, seed=3)
        assert [det.deadline_for(c) for c in range(8)] == [
            det.deadline_for(c) for c in range(8)
        ]

    def test_deadlines_spread_across_cores(self):
        det = WedgeDetection(mean_packets=1024, min_packets=64, seed=3)
        deadlines = {det.deadline_for(c) for c in range(16)}
        assert len(deadlines) > 8  # realistically spread, not constant

    def test_floor_respected(self):
        det = WedgeDetection(mean_packets=256, min_packets=100, seed=1)
        assert all(det.deadline_for(c) >= 100 for c in range(32))

    def test_degenerate_mean_equals_min(self):
        det = WedgeDetection(mean_packets=64, min_packets=64)
        assert det.deadline_for(5) == 64

    def test_validation(self):
        with pytest.raises(ValueError):
            WedgeDetection(mean_packets=10, min_packets=64)
        with pytest.raises(ValueError):
            WedgeDetection(min_packets=0)
        with pytest.raises(ValueError):
            WedgeDetection().deadline_for(-1)


class TestSloController:
    def controller(self, **kw):
        kw.setdefault("max_cores", 4)
        kw.setdefault("queueing", QueueingConfig())
        return SloController(countmin_factory, **kw)

    def test_healthy_run_accounts_and_meets_slo(self):
        trace = bursty_trace(6000, ArrivalProcess(4e6, seed=5))
        run = self.controller(
            config=SloConfig(target_p99_us=60.0, epoch_packets=1024)
        ).run(trace)
        assert run.packets_in == 6000
        assert run.is_fully_accounted
        assert run.violating_epochs() == []
        assert run.recovery_s() is None
        assert len(run.timeline) >= 5

    def test_epoch_cadence(self):
        trace = bursty_trace(4096, ArrivalProcess(4e6, seed=5))
        run = self.controller(
            config=SloConfig(epoch_packets=1024)
        ).run(trace)
        assert [e.epoch for e in run.timeline] == list(
            range(len(run.timeline))
        )
        assert all(
            e.end_ns >= e.start_ns for e in run.timeline
        )

    def test_run_is_deterministic(self):
        trace = bursty_trace(
            6000, ArrivalProcess.flash_crowd(4e6, 2e7, 0.0002, 0.0005, seed=5)
        )

        def once():
            return self.controller(
                initial_cores=2,
                config=SloConfig(target_p99_us=60.0, epoch_packets=512),
                faults=FaultPlan(crash_core=1, crash_at=800),
                detection=WedgeDetection(seed=2),
                warmup=ColdStartWarmup(),
            ).run(trace)

        a, b = once(), once()
        assert [e.describe() for e in a.timeline] == [
            e.describe() for e in b.timeline
        ]
        assert a.latencies_ns == b.latencies_ns
        assert a.accounting() == b.accounting()

    def test_crash_repacks_and_accounts(self):
        trace = bursty_trace(6000, ArrivalProcess(4e6, seed=5))
        run = self.controller(
            config=SloConfig(epoch_packets=1024, rejoin_epochs=0),
            faults=FaultPlan(crash_core=1, crash_at=500),
        ).run(trace)
        assert len(run.failures) == 1
        failure = run.failures[0]
        assert failure.kind == "crash"
        assert failure.core == 1
        assert failure.repacked
        assert run.is_fully_accounted
        assert any("crash core=1" in e.events for e in run.timeline)

    def test_wedge_detected_mid_run(self):
        trace = bursty_trace(8000, ArrivalProcess(6e6, seed=5))
        run = self.controller(
            config=SloConfig(epoch_packets=1024, rejoin_epochs=0),
            faults=FaultPlan(wedge_core=2, wedge_at=300),
            detection=WedgeDetection(mean_packets=256, min_packets=64, seed=1),
        ).run(trace)
        assert len(run.failures) == 1
        assert run.failures[0].kind == "wedge"
        # Detection latency: the wedged core silently ate packets.
        assert run.failures[0].lost > 0
        assert run.lost == run.failures[0].lost
        assert run.is_fully_accounted

    def test_crashed_core_rejoins_cold(self):
        trace = bursty_trace(10_000, ArrivalProcess(5e6, seed=5))
        run = self.controller(
            initial_cores=2,
            config=SloConfig(
                target_p99_us=40.0, epoch_packets=512, rejoin_epochs=2
            ),
            faults=FaultPlan(crash_core=1, crash_at=400),
            warmup=ColdStartWarmup(),
        ).run(trace)
        joined = [
            e for ep in run.timeline for e in ep.events
            if e.startswith("scale-up core=1") or e.startswith("rejoin core=1")
        ]
        assert joined, "crashed core never came back"
        assert run.is_fully_accounted

    def test_autoscaler_recovers_where_fixed_fleet_cannot(self):
        # The acceptance scenario: a crash leaves the remaining fleet
        # under-provisioned for the offered load.  With autoscaling the
        # parked cores absorb it and p99 returns under target; without
        # (and with the dead core gone for good) it never does.
        trace = bursty_trace(14_000, ArrivalProcess(9e6, seed=5))

        def run(autoscale):
            return SloController(
                countmin_factory,
                max_cores=4,
                initial_cores=2,
                queueing=QueueingConfig(),
                config=SloConfig(
                    target_p99_us=60.0,
                    epoch_packets=512,
                    autoscale=autoscale,
                    rejoin_epochs=0,
                ),
                faults=FaultPlan(crash_core=1, crash_at=1500),
            ).run(trace)

        scaled, fixed = run(True), run(False)
        assert scaled.violating_epochs(), "crash never breached the SLO"
        assert scaled.recovery_s() is not None
        assert fixed.recovery_s() is None
        assert scaled.latency_summary()["p99_us"] < fixed.latency_summary()["p99_us"]
        assert scaled.is_fully_accounted and fixed.is_fully_accounted

    def test_scale_down_when_overprovisioned(self):
        trace = bursty_trace(8000, ArrivalProcess(1e6, seed=5))
        run = self.controller(
            config=SloConfig(
                target_p99_us=500.0, epoch_packets=1024, cooldown_epochs=0
            )
        ).run(trace)
        assert any(
            e.startswith("scale-down") for ep in run.timeline for e in ep.events
        )
        assert run.is_fully_accounted

    def test_validation(self):
        with pytest.raises(ValueError):
            self.controller(max_cores=0)
        with pytest.raises(ValueError):
            self.controller(initial_cores=9)
        with pytest.raises(ValueError):
            self.controller(config=SloConfig(min_cores=8))
        with pytest.raises(ValueError, match="nonexistent core"):
            self.controller(faults=FaultPlan(crash_core=7))


class TestLatencyVsLoad:
    """A fixed 4-core fleet over 1024 Zipf flows, 10000 packets per
    operating point: steady loads from ~0.2x to ~2.4x of capacity."""

    LOADS = (4e6, 1e7, 1.8e7, 2.4e7, 4.8e7)

    @staticmethod
    def run(arrivals, n=10_000, **kw):
        trace = bursty_trace(n, arrivals, n_flows=1024)
        return RssDispatcher(countmin_factory, n_cores=4, **kw).run(trace)

    @pytest.fixture(scope="class")
    def sweep(self):
        return [
            self.run(ArrivalProcess(pps, seed=5), queueing=QueueingConfig())
            for pps in self.LOADS
        ]

    def test_every_point_fully_accounted(self, sweep):
        assert all(result.is_fully_accounted for result in sweep)

    def test_p99_rises_with_load(self, sweep):
        p99s = [result.latency_summary()["p99_us"] for result in sweep]
        assert p99s == sorted(p99s)

    def test_overflow_only_past_saturation(self, sweep):
        assert sweep[0].overflow_drops == 0
        assert sweep[-1].overflow_drops > 0

    def test_flash_crowd_pushes_tail_past_steady(self, sweep):
        flash = self.run(
            ArrivalProcess.flash_crowd(
                8e6, 4.8e7, lead_s=0.0002, burst_s=0.0004, seed=5
            ),
            queueing=QueueingConfig(),
        )
        assert flash.is_fully_accounted
        steady = sweep[0].latency_summary()["p99_us"]
        assert flash.latency_summary()["p99_us"] > steady

    def test_queueing_never_changes_cycles(self):
        arrivals = ArrivalProcess(1e7, seed=5)
        plain = self.run(arrivals, n=6000)
        queued = self.run(arrivals, n=6000, queueing=QueueingConfig())
        assert queued.total_cycles == plain.total_cycles
        assert queued.actions == plain.actions


class TestDisruption:
    """The SLO loop over 12000 packets at 8 Mpps on 1024 Zipf flows:
    2 of 4 cores active, one of them fails at packet 1500."""

    @staticmethod
    def run(plan, autoscale=True, rejoin_epochs=0, detection=None):
        trace = bursty_trace(12_000, ArrivalProcess(8e6, seed=5),
                             n_flows=1024)
        return SloController(
            countmin_factory,
            max_cores=4,
            initial_cores=2,
            queueing=QueueingConfig(),
            config=SloConfig(
                target_p99_us=60.0,
                epoch_packets=512,
                autoscale=autoscale,
                rejoin_epochs=rejoin_epochs,
            ),
            faults=plan,
            detection=detection,
            warmup=ColdStartWarmup(),
        ).run(trace)

    @pytest.mark.parametrize("kind", ["crash", "wedge"])
    def test_fleet_recovers_and_only_a_wedge_loses_packets(self, kind):
        run = self.run(
            FaultPlan(**{f"{kind}_core": 1, f"{kind}_at": 1500}),
            rejoin_epochs=4,
            detection=WedgeDetection(mean_packets=512, min_packets=64,
                                     seed=2),
        )
        assert run.is_fully_accounted
        [failure] = run.failures
        assert failure.kind == kind
        assert run.recovery_s() is not None
        assert (failure.lost > 0) == (kind == "wedge")

    def test_autoscaler_ablation(self):
        plan = FaultPlan(crash_core=1, crash_at=1500)
        scaled = self.run(plan)
        fixed = self.run(plan, autoscale=False)
        assert scaled.is_fully_accounted and fixed.is_fully_accounted
        assert scaled.violating_epochs()
        assert scaled.recovery_s() is not None
        assert fixed.recovery_s() is None
        assert (scaled.latency_summary()["p99_us"]
                < fixed.latency_summary()["p99_us"])
        again = self.run(plan)
        assert ([e.describe() for e in again.timeline]
                == [e.describe() for e in scaled.timeline])
        assert again.latencies_ns == scaled.latencies_ns
