"""The shared dispatch loop: FIFO crash re-steer and re-runnable control."""

from collections import defaultdict

import pytest

from repro.ebpf.cost_model import ExecMode
from repro.ebpf.runtime import BpfRuntime
from repro.faults import FaultPlan
from repro.net.flowgen import FlowGenerator
from repro.net.multicore import RssDispatcher
from repro.net.queueing import ArrivalProcess, QueueingConfig
from repro.net.slo import SloConfig, SloController
from repro.net.xdp import ReplaySession
from repro.nfs import CountMinNF


def countmin(core):
    return CountMinNF(BpfRuntime(mode=ExecMode.ENETSTL, seed=core), depth=4)


def bursty_trace(n, pps, n_flows, seed=5):
    fg = FlowGenerator(n_flows=n_flows, seed=seed, distribution="zipf")
    return list(fg.iter_trace_bursty(n, ArrivalProcess(pps, seed=seed)))


def flow_inversions(fed_batches, index):
    """Packets a core was fed before an older packet of the same flow."""
    last = {}
    inversions = 0
    for batch in fed_batches:
        for pkt in batch:
            i = index[id(pkt)]
            if i < last.get(pkt.key_int, -1):
                inversions += 1
            last[pkt.key_int] = max(i, last.get(pkt.key_int, -1))
    return inversions


class TestCrashResteerKeepsFlowsFifo:
    """A crash re-steers the split-off batch tail before the dead ring's
    content: each flow reaches its survivor oldest packet first."""

    TRACE = bursty_trace(6000, 5e7, n_flows=64)
    PLAN = FaultPlan(crash_core=1, crash_at=500)
    QUEUEING = QueueingConfig(rx_ring_size=4096)

    @pytest.fixture
    def feeds(self, monkeypatch):
        """Every batch each NF instance was fed, in feed order."""
        fed = defaultdict(list)
        feed = ReplaySession.feed

        def recording(session, batch):
            fed[id(session.pipeline.nf)].append(list(batch))
            return feed(session, batch)

        monkeypatch.setattr(ReplaySession, "feed", recording)
        return fed

    def inversions(self, fed):
        index = {id(pkt): i for i, pkt in enumerate(self.TRACE)}
        return sum(flow_inversions(batches, index) for batches in fed.values())

    def test_dispatcher(self, feeds):
        result = RssDispatcher(
            countmin, n_cores=4, faults=self.PLAN, queueing=self.QUEUEING
        ).run(self.TRACE)
        assert [f.kind for f in result.failures] == ["crash"]
        assert result.failures[0].resteered > 0
        assert self.inversions(feeds) == 0

    def test_controller(self, feeds):
        run = SloController(
            countmin,
            max_cores=4,
            queueing=self.QUEUEING,
            config=SloConfig(autoscale=False, rejoin_epochs=0),
            faults=self.PLAN,
        ).run(self.TRACE)
        assert [f.kind for f in run.failures] == ["crash"]
        assert run.is_fully_accounted
        assert self.inversions(feeds) == 0


class TestControllerReruns:
    def test_same_trace_twice_gives_the_same_run(self):
        ctl = SloController(
            countmin,
            max_cores=4,
            initial_cores=1,
            config=SloConfig(
                target_p99_us=30.0, epoch_packets=256, cooldown_epochs=4
            ),
        )
        trace = bursty_trace(3000, 3e7, n_flows=512)
        first = ctl.run(trace).describe()
        ups = ctl.autoscaler.scale_ups
        second = ctl.run(trace).describe()
        assert ups > 0
        assert second == first
        assert ctl.autoscaler.scale_ups == ups
