"""Streaming replay: O(batch) peak memory, bit-identical accounting."""

import gc
import weakref

import pytest

from repro.ebpf.cost_model import ExecMode
from repro.ebpf.runtime import BpfRuntime
from repro.net.flowgen import FlowGenerator
from repro.net.multicore import RssDispatcher
from repro.net.xdp import ReplaySession, XdpPipeline, iter_batches
from repro.net.packet import XdpAction
from repro.nfs import CountMinNF


def countmin_factory(core):
    return CountMinNF(BpfRuntime(mode=ExecMode.ENETSTL, seed=core), depth=4)


class NullNF:
    """Free NF: lets memory tests replay millions of packets quickly."""

    def __init__(self):
        self.rt = BpfRuntime(mode=ExecMode.ENETSTL, seed=0)
        self.n_seen = 0

    def process(self, packet):
        self.n_seen += 1
        return XdpAction.DROP

    def process_batch(self, batch):
        self.n_seen += len(batch)
        return {XdpAction.DROP: len(batch)}


class ResidencyProbe:
    """Weakly track every packet a stream yields; record live counts.

    ``Packet`` is refcounted (no reference cycles), so the WeakSet's
    size at any instant is exactly the number of packets the replay
    machinery still holds.
    """

    def __init__(self):
        self.live = weakref.WeakSet()
        self.created = 0
        self.peak = 0

    def wrap(self, stream):
        for pkt in stream:
            self.live.add(pkt)
            self.created += 1
            yield pkt

    def sample(self):
        self.peak = max(self.peak, len(self.live))


class ProbedNF(NullNF):
    def __init__(self, probe):
        super().__init__()
        self.probe = probe

    def process_batch(self, batch):
        self.probe.sample()
        return super().process_batch(batch)


class TestBoundedResidency:
    """The acceptance criterion: a 1M-packet generated trace streams
    through the replay paths without the full packet list ever being
    materialized — peak resident packets stay O(batch), not O(trace)."""

    N_PACKETS = 1_000_000
    BATCH = 256

    def test_run_batch_streams_one_million_packets(self):
        probe = ResidencyProbe()
        fg = FlowGenerator(n_flows=1024, seed=7, distribution="zipf")
        stream = probe.wrap(fg.iter_trace(self.N_PACKETS))
        result = XdpPipeline(ProbedNF(probe)).run_batch(
            stream, batch_size=self.BATCH
        )
        gc.collect()
        assert result.n_packets == self.N_PACKETS
        assert probe.created == self.N_PACKETS
        # One in-flight batch plus generator lookahead slack.
        assert probe.peak <= 2 * self.BATCH + 16
        assert len(probe.live) <= self.BATCH

    def test_dispatcher_streams_one_million_packets(self):
        n_cores = 4
        probe = ResidencyProbe()
        fg = FlowGenerator(n_flows=1024, seed=7, distribution="zipf")
        stream = probe.wrap(fg.iter_trace(self.N_PACKETS))
        dispatcher = RssDispatcher(
            lambda core: ProbedNF(probe), n_cores=n_cores
        )
        result = dispatcher.run(stream, batch_size=self.BATCH)
        gc.collect()
        assert result.n_packets == self.N_PACKETS
        assert probe.created == self.N_PACKETS
        # Each queue buffers < one batch, plus the batch being fed.
        bound = (n_cores + 2) * self.BATCH + 16
        assert probe.peak <= bound
        assert len(probe.live) <= bound

    def test_steered_dispatch_holds_only_the_sample_extra(self):
        """A sampling policy may pin its prefix; residency stays
        O(sample + n_cores x batch), still independent of trace length."""
        n_cores = 4
        n_packets = 100_000
        probe = ResidencyProbe()
        fg = FlowGenerator(n_flows=1024, seed=7, distribution="zipf")
        dispatcher = RssDispatcher(
            lambda core: ProbedNF(probe), n_cores=n_cores, steering="ntuple"
        )
        result = dispatcher.run(
            probe.wrap(fg.iter_trace(n_packets)), batch_size=self.BATCH
        )
        assert result.n_packets == n_packets
        sample = dispatcher.steering.sample_size
        assert probe.peak <= sample + (n_cores + 2) * self.BATCH + 16
        assert probe.peak < n_packets // 10


class TestStreamedEqualsMaterialized:
    def trace(self, n=4000):
        return FlowGenerator(n_flows=256, seed=3, distribution="zipf").trace(n)

    def test_pipeline_run_batch(self):
        trace = self.trace()
        a = XdpPipeline(countmin_factory(0)).run_batch(trace)
        b = XdpPipeline(countmin_factory(0)).run_batch(iter(trace))
        assert a == b

    def test_pipeline_run(self):
        trace = self.trace(1000)
        a = XdpPipeline(countmin_factory(0)).run(trace)
        b = XdpPipeline(countmin_factory(0)).run(iter(trace))
        assert a == b

    @pytest.mark.parametrize("policy", ["rss", "rekey", "ntuple"])
    def test_dispatcher(self, policy):
        trace = self.trace()
        a = RssDispatcher(countmin_factory, n_cores=4, steering=policy).run(
            trace
        )
        b = RssDispatcher(countmin_factory, n_cores=4, steering=policy).run(
            iter(trace)
        )
        assert a.per_core == b.per_core
        assert a.actions == b.actions

    def test_dispatcher_matches_pr1_shard_path(self):
        """Streamed dispatch == materialize-then-shard, core by core."""
        from repro.net.multicore import shard_trace

        trace = self.trace()
        streamed = RssDispatcher(countmin_factory, n_cores=4).run(iter(trace))
        for core, queue in enumerate(shard_trace(trace, 4)):
            ref = XdpPipeline(countmin_factory(core)).run_batch(queue)
            assert streamed.per_core[core] == ref

    def test_sketch_state_identical(self):
        trace = self.trace()
        a = RssDispatcher(countmin_factory, n_cores=4, steering="ntuple")
        b = RssDispatcher(countmin_factory, n_cores=4, steering="ntuple")
        a.run(trace)
        b.run(iter(trace))
        for nf_a, nf_b in zip(a.nfs, b.nfs):
            assert nf_a.rows == nf_b.rows


class TestIterBatches:
    def test_slices_sequences(self):
        batches = list(iter_batches(list(range(10)), 4))
        assert batches == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_drains_iterators(self):
        batches = list(iter_batches(iter(range(10)), 4))
        assert [list(b) for b in batches] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_empty(self):
        assert list(iter_batches([], 4)) == []
        assert list(iter_batches(iter([]), 4)) == []

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ValueError):
            list(iter_batches([1], 0))


class TestReplaySession:
    def test_feed_finish_matches_run_batch(self):
        trace = FlowGenerator(n_flows=64, seed=1).trace(1000)
        ref = XdpPipeline(countmin_factory(0)).run_batch(trace, batch_size=128)
        session = ReplaySession(XdpPipeline(countmin_factory(0)))
        for batch in iter_batches(trace, 128):
            session.feed(batch)
        assert session.finish() == ref

    def test_feed_after_finish_rejected(self):
        session = ReplaySession(XdpPipeline(countmin_factory(0)))
        session.finish()
        with pytest.raises(RuntimeError):
            session.feed(FlowGenerator(n_flows=4, seed=1).trace(2))

    def test_empty_feed_is_noop(self):
        session = ReplaySession(XdpPipeline(countmin_factory(0)))
        session.feed([])
        result = session.finish()
        assert result.n_packets == 0
        assert result.total_cycles == 0
