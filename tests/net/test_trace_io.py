"""Tests for trace CSV persistence."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.flowgen import FlowGenerator
from repro.net.packet import Packet
from repro.net.trace import (
    TraceFormatError,
    dump_trace,
    dumps_trace,
    iter_trace,
    iter_trace_str,
    load_trace,
    loads_trace,
    write_trace_iter,
)


class TestRoundTrip:
    def test_file_round_trip(self, tmp_path):
        trace = FlowGenerator(32, seed=4).trace(100, inter_arrival_ns=50)
        path = tmp_path / "trace.csv"
        assert dump_trace(trace, path) == 100
        loaded = load_trace(path)
        assert loaded == trace

    def test_string_round_trip(self):
        trace = FlowGenerator(8, seed=4).trace(25)
        assert loads_trace(dumps_trace(trace)) == trace

    def test_empty_trace(self):
        assert loads_trace(dumps_trace([])) == []

    @given(
        st.lists(
            st.builds(
                Packet,
                src_ip=st.integers(0, 0xFFFFFFFF),
                dst_ip=st.integers(0, 0xFFFFFFFF),
                src_port=st.integers(0, 0xFFFF),
                dst_port=st.integers(0, 0xFFFF),
                proto=st.integers(0, 255),
                size=st.integers(64, 1500),
                timestamp_ns=st.integers(0, 10**12),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, trace):
        assert loads_trace(dumps_trace(trace)) == trace


class TestStreamingIO:
    def test_iter_trace_matches_load_trace(self, tmp_path):
        trace = FlowGenerator(32, seed=4).trace(200, inter_arrival_ns=50)
        path = tmp_path / "trace.csv"
        dump_trace(trace, path)
        assert list(iter_trace(path)) == load_trace(path) == trace

    def test_generator_to_disk_and_back(self, tmp_path):
        """Full streaming round trip: generator in, generator out."""
        fg = FlowGenerator(16, seed=9, distribution="zipf")
        path = tmp_path / "trace.csv"
        assert write_trace_iter(fg.iter_trace(500), path) == 500
        # A fresh generator with the same seed replays the same packets.
        ref = FlowGenerator(16, seed=9, distribution="zipf").trace(500)
        assert list(iter_trace(path)) == ref

    def test_iter_trace_is_lazy(self, tmp_path):
        """The file opens on first next(), not at call time."""
        it = iter_trace(tmp_path / "missing.csv")
        with pytest.raises(OSError):
            next(it)

    def test_iter_trace_str_streams(self):
        trace = FlowGenerator(8, seed=4).trace(25)
        it = iter_trace_str(dumps_trace(trace))
        assert next(it) == trace[0]
        assert list(it) == trace[1:]

    def test_partial_consumption_then_close(self, tmp_path):
        path = tmp_path / "trace.csv"
        dump_trace(FlowGenerator(8, seed=4).trace(100), path)
        it = iter_trace(path)
        next(it)
        it.close()  # must release the file without error

    def test_dump_trace_accepts_generators(self, tmp_path):
        fg = FlowGenerator(8, seed=2)
        path = tmp_path / "trace.csv"
        assert dump_trace(fg.iter_trace(50), path) == 50
        assert load_trace(path) == FlowGenerator(8, seed=2).trace(50)


class TestValidation:
    def test_bad_header_rejected(self):
        with pytest.raises(TraceFormatError, match="not a trace file"):
            loads_trace("a,b,c\n1,2,3\n")

    def test_bad_field_count_rejected(self):
        text = dumps_trace(FlowGenerator(2, seed=1).trace(1))
        with pytest.raises(TraceFormatError, match="expected 7 fields"):
            loads_trace(text + "1,2,3\n")

    def test_non_integer_rejected(self):
        text = dumps_trace([]) + "a,b,c,d,e,f,g\n"
        with pytest.raises(TraceFormatError, match="line 2"):
            loads_trace(text)

    def test_invalid_packet_values_propagate(self):
        text = dumps_trace([]) + "99999999999,0,0,0,17,64,0\n"
        with pytest.raises(TraceFormatError, match="line 2: IPv4"):
            loads_trace(text)

    @pytest.mark.parametrize(
        "bad_row, match",
        [
            ("1,2,3", "line 3: expected 7 fields"),
            ("a,b,c,d,e,f,g", "line 3"),
            ("1,2,3,4,17,64,-5", "line 3: timestamp_ns must be non-negative"),
        ],
    )
    def test_streaming_reader_raises_same_line_numbered_errors(
        self, bad_row, match
    ):
        """Streaming and materialized readers share one row codec."""
        text = dumps_trace(FlowGenerator(2, seed=1).trace(1)) + bad_row + "\n"
        it = iter_trace_str(text)
        next(it)  # the good row streams out fine
        with pytest.raises(TraceFormatError, match=match):
            next(it)
        with pytest.raises(TraceFormatError, match=match):
            loads_trace(text)

    def test_streaming_reader_rejects_bad_header_eagerly(self):
        with pytest.raises(ValueError, match="not a trace file"):
            next(iter_trace_str("a,b,c\n1,2,3\n"))

    def test_replay_produces_identical_measurements(self, tmp_path):
        """A persisted trace reproduces the exact cycle counts."""
        from repro.ebpf.cost_model import ExecMode
        from repro.ebpf.runtime import BpfRuntime
        from repro.net.xdp import XdpPipeline
        from repro.nfs import CountMinNF

        trace = FlowGenerator(64, seed=4).trace(300)
        path = tmp_path / "t.csv"
        dump_trace(trace, path)
        results = []
        for t in (trace, load_trace(path)):
            nf = CountMinNF(BpfRuntime(mode=ExecMode.ENETSTL, seed=4), depth=4)
            results.append(XdpPipeline(nf).run(t).cycles_per_packet)
        assert results[0] == results[1]
