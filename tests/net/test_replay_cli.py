"""Tests for the data-plane CLI (python -m repro.net.replay): trace and
synthetic replay, steering/NUMA flags, latency/SLO reporting, and the
argument checks shared by every run shape.  The fault-injection side of
the same CLI is covered in tests/faults/test_chaos_cli.py."""

import json

import pytest

from repro.ebpf.cost_model import ExecMode
from repro.ebpf.runtime import BpfRuntime
from repro.net.flowgen import FlowGenerator
from repro.net.multicore import RssDispatcher
from repro.net.queueing import ArrivalProcess, QueueingConfig
from repro.net.replay import NF_BUILDERS, main, parse_args, run
from repro.net.slo import SloConfig, SloController
from repro.net.trace import dump_trace, dumps_trace, load_trace
from repro.nfs.degrade import ColdStartWarmup


@pytest.fixture()
def trace_csv(tmp_path):
    path = tmp_path / "trace.csv"
    dump_trace(
        FlowGenerator(n_flows=128, seed=5, distribution="zipf").trace(2000),
        path,
    )
    return str(path)


def _factory(core):
    return NF_BUILDERS["countmin"](
        BpfRuntime(mode=ExecMode.ENETSTL, seed=core)
    )


class TestReplayFunction:
    @pytest.mark.parametrize("policy", ["rss", "rekey", "ntuple"])
    def test_policies_accepted(self, trace_csv, policy):
        result = run(parse_args([trace_csv, "--cores", "4",
                                 "--policy", policy]))
        assert result.n_packets == 2000

    def test_numa_nodes(self, trace_csv):
        local = run(parse_args([trace_csv, "--cores", "4"]))
        remote = run(parse_args([trace_csv, "--cores", "4",
                                 "--numa-nodes", "2"]))
        assert remote.total_cycles == local.total_cycles
        assert remote.total_numa_cycles > 0


class TestCli:
    def test_basic_invocation(self, trace_csv, capsys):
        assert main([trace_csv, "--cores", "4", "--policy", "ntuple"]) == 0
        out = capsys.readouterr().out
        assert "replayed 2000 packets on 4 core(s)" in out
        assert "policy=ntuple" in out
        assert "imbalance" in out
        assert "accounting: OK" in out

    def test_stream_and_materialized_print_same_metrics(
        self, trace_csv, capsys
    ):
        """The CLI streams the trace off disk; its report matches a
        dispatcher fed the fully loaded packet list."""
        assert main([trace_csv, "--cores", "4", "--json"]) == 0
        streamed = json.loads(capsys.readouterr().out)
        materialized = RssDispatcher(_factory, n_cores=4).run(
            load_trace(trace_csv)
        )
        assert streamed["total_cycles"] == materialized.total_cycles
        assert streamed["actions"] == dict(materialized.actions)
        assert streamed["per_core_packets"] == [
            r.n_packets for r in materialized.per_core
        ]
        assert streamed["imbalance"] == round(materialized.imbalance, 3)
        assert streamed["aggregate_mpps"] == round(
            materialized.aggregate_mpps, 3
        )

    def test_numa_flag_prints_penalty(self, trace_csv, capsys):
        assert main([trace_csv, "--numa-nodes", "2"]) == 0
        assert "numa cycles" in capsys.readouterr().out

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.csv")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_trace_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,trace\n")
        assert main([str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad_row, match",
        [
            ("1,2,3,4,17,64", "line 3: expected 7 fields"),
            ("1,2,3,4,17,64,x", "line 3"),
            ("1,2,3,4,17,64,-5", "line 3: timestamp_ns must be non-negative"),
        ],
    )
    def test_bad_trace_row_exits_two(self, tmp_path, capsys, bad_row, match):
        """A bad row is bad input (exit 2), not a data-plane crash (1),
        even after good rows have streamed into the dispatcher."""
        path = tmp_path / "bad.csv"
        path.write_text(
            dumps_trace(FlowGenerator(4, seed=1).trace(1)) + bad_row + "\n"
        )
        assert main([str(path), "--cores", "2"]) == 2
        err = capsys.readouterr().err
        assert match in err
        assert "crashed" not in err

    def test_unknown_policy_rejected_by_argparse(self, trace_csv):
        with pytest.raises(SystemExit):
            main([trace_csv, "--policy", "magic"])

    @pytest.mark.parametrize("argv", [
        ["--cores", "0"],
        ["--cores", "-2"],
        ["--cores", "four"],
        ["--batch-size", "0"],
        ["--numa-nodes", "-3"],
        ["--numa-nodes", "1.5"],
    ])
    def test_invalid_numeric_args_exit_nonzero(self, trace_csv, argv, capsys):
        """Bad --cores/--batch-size/--numa-nodes: clean argparse error,
        not a traceback."""
        with pytest.raises(SystemExit) as exc:
            main([trace_csv] + argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "positive integer" in err or "is not an integer" in err


class TestLatencyFlags:
    def test_burst_adds_latency_lines(self, trace_csv, capsys):
        assert main([trace_csv, "--cores", "4", "--burst", "4e6"]) == 0
        out = capsys.readouterr().out
        assert "latency" in out
        assert "p99" in out
        assert "overflow" in out

    def test_burst_json_report(self, trace_csv, capsys):
        assert main(
            [trace_csv, "--cores", "4", "--burst", "4e6", "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["burst"] == "4e6"
        latency = report["latency"]
        assert latency["n"] == 2000
        assert latency["p50_us"] <= latency["p99_us"]
        assert report["overflow"] == 0

    def test_slo_verdict_met(self, trace_csv, capsys):
        assert main(
            [trace_csv, "--cores", "4", "--burst", "2e6",
             "--slo-p99", "500", "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["slo"]["target_p99_us"] == 500.0
        assert report["slo"]["met"] is True

    def test_autoscale_loop_reports_timeline(self, trace_csv, capsys):
        assert main(
            [trace_csv, "--cores", "4", "--initial-cores", "2",
             "--burst", "4e6", "--slo-p99", "100", "--autoscale",
             "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["autoscale"] is True
        assert report["initial_cores"] == 2
        assert report["accounted"] is True
        assert len(report["timeline"]) >= 1
        assert "recovery_s" in report["slo"]

    def test_autoscale_matches_direct_controller(self, trace_csv, capsys):
        """``--autoscale`` is the documented full loop: an SloController
        with cold-start warm-up, whichever conditions are on the line."""
        assert main(
            [trace_csv, "--cores", "4", "--initial-cores", "2",
             "--burst", "9e6", "--slo-p99", "60", "--autoscale", "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        direct = SloController(
            _factory,
            max_cores=4,
            initial_cores=2,
            config=SloConfig(target_p99_us=60.0),
            queueing=QueueingConfig(),
            warmup=ColdStartWarmup(),
        ).run(ArrivalProcess.from_spec("9e6").stamp(load_trace(trace_csv)))
        assert report["latency"] == direct.latency_summary()
        assert report["timeline"] == [e.describe() for e in direct.timeline]
        assert report["slo"]["recovery_s"] == direct.recovery_s()

    def test_same_seed_same_json(self, trace_csv, capsys):
        argv = [trace_csv, "--cores", "4", "--burst", "8e6", "--json",
                "--seed", "3"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("argv, hint", [
        (["--slo-p99", "60"], "--slo-p99 needs --burst"),
        (["--autoscale", "--burst", "1e6"], "--autoscale needs"),
        (["--burst", "1e6", "--slo-p99", "60", "--initial-cores", "2"],
         "--initial-cores"),
        (["--burst", "1e6", "--slo-p99", "60", "--autoscale",
          "--initial-cores", "9"], "exceeds --cores"),
        (["--burst", "nope"], "burst spec"),
        (["--burst", "1e6:2e6"], "burst spec"),
        (["--burst", "1e6", "--slo-p99", "-5"], "positive"),
        # Fault flags: the plan and detector are built while checking.
        (["--cores", "4", "--crash-core", "4"], "nonexistent core"),
        (["--cores", "4", "--wedge-core", "7"], "nonexistent core"),
        (["--crash-core", "-1"], "non-negative core index"),
        (["--crash-core", "1", "--crash-at", "-5"], "crash_at"),
        (["--wedge-core", "1", "--wedge-at", "-5"], "wedge_at"),
        (["--crash-core", "2", "--wedge-core", "2"], "both crash and wedge"),
        (["--crash-at", "100"], "--crash-at needs --crash-core"),
        (["--wedge-at", "100"], "--wedge-at needs --wedge-core"),
        (["--detection-mean", "100"], "--detection-mean needs --wedge-core"),
        (["--wedge-core", "1", "--detection-mean", "10"], "min_packets"),
        # Non-finite floats stop at the boundary, not deep in the run.
        (["--burst", "nan"], "positive finite"),
        (["--burst", "inf"], "positive finite"),
        (["--burst", "1e6:2e6:nan:0.001"], "positive finite"),
        (["--burst", "1e6:inf:0.001:0.001"], "positive finite"),
        (["--burst", "1e6", "--slo-p99", "nan"], "positive finite"),
        (["--burst", "1e6", "--slo-p99", "inf"], "positive finite"),
    ])
    def test_flag_validation_exits_two(self, trace_csv, argv, hint, capsys):
        with pytest.raises(SystemExit) as exc:
            main([trace_csv] + argv)
        assert exc.value.code == 2
        assert hint in capsys.readouterr().err
