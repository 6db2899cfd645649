"""Run one benchmark workload (or all four) and print its metrics.

    python3 perfbench/run.py --workload cluster_day --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics with tracing off:
set-up in fresh processes, then timed passes over a trace generated
from ``--seed`` until ``--seconds`` have gone, each pass checked, then
fused-vs-interpreted parity outside the timed region.  ``--trace 1``
measures untraced and traced passes, reports the per-layer metrics with
the tracing coverage and overhead, and writes the spans out.

The report lists every end-to-end metric defined on the workload by
name and unit; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result
(provenance, every metric with its samples, the checks) is written to
``perfbench/out/``.  A failed correctness check prints no numbers and
exits 1; a checkout without the simulator sources exits 2.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import hostclock  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402

#: Fresh-process set-up probes per run (the median is reported).
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120


def _sources_present() -> bool:
    return (ROOT / "src" / "repro" / "__init__.py").is_file()


# -- provenance ---------------------------------------------------------------------


def _git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    """sha256 over the simulator sources (identifies an unversioned tree)."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(workload: str, seed: int, seconds: int, trace: int) -> Dict:
    from repro.analysis.hostmeta import host_metadata

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "host": host_metadata(),
        "held_out_seed": spec.HELD_OUT_SEED,
    }


# -- measuring ----------------------------------------------------------------------


def probe_setup(workload: str, n: int) -> Dict[str, List[float]]:
    """Cold set-up in ``n`` fresh processes: seconds at reference host
    speed per probe, plus the raw wall times."""
    out: Dict[str, List[float]] = {
        "setup_s": [], "setup.import_s": [], "setup.build_s": [],
        "setup_wall_s": [],
    }
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"),
             "--workload", workload],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        out["setup_s"].append(sample["import_s"] + sample["build_s"])
        out["setup.import_s"].append(sample["import_s"])
        out["setup.build_s"].append(sample["build_s"])
        out["setup_wall_s"].append(sample["wall_s"])
    return out


def _timed(run, *args):
    """``run(*args, checkpoint)`` on a calibrated stopwatch:
    (result, seconds at reference speed, wall seconds)."""
    watch = hostclock.Stopwatch()
    result = run(*args, watch.checkpoint)
    watch.stop()
    return result, watch.reference_s, watch.wall_s


def _no_checkpoint() -> None:
    """Traced passes are timed whole: a calibration loop inside the
    region would count as uncovered time."""


def timed_passes(wl, inputs, seconds: float):
    """Untraced passes until ``seconds`` have gone:
    (times at reference speed, wall times, passes)."""
    times, walls, passes = [], [], []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        fleet = wl.build()
        gc.collect()
        result, norm, wall = _timed(wl.run, fleet, inputs)
        times.append(norm)
        walls.append(wall)
        passes.append(result)
    return times, walls, passes


def traced_passes(wl, inputs, seconds: float):
    """Traced passes until ``seconds`` have gone: (region times at
    reference speed, passes, per-layer metrics per pass, last tracer).
    Layer times are scaled to reference speed like their pass."""
    from repro.ebpf import fuse
    from tracer import Tracer, install, layer_metrics

    times, passes, layers = [], [], []
    tracer = None
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        tracer = Tracer()
        install(tracer)
        tracer.timed(wl, "summarize", "accounting")
        try:
            hits = fuse.cache_info()["hits"]
            fleet = wl.build()
            hits = fuse.cache_info()["hits"] - hits
            gc.collect()
            result, norm, wall = _timed(lambda _: tracer.region(
                wl.run, fleet, inputs, _no_checkpoint))
        finally:
            tracer.restore()
        metrics = layer_metrics(tracer, result.packets, result.layers)
        metrics["fuse.cache_hits"] = hits
        for name in metrics:   # layer times at reference host speed too
            if spec.LAYERS[name].unit in ("s", "ns"):
                metrics[name] *= norm / wall
        times.append(norm)
        passes.append(result)
        layers.append(metrics)
    return times, passes, layers, tracer


def _iqr_share(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def _pass_problems(passes) -> Tuple[List[str], int]:
    """Every problem over the passes, and how many passes had one.
    Modeled outputs must repeat bit for bit across passes."""
    problems, failed = [], 0
    for p in passes:
        if p.problems:
            failed += 1
            problems += p.problems
    if len({p.witness for p in passes}) > 1:
        problems.append("modeled outputs differ across repetitions")
        failed += 1
    return problems, failed


# -- the two modes --------------------------------------------------------------------


def measure_e2e(wl, seed: int, seconds: float) -> Dict:
    setup = probe_setup(wl.name, SETUP_PROBES)
    inputs, flowgen_s, _ = _timed(lambda _: wl.inputs(seed))
    times, walls, passes = timed_passes(wl, inputs, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems, failed = _pass_problems(passes)
    attempted = len(passes)
    if wl.has_ir:
        attempted += 1
        parity = workloads.parity_problems(wl, inputs, passes[0])
        if parity:
            failed += 1
            problems += parity

    run_s = statistics.median(times)
    packets = passes[0].packets
    values = {
        "host_pps": packets / run_s,
        "host_run_s": run_s,
        "setup_s": statistics.median(setup["setup_s"]),
        "host_rss_mb": rss_mb,
        **passes[0].model,
    }
    samples = {
        "host_run_s": times,
        "host_pps": [packets / t for t in times],
        "host_run_wall_s": walls,
        **setup,
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "packets_per_pass": packets,
        "passes": len(passes),
        "flowgen_s": flowgen_s,
        "metrics": {
            m.name: {
                "value": values[m.name], "unit": m.unit, "kind": m.kind,
                "spread": _iqr_share(samples.get(m.name, [])),
            }
            for m in spec.metrics_for(wl.name)
        },
        "samples": samples,
        "details": passes[0].details,
    }


def measure_layers(wl, seed: int, seconds: float, spans_path) -> Dict:
    setup = probe_setup(wl.name, 3)
    inputs, flowgen_s, _ = _timed(lambda _: wl.inputs(seed))
    plain_times, _, plain = timed_passes(wl, inputs, seconds / 2)
    traced_times, traced, layers, tracer = traced_passes(
        wl, inputs, seconds / 2
    )
    problems, failed = _pass_problems(plain + traced)
    per_layer = {
        name: statistics.median(pass_layers[name] for pass_layers in layers)
        for name in layers[0]
    }
    per_layer["setup.import_s"] = statistics.median(setup["setup.import_s"])
    per_layer["setup.build_s"] = statistics.median(setup["setup.build_s"])
    per_layer["flowgen.wall_s"] = flowgen_s
    per_layer["trace.overhead"] = (
        statistics.median(traced_times) / statistics.median(plain_times)
    )
    tracer.dump(str(spans_path), {"workload": wl.name, "seed": seed})
    return {
        "attempted": len(plain) + len(traced),
        "failed": failed,
        "problems": problems,
        "packets_per_pass": plain[0].packets,
        "passes": len(plain),
        "traced_passes": len(traced),
        "metrics": {
            layer.name: {
                "value": per_layer[layer.name], "unit": layer.unit,
                "moves": layer.moves,
            }
            for layer in spec.PER_LAYER
        },
        "model": plain[0].model,
        "spans": str(spans_path.relative_to(ROOT)),
    }


# -- reporting ------------------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(wl_name: str, args, outcome: Dict) -> None:
    mode = "traced" if args.trace else "untraced"
    print(f"perfbench {wl_name} seed={args.seed} ({mode}): "
          f"{outcome['passes']} passes of {outcome['packets_per_pass']} "
          f"packets")
    for problem in outcome["problems"]:
        print(f"  FAILED: {problem}")
    if outcome["problems"]:
        return
    for name, m in outcome["metrics"].items():
        extra = ""
        if "kind" in m:
            extra = f"  [{m['kind']}]"
            if m["kind"] == "host" and m.get("spread"):
                extra += f" IQR {m['spread']:.1%} of median"
        print(f"  {name:<28} {_fmt(m['value']):>14} {m['unit']}{extra}")
    samples = outcome.get("details", {}).get("latency_samples")
    if samples:
        print(f"  latency percentiles over {samples} modeled sojourns")
    for line in outcome.get("details", {}).get("targets", []):
        print(f"  {line}")


def run_one(args) -> int:
    wl = workloads.get(args.workload)
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        outcome = measure_layers(
            wl, args.seed, args.seconds, OUT / f"{stem}-spans.json"
        )
    else:
        outcome = measure_e2e(wl, args.seed, args.seconds)
    correct = not outcome["problems"]
    outcome = {
        **provenance(wl.name, args.seed, args.seconds, args.trace),
        "correct": correct,
        **outcome,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(outcome, indent=1) + "\n")
    report(wl.name, args, outcome)
    names = spec.RESULT_E2E if not args.trace else [
        layer.name for layer in spec.PER_LAYER
    ]
    result = {
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {
                "value": outcome["metrics"][name]["value"],
                "unit": outcome["metrics"][name]["unit"],
            }
            for name in names
        } if correct else {},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; one table of all metrics."""
    rows, ok, attempted, failed = {}, True, 0, 0
    for name in spec.WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        stem = f"{name}-seed{args.seed}-trace{args.trace}"
        lines = out.stdout.strip().splitlines()
        final = json.loads(lines[-1]) if lines else {}
        ok = ok and out.returncode == 0 and final.get("correct", False)
        attempted += final.get("attempted", 0)
        failed += final.get("failed", 0)
        path = OUT / f"{stem}.json"
        rows[name] = json.loads(path.read_text())["metrics"] \
            if path.is_file() and final.get("correct") else {}
    names = [m.name for m in spec.END_TO_END] if not args.trace else [
        layer.name for layer in spec.PER_LAYER
    ]
    units = {m.name: m.unit for m in spec.END_TO_END}
    units.update({layer.name: layer.unit for layer in spec.PER_LAYER})
    print()
    print(f"{'metric':<28} {'unit':>7} " + " ".join(
        f"{w:>13}" for w in spec.WORKLOADS))
    for name in names:
        cells = [
            _fmt(rows[w][name]["value"]) if name in rows[w] else "n/a"
            for w in spec.WORKLOADS
        ]
        print(f"{name:<28} {units[name]:>7} "
              + " ".join(f"{c:>13}" for c in cells))
    print(json.dumps({
        "correct": ok, "attempted": max(attempted, 1), "failed": failed,
        "metrics": {
            f"{w}/{n}": {"value": m["value"], "unit": m["unit"]}
            for w, row in rows.items() for n, m in row.items()
        },
    }))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True,
                        choices=sorted(spec.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not _sources_present():
        print(f"perfbench: no simulator sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
