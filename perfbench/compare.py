"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py PARENT CHANGE

``PARENT`` and ``CHANGE`` are result files written by ``run.py`` (under
``perfbench/out/``) or directories of them — typically ten seeds of
every workload for each commit.  Runs pair up by workload and seed.

Each workload row and end-to-end metric is classified with the bounds
in ``spec.py`` (the ones ``BENCHMARK.json`` lists):

- **improved**: the change wins at least nine tenths of the pairs (ties
  count for neither), over at least ten pairs, and the medians differ
  by more than the parent's own spread (its quartile distance);
- **worse**: the change's median is worse than the parent's by more
  than the metric's bound;
- **unresolved**: the parent's spread is wider than the bound and the
  change does not read better on every run, or a gain that would count
  rests on fewer than ten pairs;
- **unchanged**: everything else.

Modeled metrics are deterministic for a seed, so a difference between
paired runs is reported as not bit-identical whatever its size.  With
a single run per side, host metrics fall back to the runs' per-pass
samples.  Per-layer metrics (from ``--trace 1`` runs) are listed,
report-only, where their medians moved by more than the parent's
spread.  Exits 1 if any end-to-end metric is worse.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
from typing import Dict, List, Sequence, Tuple

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import spec  # noqa: E402

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: str) -> List[Dict]:
    """Every result in a file or directory (span dumps skipped)."""
    p = pathlib.Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    results = []
    for f in files:
        if f.name.endswith("-spans.json"):
            continue
        data = json.loads(f.read_text())
        if "workload" in data and "metrics" in data:
            results.append(data)
    return results


def _quartile_gap(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def classify(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
) -> Tuple[str, float]:
    """(verdict, signed change of the median as a share of the
    parent's, positive = better) for one host metric."""
    sign = 1.0 if better == "higher" else -1.0
    med_p = statistics.median(parent)
    med_c = statistics.median(change)
    gain = sign * (med_c - med_p) / abs(med_p) if med_p else 0.0
    gap = _quartile_gap(parent)
    spread = gap / abs(med_p) if med_p else 0.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    all_better = all(
        sign * (c - p) > 0 for c in change for p in parent
    )
    gains = (
        gain > 0
        and wins >= WIN_SHARE * len(pairs)
        and abs(med_c - med_p) > gap
    )
    if gains and len(pairs) >= MIN_PAIRS:
        return "improved", gain
    if gains or (spread > bound and not all_better):
        return "unresolved", gain
    if gain < -bound:
        return "worse", gain
    return "unchanged", gain


def classify_model(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
) -> Tuple[str, float, bool]:
    """Modeled metric: (verdict, gain, bit-identical) over paired seeds."""
    identical = list(parent) == list(change)
    sign = 1.0 if better == "higher" else -1.0
    med_p = statistics.median(parent)
    med_c = statistics.median(change)
    gain = sign * (med_c - med_p) / abs(med_p) if med_p else 0.0
    if identical or gain == 0:
        return "unchanged", gain, identical
    if gain > 0:
        return "improved", gain, identical
    return ("worse" if gain < -bound else "unchanged"), gain, identical


def _by_seed(results: List[Dict], workload: str, trace: int) -> Dict[int, Dict]:
    return {
        r["seed"]: r for r in results
        if r["workload"] == workload and r["trace"] == trace
        and r.get("correct")
    }


def compare(parent: List[Dict], change: List[Dict]) -> Tuple[List[str], bool]:
    """Report lines, and whether any end-to-end metric got worse."""
    lines: List[str] = []
    any_worse = False
    for workload in spec.WORKLOADS:
        a, b = _by_seed(parent, workload, 0), _by_seed(change, workload, 0)
        seeds = sorted(set(a) & set(b))
        if seeds:
            lines.append(f"{workload}: {len(seeds)} paired run(s)")
        for metric in spec.metrics_for(workload) if seeds else ():
            name = metric.name
            pa = [a[s]["metrics"][name]["value"] for s in seeds]
            pb = [b[s]["metrics"][name]["value"] for s in seeds]
            note = ""
            if metric.kind == "model":
                verdict, gain, same = classify_model(
                    pa, pb, metric.better, metric.bound)
                note = "bit-identical" if same else "NOT bit-identical"
            else:
                if len(seeds) == 1 and name in a[seeds[0]].get("samples", {}):
                    pa = a[seeds[0]]["samples"][name]
                    pb = b[seeds[0]]["samples"][name]
                    note = "per-pass samples of one run"
                verdict, gain = classify(pa, pb, metric.better, metric.bound)
            any_worse = any_worse or verdict == "worse"
            lines.append(
                f"  {name:<18} {verdict:<10} {gain:+7.2%}  "
                f"parent {statistics.median(pa):.6g} -> "
                f"change {statistics.median(pb):.6g} {metric.unit}"
                f"  (bound {metric.bound:.0%}) {note}".rstrip()
            )
        a, b = _by_seed(parent, workload, 1), _by_seed(change, workload, 1)
        seeds = sorted(set(a) & set(b))
        moved = []
        for layer in spec.PER_LAYER if seeds else ():
            pa = [a[s]["metrics"][layer.name]["value"] for s in seeds]
            pb = [b[s]["metrics"][layer.name]["value"] for s in seeds]
            med_a, med_b = statistics.median(pa), statistics.median(pb)
            if med_a != med_b and abs(med_b - med_a) > _quartile_gap(pa):
                moved.append(
                    f"    {layer.name:<28} {med_a:.6g} -> {med_b:.6g} "
                    f"{layer.unit}"
                )
        if moved:
            lines.append(f"  per-layer changes beyond the parent's spread "
                         f"({len(seeds)} traced run(s), report-only):")
            lines += moved
    return lines, any_worse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("parent", help="result file or directory")
    parser.add_argument("change", help="result file or directory")
    args = parser.parse_args(argv)
    lines, any_worse = compare(load(args.parent), load(args.change))
    if not lines:
        print("no workload has correct results on both sides")
        return 2
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
