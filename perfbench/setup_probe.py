"""Cold set-up of one workload, timed in a fresh process.

    python3 perfbench/setup_probe.py --workload fleet_clean

Prints one JSON line: ``import_s`` (importing the simulator modules the
workload needs) and ``build_s`` (building its fleets: verification,
fusion, per-core registries and runtimes), both at the reference host
speed (:mod:`hostclock`), and ``wall_s``, their raw wall-clock sum.  It must run in a process
of its own: the fused-chain and compiled-program caches, and Python's
module cache, make a second build in the same process cheaper than
what a user pays on every fresh run.
"""

from __future__ import annotations

import argparse
import importlib
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import hostclock  # noqa: E402
import workloads  # noqa: E402  (stdlib-only at import time)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    wl = workloads.get(args.workload)
    watch = hostclock.Stopwatch()
    for name in wl.modules:
        importlib.import_module(name)
    watch.checkpoint()
    wl.build()
    watch.stop()
    import_s, build_s = watch.reference
    print(json.dumps(
        {"import_s": import_s, "build_s": build_s, "wall_s": watch.wall_s}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
