"""Run one benchmark workload and print its result as the last output line.

Usage, from the repository root::

    python3 eqbench/run.py --workload decide-cold --seed 3 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the per-layer
metrics (a separate traced run).  Diagnostics — machine facts, a host-speed
probe, sample counts — are printed on lines starting with ``#``; the last
line is the JSON result.  A failed premise or a missing program ends the run
with a non-zero exit code and no result line.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("serve-warm", "decide-cold", "reformulate-cold", "serve-delta")


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _pin_to_one_cpu() -> int | None:
    """Pin this process, and so every process it starts, to one CPU.

    The client and the daemon then hand each request over by a context
    switch on one core.  Across cores, a round trip depended on whether the
    other core was idle — on a shared 2-core host the serve-warm throughput
    of interleaved 10-s runs spread 0.31 (interquartile share of the median)
    unpinned and 0.09 pinned.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    if args.seconds <= 0:
        print("eqbench: --seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"eqbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from eqbench import workloads
    from eqbench.daemon import PremiseError
    from eqbench.measure import machine_facts

    # SIGTERM unwinds like an exception, so every daemon started is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.setup_probe:
        workloads.setup_probe(args.workload, args.seed)
        return 0
    pinned = _pin_to_one_cpu()
    facts = {**machine_facts(ROOT), "pinned_cpu": pinned}
    try:
        result = workloads.run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    except PremiseError as exc:
        print(f"eqbench: premise failed on {args.workload}: {exc}", file=sys.stderr)
        return 3
    print("# " + json.dumps({"workload": args.workload, "seed": args.seed, **facts}))
    print("# " + json.dumps(result.notes))
    print(
        json.dumps(
            {
                "correct": result.failed == 0,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
