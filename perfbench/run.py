"""The repository benchmark: one command per workload, checked answers.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-single --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for the rationale of each):

* ``serve-single`` — open-loop Poisson load on ``python -m repro.service``.
* ``serve-pool`` — 16 closed-loop callers on ``python -m repro.service
  --pool-shards 2``.
* ``batch-offline`` — in-process ``repro.engine.Engine`` calls on freshly
  generated datasets.

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` makes a separate traced run and reports the per-layer metrics plus
the tracing overhead, writing every span to ``perfbench/results/``.
Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Every
reply is checked against an in-process reference; a mismatch, a server
accounting error or any process, port or thread the run leaves behind
makes the command exit non-zero.
"""

from __future__ import annotations

import argparse
import json
import platform
import signal
import sys
import time
import traceback
from pathlib import Path
from types import FrameType

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Hard wall-clock limit of one run, below the 180 s every run must meet.
WATCHDOG_S = 170
WORKLOADS = ("serve-single", "serve-pool", "batch-offline")


class Timeout(BaseException):
    """The watchdog fired; raised from the SIGALRM handler."""


def _on_alarm(signum: int, frame: FrameType | None) -> None:
    raise Timeout(f"run exceeded {WATCHDOG_S}s")


def _on_term(signum: int, frame: FrameType | None) -> None:
    raise KeyboardInterrupt(f"signal {signum}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    signal.alarm(WATCHDOG_S)

    import procs

    code = 1
    result = None
    try:
        result = _dispatch(args)
        code = 0
    except (Exception, Timeout, KeyboardInterrupt) as exc:  # noqa: BLE001 - report and fail
        traceback.print_exc()
        print(f"benchmark failed: {type(exc).__name__}: {exc}", file=sys.stderr)
    finally:
        signal.alarm(0)
        procs.cleanup()
        survivors = procs.leftovers()
    if survivors:
        print(f"benchmark left work behind: {survivors}", file=sys.stderr)
        return 3
    if result is None:
        return code
    return _report(args, result)


def _dispatch(args: argparse.Namespace):  # type: ignore[no-untyped-def]
    out = HERE / "results"
    if args.workload == "batch-offline":
        import offline

        return offline.run(ROOT, args.seed, args.seconds, bool(args.trace), out)
    import serving

    return serving.run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace), out)


def _report(args: argparse.Namespace, result) -> int:  # type: ignore[no-untyped-def]
    import numpy

    from common import END_TO_END, PER_LAYER, UNITS, nproc

    names = PER_LAYER if args.trace else END_TO_END
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "when": time.strftime("%Y-%m-%dT%H:%M:%S"),
        **result.meta,
    }
    print(f"# {json.dumps(meta)}")
    for name in [name for name in UNITS if name in result.metrics]:
        print(f"{name:34s} {result.metrics[name]:14.6g} {UNITS[name]}")
    for problem in result.problems:
        print(f"PROBLEM: {problem}")
    correct = result.mismatches == 0 and not result.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(result.attempted, 1),
                "failed": result.failed,
                "metrics": {
                    name: {"value": float(result.metrics[name]), "unit": UNITS[name]}
                    for name in names
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
