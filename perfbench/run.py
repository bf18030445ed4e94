"""Benchmark entry point.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload signoff --seed 359320 --seconds 30 --trace 0

Builds nothing: the program is pure Python and is imported from the
checkout's ``src/``.  Prints a human-readable log on stderr and, as the
last line of stdout, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exits non-zero without printing a result
when the checkout has no program to measure.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def bootstrap() -> None:
    """Import the checkout's own ``repro`` (never an installed copy)."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program at {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("signoff", "table", "eco"))
    parser.add_argument("--seed", type=int, default=359320)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap()
    import harness

    result = harness.execute(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        import_seconds=time.perf_counter() - START,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
