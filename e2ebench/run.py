"""Benchmark of record: end-to-end query and set-up metrics, and a traced
per-layer pass, for one workload.

Run from the repository root::

    python3 e2ebench/run.py --workload rmat-bfs --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the traced per-layer pass instead.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The library is imported from
``src/`` next to this directory; without it the script exits with an
error and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_library() -> None:
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"cannot import the library from {SRC}: {exc}")
    if SRC not in Path(repro.__file__).resolve().parents:
        sys.exit(f"imported repro from {repro.__file__}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_library()
    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    if args.trace:
        report = harness.per_layer(workload, args.seed, args.seconds,
                                   out_dir=HERE / "out")
    else:
        report = harness.end_to_end(workload, args.seed, args.seconds)
    print(json.dumps(report.as_json()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
