"""Golden sha256 digests of results and run metrics.

An absolute oracle for refactors: every primitive runs on fixed small
graphs at 1, 2 and 4 virtual GPUs (the multi-GPU runs under each of the
three partitioners), and the sha256 of its result array
and of ``json.dumps(RunMetrics.to_dict())`` is compared with the digests
committed in ``digests.json``.  Tests that compare one code path with
another cannot catch a change that moves every path the same way; this
one can.

Regenerate (only when virtual numbers are meant to move, with a
CHANGES.md line saying why)::

    PYTHONPATH=src python -m tests.golden.digests --write
"""

import hashlib
import json
import pathlib
import sys

import numpy as np

from repro.graph.build import add_random_weights
from repro.graph.generators import generate_rmat, generate_road
from repro.partition import make_partitioner
from repro.primitives import RUNNERS
from repro.sim.machine import Machine

DIGESTS_PATH = pathlib.Path(__file__).with_name("digests.json")

GPU_COUNTS = (1, 2, 4)

PARTITIONERS = ("random", "biased-random", "metis")

#: per-primitive runner arguments
RUN_KWARGS = {
    "bfs": {"src": 0},
    "dobfs": {"src": 0},
    "sssp": {"src": 0},
    "cc": {},
    "bc": {"src": 0},
    "pr": {"max_iter": 30},
}


def build_graphs():
    """The golden inputs.  ``rmat`` and ``rmat-weighted`` are built with
    the same calls as the ``small_rmat`` / ``weighted_rmat`` fixtures."""
    rmat = generate_rmat(10, 8, seed=42)
    road = generate_road(16, 16, seed=7)
    return {
        "rmat": rmat,
        "rmat-weighted": add_random_weights(rmat, 1, 64, seed=3),
        "road": road,
        "road-weighted": add_random_weights(road, 1, 64, seed=3),
    }


def case_keys():
    """``(key, primitive, graph name, num_gpus, partitioner)`` for every
    golden case; one GPU owns everything, so it runs one partitioner."""
    cases = []
    for family in ("rmat", "road"):
        for prim in sorted(RUN_KWARGS):
            graph = f"{family}-weighted" if prim == "sssp" else family
            for n in GPU_COUNTS:
                for part in PARTITIONERS[:1] if n == 1 else PARTITIONERS:
                    cases.append((f"{prim}/{family}/{n}/{part}",
                                  prim, graph, n, part))
    return cases


def array_digest(arr) -> str:
    """sha256 over dtype, shape and the raw bytes of ``arr``."""
    arr = np.ascontiguousarray(np.asarray(arr))
    h = hashlib.sha256()
    h.update(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def run_case(prim: str, graph, num_gpus: int, partitioner: str) -> dict:
    """Digests of one run's result array and full metrics tree."""
    result, metrics, _ = RUNNERS[prim](
        graph, Machine(num_gpus),
        partitioner=make_partitioner(partitioner), **RUN_KWARGS[prim])
    blob = json.dumps(metrics.to_dict()).encode()
    return {
        "result": array_digest(result),
        "metrics": hashlib.sha256(blob).hexdigest(),
    }


def compute_all(graphs=None) -> dict:
    graphs = graphs or build_graphs()
    return {key: run_case(prim, graphs[g], n, part)
            for key, prim, g, n, part in case_keys()}


def main(argv) -> int:
    digests = compute_all()
    text = json.dumps(digests, indent=1, sort_keys=True) + "\n"
    if "--write" in argv:
        DIGESTS_PATH.write_text(text)
        print(f"wrote {len(digests)} cases to {DIGESTS_PATH}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
