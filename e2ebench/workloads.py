"""The benchmark's workloads and the primitive adapters they run.

Why each workload exists, and which layer it should stress, is recorded
in ``README.md`` next to this file.  Every input comes from the workload
seed: it seeds the graph generator and, through a separate stream, the
choice of query sources.  The library only ever sees the generated
graph and the source vertices.

Construction follows the public one-shots ``run_bfs_batch`` and
``run_pagerank``: the default partitioner, the default allocation scheme
(PageRank passes the same fixed preallocation ``run_pagerank`` passes),
and the enactor's default backend.  A change of a library default is
therefore measured without editing the benchmark.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List

import numpy as np

from repro.analysis.validate import validate_bfs, validate_pagerank
from repro.baselines.reference import pagerank_reference
from repro.graph.csr import CsrGraph
from repro.graph.generators import generate_rmat, generate_road
from repro.primitives.bfs import BFSIteration, BFSProblem
from repro.primitives.pr import PRIteration, PRProblem
from repro.sim.memory import FixedPrealloc

__all__ = ["Bfs", "PageRank", "Workload", "WORKLOADS"]

#: virtual GPUs per machine on every workload
NUM_GPUS = 4

#: relative tolerance of PageRank against the CPU reference (the same
#: tolerance the integration tests use)
PR_RTOL = 1e-5


class Bfs:
    """BFS from one source per query: ``enact(src)`` then ``labels()``."""

    problem_cls = BFSProblem
    iteration_cls = BFSIteration
    result_attr = "labels"

    @staticmethod
    def enactor_kwargs() -> dict:
        return {}

    @staticmethod
    def sources(graph: CsrGraph, seed: int) -> Iterator[int]:
        """Endless seeded stream of sources with out-degree > 0."""
        rng = np.random.default_rng([seed, 1])
        candidates = np.flatnonzero(graph.out_degree() > 0)
        while True:
            yield int(candidates[rng.integers(candidates.size)])

    @staticmethod
    def query(enactor, problem, src):
        metrics = enactor.enact(src=src)
        return problem.labels(), metrics

    @staticmethod
    def oracle(problem) -> Callable[[int, np.ndarray], List[str]]:
        graph = problem.graph
        return lambda src, labels: validate_bfs(graph, src, labels)


class PageRank:
    """One full PageRank run per query: ``enact()`` (which resets) then
    ``ranks()``."""

    problem_cls = PRProblem
    iteration_cls = PRIteration
    result_attr = "ranks"

    @staticmethod
    def enactor_kwargs() -> dict:
        # run_pagerank's choice: PR's memory needs are known up front
        return {"scheme": FixedPrealloc(frontier_factor=1.05)}

    @staticmethod
    def sources(graph: CsrGraph, seed: int) -> Iterator[None]:
        return itertools.repeat(None)

    @staticmethod
    def query(enactor, problem, _src):
        metrics = enactor.enact()
        return problem.ranks(), metrics

    @staticmethod
    def oracle(problem) -> Callable[[None, np.ndarray], List[str]]:
        graph, damping = problem.graph, problem.damping
        reference = pagerank_reference(
            graph, damping=damping, threshold=problem.threshold,
            max_iterations=problem.max_iter,
        )

        def check(_src, ranks: np.ndarray) -> List[str]:
            problems = validate_pagerank(graph, ranks, damping=damping)
            if ranks.shape != reference.shape or not np.allclose(
                    ranks, reference, rtol=PR_RTOL):
                problems.append("ranks differ from pagerank_reference")
            return problems

        return check


@dataclass(frozen=True)
class Workload:
    name: str
    primitive: type
    #: seed -> graph
    make_graph: Callable[..., CsrGraph]

    def graph(self, seed: int) -> CsrGraph:
        return self.make_graph(seed=seed)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("rmat-bfs", Bfs, functools.partial(generate_rmat, 14, 16)),
    Workload("road-bfs", Bfs, functools.partial(generate_road, 128, 128)),
    Workload("rmat-pagerank", PageRank,
             functools.partial(generate_rmat, 12, 16)),
)}
