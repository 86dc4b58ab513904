"""Timed and traced passes of the benchmark.

The load generator is one client in a closed loop with no think time:
it sends the next query only after the previous one returned, on the
calling thread.  A query is ``enact`` plus result extraction; the oracle
runs after the clock stops.

:func:`end_to_end` gives the user-visible metrics with tracing off.
:func:`per_layer` is the separate traced pass: spans around calls into
each module's public functions (see ``spans.py``), plus the backend and
GPU-count legs.  ``README.md`` says what each metric should move.
"""

from __future__ import annotations

import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Tuple)

import numpy as np

import repro.core.enactor as enactor_module
import repro.core.problem as problem_module
from repro.core.backend import ExecutionBackend, ProcessesBackend, ThreadsBackend
from repro.core.enactor import Enactor
from repro.core.stats import OpStats
from repro.partition.base import Partitioner
from repro.partition.border import edge_cut
from repro.sim.interconnect import Interconnect
from repro.sim.kernel import KernelModel
from repro.sim.machine import Machine
from repro.sim.stream import Stream
from spans import Boundary, SpanRecorder, tracing
from workloads import NUM_GPUS, Workload

__all__ = ["Report", "end_to_end", "per_layer"]

#: rounds per timed run.  Each round sets up afresh and then measures
#: its share of the run, so the set-ups are spread over the whole run
#: and meet the host's slow and fast phases alike; setup_s is their median
ROUNDS = 10
#: queries p90 needs so that ten samples lie beyond it
MIN_P90_SAMPLES = 100
#: share of the run the untraced serial leg of the traced pass measures;
#: the other legs replay its sources
LEG_SHARE = 0.15
MIN_LEG_QUERIES = 5
#: worker cap for the threads and processes legs (the host has 2 cores)
POOL_WORKERS = 2

Metrics = Dict[str, Tuple[float, str]]


@dataclass
class Report:
    attempted: int = 0
    failed: int = 0
    metrics: Metrics = field(default_factory=dict)

    def as_json(self) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in self.metrics.items()},
        }


@dataclass
class Instance:
    """A set-up workload: graph, partitioned problem and its enactor."""

    workload: Workload
    problem: object
    enactor: Enactor

    def query(self, src):
        return self.workload.primitive.query(self.enactor, self.problem, src)

    def close(self) -> None:
        self.enactor.close()
        self.problem.release()


def make_instance(workload: Workload, graph, num_gpus: int, backend=None
                  ) -> Instance:
    prim = workload.primitive
    problem = prim.problem_cls(graph, Machine(num_gpus))
    kwargs = prim.enactor_kwargs()
    if backend is not None:
        kwargs["backend"] = backend
    enactor = Enactor(problem, prim.iteration_cls, **kwargs)
    return Instance(workload, problem, enactor)


def set_up(workload: Workload, seed: int, sources: Optional[Iterator] = None):
    """Everything before the first timed query, warm-up query included.

    The warm-up takes the next source of ``sources``, which is made from
    the seed when not given.  Returns ``(instance, sources, seconds)``.
    """
    t0 = time.perf_counter()
    graph = workload.graph(seed)
    inst = make_instance(workload, graph, NUM_GPUS)
    if sources is None:
        sources = workload.primitive.sources(graph, seed)
    inst.query(next(sources))
    return inst, sources, time.perf_counter() - t0


class RunSummary(NamedTuple):
    """What the harness keeps of a query's ``RunMetrics``: whole metrics
    objects would grow the process and bias ``peak_rss_mb``."""

    elapsed: float
    supersteps: int
    items_sent: int
    bytes_sent: int
    peak_device: int

    @classmethod
    def of(cls, run) -> "RunSummary":
        return cls(
            run.elapsed, len(run.iterations), run.total_items_sent,
            sum(sum(i.bytes_sent.values()) for i in run.iterations),
            max(run.peak_memory.values(), default=0),
        )


@dataclass
class Tally:
    """Outcome of a run of queries; ``sources`` lists every one sent."""

    sources: list = field(default_factory=list)
    failed: int = 0
    walls: List[float] = field(default_factory=list)
    runs: List[RunSummary] = field(default_factory=list)
    #: recorder query id of each successful query (traced legs)
    qids: List[int] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.sources)

    def p50(self) -> float:
        return float(np.median(self.walls))


def run_queries(
    inst: Instance,
    sources: Iterable,
    check: Callable,
    stop: Callable[[Tally], bool] = lambda _t: False,
    recorder: Optional[SpanRecorder] = None,
    tally: Optional[Tally] = None,
) -> Tally:
    """Closed loop over ``sources`` until they run out or ``stop``.

    A query that raises, or whose result fails the oracle, is counted
    in ``failed`` and the loop goes on.  Outcomes are added to ``tally``
    when given.
    """
    tally = Tally() if tally is None else tally
    it = iter(sources)
    while not stop(tally):
        try:
            src = next(it)
        except StopIteration:
            break
        tally.sources.append(src)
        qid = tally.attempted
        try:
            if recorder is None:
                t0 = time.perf_counter()
                result, run = inst.query(src)
                wall = time.perf_counter() - t0
            else:
                recorder.query = qid
                try:
                    with recorder.span("query", "harness") as span:
                        result, run = inst.query(src)
                finally:
                    recorder.query = None
                wall = span.duration
            problems = check(src, result)
        except Exception as exc:  # noqa: BLE001 - counted, reported, loop goes on
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            tally.failed += 1
            print(f"query {qid} (source {src}) failed: {problems[0]}",
                  file=sys.stderr)
            continue
        tally.walls.append(wall)
        tally.runs.append(RunSummary.of(run))
        tally.qids.append(qid)
    return tally


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# end-to-end pass
def end_to_end(workload: Workload, seed: int, seconds: float) -> Report:
    """User-visible metrics, tracing off."""
    setups: List[float] = []
    tally = Tally()
    sources = check = None
    measured = 0.0
    for r in range(ROUNDS):
        inst, sources, dt = set_up(workload, seed, sources)
        setups.append(dt)
        if check is None:
            # once per run: the PageRank oracle computes its reference here
            check = workload.primitive.oracle(inst.problem)
        # each round measures up to its share of ``seconds``, and at
        # least one query; the last runs on (until twice ``seconds`` in
        # all) only while p90 still lacks the samples it needs
        start, sent = time.perf_counter(), tally.attempted
        until = seconds * (r + 1) / ROUNDS - measured
        last = r == ROUNDS - 1

        def stop(t: Tally) -> bool:
            elapsed = time.perf_counter() - start
            if elapsed < until or t.attempted == sent:
                return False
            return not last or len(t.walls) >= MIN_P90_SAMPLES or (
                measured + elapsed >= 2 * seconds)

        run_queries(inst, sources, check, stop=stop, tally=tally)
        measured += time.perf_counter() - start
        inst.close()
    if not tally.walls:
        raise RuntimeError(f"no query of {workload.name} succeeded")
    if len(tally.walls) < MIN_P90_SAMPLES:
        print(f"warning: {len(tally.walls)} queries, fewer than the "
              f"{MIN_P90_SAMPLES} p90 needs", file=sys.stderr)
    walls_ms = np.asarray(tally.walls) * 1e3
    # p50 and throughput go to stderr only: see README.md, "Noise"
    print(f"{workload.name}: {len(walls_ms)} queries, {len(setups)} set-ups; "
          f"p50 {np.percentile(walls_ms, 50):.2f} ms, "
          f"{_per_s(tally.walls):.2f} queries/s", file=sys.stderr)
    return Report(tally.attempted, tally.failed, {
        "setup_s": (statistics.median(setups), "s"),
        "query_p90_ms": (float(np.percentile(walls_ms, 90)), "ms"),
        "virtual_ms": (
            float(np.median([r.elapsed for r in tally.runs])) * 1e3, "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    })


def _per_s(walls: List[float]) -> float:
    """Closed-loop throughput: completed queries per second of query time."""
    return len(walls) / float(np.sum(walls))


# ---------------------------------------------------------------------------
# traced pass
def _accepted(args, result) -> Dict[str, float]:
    # expand_incoming(self, ctx, msg) -> (accepted vertices, stats)
    return {"received": float(np.asarray(args[2].vertices).size),
            "accepted": float(np.asarray(result[0]).size)}


def _messages(_args, result) -> Dict[str, float]:
    # the enactor sends only non-empty messages
    return {"messages": float(sum(1 for m in result[0] if m.num_items))}


def _one_launch(_args, _result) -> Dict[str, float]:
    return {"launches": 1.0}


def _edges(_args, result) -> Dict[str, float]:
    parts = result if isinstance(result, tuple) else (result,)
    return {"edges": float(sum(p.edges_visited for p in parts
                               if isinstance(p, OpStats)))}


def setup_boundaries(workload: Workload) -> List[Boundary]:
    return [
        Boundary(Partitioner, "partition", "partition.assign"),
        Boundary(problem_module, "build_subgraphs", "partition.subgraphs"),
        Boundary(workload.primitive.problem_cls, "__init__", "problem.init"),
        Boundary(Enactor, "__init__", "enactor.init"),
    ]


def query_boundaries(workload: Workload) -> List[Boundary]:
    prim = workload.primitive
    out = [
        Boundary(Enactor, "enact", "enactor"),
        Boundary(prim.problem_cls, "reset", "problem.reset"),
        Boundary(prim.problem_cls, prim.result_attr, "problem.extract"),
        Boundary(ExecutionBackend, "run_iteration", "backend"),
        Boundary(prim.iteration_cls, "full_queue_core", "primitives.core"),
        Boundary(prim.iteration_cls, "expand_incoming",
                 "primitives.combine", _accepted),
        Boundary(enactor_module, "split_frontier", "comm.split"),
        Boundary(enactor_module, "make_selective_messages", "comm.package",
                 _messages),
        Boundary(KernelModel, "kernel_time", "sim"),
        Boundary(Stream, "launch", "sim", _one_launch),
        Boundary(Interconnect, "transfer_cost", "sim"),
        Boundary(Machine, "barrier", "sim"),
    ]
    # operators are looked up in the primitive's own module
    module = sys.modules[prim.iteration_cls.__module__]
    for name, obj in sorted(vars(module).items()):
        if callable(obj) and getattr(obj, "__module__", "").startswith(
                "repro.core.operators"):
            out.append(Boundary(module, name, "operators", _edges))
    return out


#: span layer -> per-layer metric reporting its mean self time per query
SELF_MS = {
    "harness": "trace.harness_self_ms",
    "enactor": "enactor.self_ms",
    "problem.reset": "problem.reset_ms",
    "problem.extract": "problem.extract_ms",
    "backend": "backend.step_self_ms",
    "primitives.core": "primitives.core_self_ms",
    "primitives.combine": "primitives.combine_ms",
    "operators": "operators.self_ms",
    "comm.split": "comm.split_ms",
    "comm.package": "comm.package_ms",
    "sim": "sim.charge_ms",
}

#: span layer of a set-up call -> per-layer metric (self seconds)
SETUP_S = {
    "graph.build": "graph.build_s",
    "partition.assign": "partition.assign_s",
    "partition.subgraphs": "partition.subgraphs_s",
    "problem.init": "problem.init_s",
    "enactor.init": "enactor.init_s",
}


def _leg(inst: Instance, sources: list, check) -> Tally:
    """Warm up once, then replay ``sources`` untraced; closes ``inst``."""
    try:
        inst.query(sources[0])
        return run_queries(inst, sources, check)
    finally:
        inst.close()


def per_layer(workload: Workload, seed: int, seconds: float,
              out_dir: Optional[Path] = None) -> Report:
    """The traced pass plus the backend and GPU-count legs."""
    prim = workload.primitive
    n = NUM_GPUS
    rec = SpanRecorder()
    with tracing(rec, setup_boundaries(workload)):
        with rec.span("graph.build"):
            graph = workload.graph(seed)
        inst = make_instance(workload, graph, n)
    setup_self = rec.layer_self().get(None, {})
    check = prim.oracle(inst.problem)
    stream = prim.sources(graph, seed)
    inst.query(next(stream))

    # untraced serial leg: the base every other leg is compared with
    deadline = time.perf_counter() + seconds * LEG_SHARE
    base = run_queries(inst, stream, check, stop=lambda t: (
        t.attempted >= MIN_LEG_QUERIES and time.perf_counter() >= deadline))
    sources = base.sources

    # traced leg on the same sources
    with tracing(rec, query_boundaries(workload)):
        traced = run_queries(inst, sources, check, recorder=rec)
    cut = edge_cut(graph, inst.problem.partition)
    inst.close()

    legs = [base, traced]
    for backend in (ThreadsBackend(max_workers=POOL_WORKERS),
                    ProcessesBackend(max_workers=POOL_WORKERS)):
        legs.append(_leg(make_instance(workload, graph, n, backend),
                         sources, check))
    legs.append(_leg(make_instance(workload, graph, 1), sources, check))
    threads, processes, one_gpu = legs[2:]

    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        rec.write(out_dir / f"{workload.name}-seed{seed}.spans.jsonl.gz")

    attempted = sum(t.attempted for t in legs)
    failed = sum(t.failed for t in legs)
    if any(not t.walls for t in legs):
        raise RuntimeError(f"a leg of {workload.name} had no good query")

    per_query = rec.layer_self()
    q = len(traced.qids)

    def mean_self_ms(layer: str) -> float:
        return sum(per_query[i].get(layer, 0.0) for i in traced.qids) / q * 1e3

    ops = rec.layer_counts("operators")
    ops_self = sum(per_query[i].get("operators", 0.0) for i in traced.qids)
    combine = rec.layer_counts("primitives.combine")
    steps = np.array([r.supersteps for r in base.runs])
    m: Metrics = {}
    for layer, name in SETUP_S.items():
        m[name] = (setup_self.get(layer, 0.0), "s")
    m["graph.edges"] = (float(graph.num_edges), "count")
    m["partition.cut_frac"] = (cut / max(graph.num_edges, 1), "frac")
    for layer, name in SELF_MS.items():
        m[name] = (mean_self_ms(layer), "ms")
    m.update({
        "query_p50_ms": (base.p50() * 1e3, "ms"),
        "queries_per_s": (_per_s(base.walls), "1/s"),
        "enactor.supersteps": (float(steps.mean()), "count"),
        "enactor.us_per_gpu_superstep": (float(np.median(
            np.asarray(base.walls) / (steps * n))) * 1e6, "us"),
        "enactor.wall_ratio_4v1": (base.p50() / one_gpu.p50(), "x"),
        "backend.threads_speedup": (base.p50() / threads.p50(), "x"),
        "backend.processes_speedup": (base.p50() / processes.p50(), "x"),
        "primitives.combine_accept_frac": (
            combine.get("accepted", 0.0) / combine["received"]
            if combine.get("received") else 0.0, "frac"),
        "operators.calls": (ops.get("calls", 0.0) / q, "count"),
        "operators.medges_per_s": (
            ops.get("edges", 0.0) / ops_self / 1e6 if ops_self else 0.0,
            "Medge/s"),
        "comm.messages": (
            rec.layer_counts("comm.package").get("messages", 0.0) / q,
            "count"),
        "comm.items_sent": (
            float(np.mean([r.items_sent for r in traced.runs])), "count"),
        "comm.bytes_sent": (
            float(np.mean([r.bytes_sent for r in traced.runs])), "bytes"),
        "sim.launches": (
            rec.layer_counts("sim").get("launches", 0.0) / q, "count"),
        "sim.peak_device_mb": (
            max(r.peak_device for r in traced.runs) / 2**20, "MB"),
        "trace.query_ms": (float(np.mean(traced.walls)) * 1e3, "ms"),
        "trace.overhead_frac": (traced.p50() / base.p50() - 1.0, "frac"),
        "failed_frac": (failed / attempted, "frac"),
    })
    return Report(attempted, failed, m)
