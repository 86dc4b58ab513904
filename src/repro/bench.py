"""Wall-clock benchmark harness for the execution backends.

The simulator's *virtual* times are backend-invariant by construction
(``repro.core.backend``); this module measures the *real* time the
simulation itself takes — the quantity the execution-backend layer
exists to improve.  It times ``enact()`` for all six primitives at
several GPU counts on fixed RMAT and road inputs, under these
configurations:

* ``serial`` — serial dispatch (the default);
* ``threads`` — thread-pool dispatch;
* ``processes`` — forked worker pool with shared-memory slices
  (``repro.core.shm``); the only backend that escapes the GIL for the
  Python-level hook code, so the per-core scaling story lives here
  (``speedup_processes`` and ``efficiency_per_worker`` per case);
* ``processes_supervised`` — the processes backend wrapped in the
  worker supervisor (``repro.core.supervise``): heartbeats, bounded
  waits, and crash/hang detection armed but no faults injected, so the
  per-case ``supervision_overhead`` ratio against plain ``processes``
  is the price of the safety net on the happy path (gated at 1.05x);
* ``serial_traced`` — serial dispatch with a live ``obs.Tracer``
  attached, measuring the *enabled* cost of the observability layer
  (``overhead_traced`` per case).  The *disabled* cost is the plain
  ``serial`` variant itself: every untraced run already executes the
  ``tracer is None`` guards, so comparing ``serial`` against a baseline
  ``BENCH_2.json`` (``--baseline``) bounds it directly;
* ``processes_traced`` — the processes backend with a live tracer:
  workers stage their span records in the result payload and the parent
  adopts them, so tracing cost there includes the pickle/adopt path
  (``overhead_traced_processes``, gated like ``overhead_traced`` but
  with the 1-core skip the other processes gates use);
* ``serial_recorded`` — serial dispatch with an always-on
  ``obs.FlightRecorder`` attached (``overhead_recorded`` per case).
  The ring buffer is meant to fly on production runs, so its enabled
  cost is gated tight (1.05x untraced serial).

Every result records the host's CPU count prominently: both parallel
backends can only overlap supersteps across *cores*, so on a 1-core
host ``speedup_threads``/``speedup_processes`` ~ 1.0 is expected and
the CI regression gates for them report ``skipped: 1-core host`` —
explicitly, in the gate output and the JSON ``gates`` block — instead
of vacuously passing.

Run it as ``python -m repro bench`` (see ``--help``); CI runs the
``--smoke`` variant.  Results are written as JSON (``BENCH_2.json`` at
the repo root is a committed reference run).
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from typing import Dict, List, Optional, Sequence

from .graph.build import add_random_weights
from .graph.generators import generate_rmat, generate_road
from .sim.machine import Machine

__all__ = ["run_bench", "BENCH_PRIMITIVES", "DEFAULT_GPU_COUNTS"]

BENCH_PRIMITIVES = ("bfs", "dobfs", "sssp", "cc", "bc", "pr")
DEFAULT_GPU_COUNTS = (1, 2, 4)

#: measurement variants: name -> Enactor kwargs (``traced`` and
#: ``recorded`` are harness sentinels popped by ``_time_variant``, not
#: Enactor parameters).  Order matters: each overhead ratio
#: (recorded/serial, traced/serial, supervised/processes,
#: traced-processes/processes) compares variants measured back to back,
#: so slow host drift — CPU frequency, noisy CI neighbours — cancels
#: out of the tight 1.05x gates instead of masquerading as overhead.
_VARIANTS = {
    "serial": {"backend": "serial"},
    "serial_recorded": {"backend": "serial", "recorded": True},
    "serial_traced": {"backend": "serial", "traced": True},
    "threads": {"backend": "threads"},
    "processes": {"backend": "processes"},
    "processes_supervised": {"backend": "processes", "supervise": True},
    "processes_traced": {"backend": "processes", "traced": True},
}


def _build_graphs(rmat_scale: int, road_side: int) -> Dict[str, object]:
    rmat = generate_rmat(scale=rmat_scale, edge_factor=16, seed=1)
    road = generate_road(road_side, road_side, seed=7)
    return {"rmat": rmat, "road": road}


def _make_enactor(primitive: str, graph, machine, **enactor_kwargs):
    """Build (enactor, enact_kwargs) for one primitive, mirroring the
    construction choices of the ``run_*`` one-shots."""
    from .core.enactor import Enactor
    from .primitives import (
        BCIteration,
        BCProblem,
        BFSIteration,
        BFSProblem,
        CCIteration,
        CCProblem,
        DOBFSIteration,
        DOBFSProblem,
        PRIteration,
        PRProblem,
        SSSPIteration,
        SSSPProblem,
    )
    from .sim.memory import FixedPrealloc

    if primitive == "bfs":
        problem = BFSProblem(graph, machine)
        return Enactor(problem, BFSIteration, **enactor_kwargs), {"src": 0}
    if primitive == "dobfs":
        problem = DOBFSProblem(graph, machine)
        enactor_kwargs.setdefault("overlap_communication", True)
        return Enactor(problem, DOBFSIteration, **enactor_kwargs), {"src": 0}
    if primitive == "sssp":
        problem = SSSPProblem(graph, machine)
        return Enactor(problem, SSSPIteration, **enactor_kwargs), {"src": 0}
    if primitive == "cc":
        problem = CCProblem(graph, machine)
        return (
            Enactor(
                problem,
                CCIteration,
                scheme=FixedPrealloc(frontier_factor=1.05),
                **enactor_kwargs,
            ),
            {},
        )
    if primitive == "bc":
        problem = BCProblem(graph, machine)
        return Enactor(problem, BCIteration, **enactor_kwargs), {"src": 0}
    if primitive == "pr":
        problem = PRProblem(graph, machine, max_iter=60)
        return (
            Enactor(
                problem,
                PRIteration,
                scheme=FixedPrealloc(frontier_factor=1.05),
                **enactor_kwargs,
            ),
            {},
        )
    raise ValueError(f"unknown primitive {primitive!r}")


def _time_variant(
    primitive: str, graph, num_gpus: int, repeats: int, **enactor_kwargs
):
    """Median wall-clock ms of ``enact()`` (after one warmup run), plus
    the run's supersteps."""
    machine = Machine(num_gpus)
    tracer = None
    if enactor_kwargs.pop("traced", False):
        from .obs import Tracer

        tracer = Tracer()
        enactor_kwargs["tracer"] = tracer
    recorder = None
    if enactor_kwargs.pop("recorded", False):
        from .obs import FlightRecorder

        recorder = FlightRecorder()
        enactor_kwargs["flight_recorder"] = recorder
    enactor, enact_kwargs = _make_enactor(
        primitive, graph, machine, **enactor_kwargs
    )
    metrics = enactor.enact(**enact_kwargs)  # warmup
    samples = []
    for _ in range(repeats):
        if tracer is not None:
            tracer.clear()  # steady-state tracing cost, bounded memory
        if recorder is not None:
            recorder.clear()  # steady-state ring cost, bounded memory
        t0 = time.perf_counter()
        metrics = enactor.enact(**enact_kwargs)
        samples.append((time.perf_counter() - t0) * 1e3)
    enactor.close()
    return {
        "median_ms": statistics.median(samples),
        "min_ms": min(samples),
        "supersteps": metrics.supersteps,
    }


def run_bench(
    rmat_scale: int = 13,
    road_side: int = 48,
    repeats: int = 3,
    gpu_counts: Sequence[int] = DEFAULT_GPU_COUNTS,
    primitives: Sequence[str] = BENCH_PRIMITIVES,
    datasets: Sequence[str] = ("rmat", "road"),
    progress=None,
) -> dict:
    """Run the benchmark matrix; returns the BENCH_2-shaped dict."""
    graphs = _build_graphs(rmat_scale, road_side)
    cases: List[dict] = []
    for dataset in datasets:
        base_graph = graphs[dataset]
        for primitive in primitives:
            graph = base_graph
            if primitive == "sssp":
                graph = add_random_weights(base_graph, 1, 64, seed=2)
            for n in gpu_counts:
                case = {
                    "primitive": primitive,
                    "dataset": dataset,
                    "gpus": n,
                    "variants": {},
                }
                for name, kwargs in _VARIANTS.items():
                    if progress is not None:
                        progress(f"{dataset}/{primitive} x{n} [{name}]")
                    case["variants"][name] = _time_variant(
                        primitive, graph, n, repeats, **dict(kwargs)
                    )
                ser = case["variants"]["serial"]["median_ms"]
                thr = case["variants"]["threads"]["median_ms"]
                prc = case["variants"]["processes"]["median_ms"]
                sup = case["variants"]["processes_supervised"]["median_ms"]
                trd = case["variants"]["serial_traced"]["median_ms"]
                rec = case["variants"]["serial_recorded"]["median_ms"]
                ptr = case["variants"]["processes_traced"]["median_ms"]
                case["speedup_threads"] = ser / thr if thr else 0.0
                case["speedup_processes"] = ser / prc if prc else 0.0
                case["overhead_traced"] = trd / ser if ser else 0.0
                case["overhead_recorded"] = rec / ser if ser else 0.0
                case["overhead_traced_processes"] = (
                    ptr / prc if prc else 0.0
                )
                case["supervision_overhead"] = sup / prc if prc else 0.0
                # workers the processes backend could actually run in
                # parallel: one per GPU, capped by host cores
                workers = max(1, min(n, os.cpu_count() or 1))
                case["workers"] = workers
                case["efficiency_per_worker"] = (
                    case["speedup_processes"] / workers
                )
                cases.append(case)
    result = {
        "schema": "repro-bench-6",
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "config": {
            "rmat_scale": rmat_scale,
            "rmat_edge_factor": 16,
            "road_side": road_side,
            "repeats": repeats,
            "gpu_counts": list(gpu_counts),
            "primitives": list(primitives),
            "datasets": list(datasets),
        },
        "cases": cases,
        "notes": (
            "speedup_threads and speedup_processes need host cores to "
            "express themselves: supersteps can only overlap across "
            "physical cores (~1.0 on a 1-core host, and the regression "
            "gates for them report 'skipped: 1-core host' rather than "
            "vacuously passing). efficiency_per_worker divides "
            "speedup_processes by min(gpus, cpu_count). "
            "supervision_overhead is the "
            "no-fault cost of the worker supervisor relative to the "
            "plain processes backend (heartbeat threads + bounded "
            "waits + shm checksums), gated at 1.05x. overhead_recorded "
            "is the enabled cost of the always-on flight recorder on "
            "serial (gated at 1.05x); overhead_traced_processes is the "
            "tracer cost on the processes backend, including the "
            "stage/pickle/adopt path (1-core skip like the other "
            "processes gates)."
        ),
    }
    result["gates"] = {
        "threads": check_threads_regression(result),
        "processes": check_processes_regression(result),
        "tracing": check_tracing_overhead(result),
        "tracing_processes": check_processes_tracing_overhead(result),
        "supervision": check_supervision_overhead(result),
        "recorder": check_recorder_overhead(result),
    }
    return result


def write_bench(result: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=False)
        fh.write("\n")


def _single_core(result: dict) -> bool:
    return (result.get("host", {}).get("cpu_count") or 1) <= 1


def check_threads_regression(
    result: dict, primitive: str = "bfs", gpus: int = 4, max_ratio: float = 1.2
) -> Optional[str]:
    """CI gate: threads must not be slower than ``max_ratio`` x serial on
    the given case (RMAT).

    On a 1-core host the ratio is pure dispatch noise — threads *cannot*
    beat serial there — so instead of passing vacuously the gate returns
    an explicit ``"skipped: 1-core host, gate skipped"`` marker (callers
    print it and do not fail).  Returns an error string on regression,
    or None if OK.
    """
    if _single_core(result):
        return "skipped: 1-core host, gate skipped"
    for case in result["cases"]:
        if (
            case["primitive"] == primitive
            and case["gpus"] == gpus
            and case["dataset"] == "rmat"
        ):
            ser = case["variants"]["serial"]["median_ms"]
            thr = case["variants"]["threads"]["median_ms"]
            if thr > ser * max_ratio:
                return (
                    f"threads backend {thr:.2f} ms vs serial {ser:.2f} ms "
                    f"on {gpus}-GPU {primitive} (> {max_ratio:.2f}x)"
                )
            return None
    return f"no bench case for {gpus}-GPU {primitive} on rmat"


def check_processes_regression(
    result: dict, primitive: str = "bfs", gpus: int = 4, max_ratio: float = 1.0
) -> Optional[str]:
    """CI gate: on a multi-core host the processes backend must beat (or
    at least match, ``max_ratio=1.0``) the threads backend on the given
    RMAT case — shared-memory workers are the whole point of the layer.

    On a 1-core host workers serialize onto one core and the fork/pipe
    overhead dominates; the gate returns the explicit
    ``"skipped: 1-core host, gate skipped"`` marker instead of passing
    (or failing) on noise.
    """
    if _single_core(result):
        return "skipped: 1-core host, gate skipped"
    for case in result["cases"]:
        if (
            case["primitive"] == primitive
            and case["gpus"] == gpus
            and case["dataset"] == "rmat"
        ):
            thr = case["variants"]["threads"]["median_ms"]
            prc = case["variants"]["processes"]["median_ms"]
            if prc > thr * max_ratio:
                return (
                    f"processes backend {prc:.2f} ms vs threads "
                    f"{thr:.2f} ms on {gpus}-GPU {primitive} "
                    f"(> {max_ratio:.2f}x)"
                )
            return None
    return f"no bench case for {gpus}-GPU {primitive} on rmat"


def check_tracing_overhead(
    result: dict, primitive: str = "bfs", gpus: int = 4, max_ratio: float = 1.5
) -> Optional[str]:
    """CI gate: a live tracer must cost at most ``max_ratio`` x serial on
    the given RMAT case.  Returns an error string, or None if OK."""
    for case in result["cases"]:
        if (
            case["primitive"] == primitive
            and case["gpus"] == gpus
            and case["dataset"] == "rmat"
        ):
            ser = case["variants"]["serial"]["median_ms"]
            trd = case["variants"]["serial_traced"]["median_ms"]
            if trd > ser * max_ratio:
                return (
                    f"traced run {trd:.2f} ms vs serial {ser:.2f} ms on "
                    f"{gpus}-GPU {primitive} (> {max_ratio:.2f}x)"
                )
            return None
    return f"no bench case for {gpus}-GPU {primitive} on rmat"


def check_processes_tracing_overhead(
    result: dict, primitive: str = "bfs", gpus: int = 4, max_ratio: float = 1.5
) -> Optional[str]:
    """CI gate: a live tracer on the *processes* backend must cost at
    most ``max_ratio`` x the untraced processes run on the given RMAT
    case.  Workers stage their span records inside the result payload
    and the parent adopts them, so this bounds the pickle/adopt path —
    the part of tracing the serial gate cannot see.

    On a 1-core host the processes medians are fork/pipe scheduling
    noise (same rationale as the other processes gates), so the gate
    returns the explicit ``"skipped: 1-core host, gate skipped"``
    marker instead of judging jitter.
    """
    if _single_core(result):
        return "skipped: 1-core host, gate skipped"
    for case in result["cases"]:
        if (
            case["primitive"] == primitive
            and case["gpus"] == gpus
            and case["dataset"] == "rmat"
        ):
            prc = case["variants"]["processes"]["median_ms"]
            ptr = case["variants"]["processes_traced"]["median_ms"]
            if ptr > prc * max_ratio:
                return (
                    f"traced processes {ptr:.2f} ms vs plain "
                    f"{prc:.2f} ms on {gpus}-GPU {primitive} "
                    f"(> {max_ratio:.2f}x)"
                )
            return None
    return f"no bench case for {gpus}-GPU {primitive} on rmat"


def check_recorder_overhead(
    result: dict, primitive: str = "bfs", gpus: int = 4,
    max_ratio: float = 1.05,
) -> Optional[str]:
    """CI gate: the always-on flight recorder must cost at most
    ``max_ratio`` x plain serial on the given RMAT case.  The recorder
    is designed to fly on every production run (a bounded ring of
    coarse per-superstep records, not per-span tracing), so its gate is
    as tight as the supervision one.

    The 1.05x bound leaves no room for scheduler jitter on a few-ms
    serial case, so this gate compares ``min_ms`` — the classic
    low-noise wall-clock estimator — rather than the medians the
    reported ``overhead_recorded`` ratio uses.  Returns an error
    string, or None if OK."""
    for case in result["cases"]:
        if (
            case["primitive"] == primitive
            and case["gpus"] == gpus
            and case["dataset"] == "rmat"
        ):
            ser = case["variants"]["serial"]["min_ms"]
            rec = case["variants"]["serial_recorded"]["min_ms"]
            if rec > ser * max_ratio:
                return (
                    f"recorded run {rec:.2f} ms vs serial {ser:.2f} ms "
                    f"on {gpus}-GPU {primitive} (> {max_ratio:.2f}x)"
                )
            return None
    return f"no bench case for {gpus}-GPU {primitive} on rmat"


def check_supervision_overhead(
    result: dict, primitive: str = "bfs", gpus: int = 4, max_ratio: float = 1.05
) -> Optional[str]:
    """CI gate: the supervised processes backend must cost at most
    ``max_ratio`` x the plain processes backend on the given RMAT case
    when no faults fire — the safety net must be near-free on the happy
    path.

    On a 1-core host the processes medians are dominated by fork/pipe
    scheduling noise (the same reason the threads/processes gates skip
    there), so the gate returns the explicit skip marker instead of
    failing on jitter.
    """
    if _single_core(result):
        return "skipped: 1-core host, gate skipped"
    for case in result["cases"]:
        if (
            case["primitive"] == primitive
            and case["gpus"] == gpus
            and case["dataset"] == "rmat"
        ):
            prc = case["variants"]["processes"]["median_ms"]
            sup = case["variants"]["processes_supervised"]["median_ms"]
            if sup > prc * max_ratio:
                return (
                    f"supervised processes {sup:.2f} ms vs plain "
                    f"{prc:.2f} ms on {gpus}-GPU {primitive} "
                    f"(> {max_ratio:.2f}x)"
                )
            return None
    return f"no bench case for {gpus}-GPU {primitive} on rmat"


def check_baseline_overhead(
    result: dict, baseline: dict, max_overhead: float = 1.05
) -> Optional[str]:
    """Tracing-disabled regression gate against a previous bench file.

    Compares every case's plain ``serial`` median (which executes all the
    ``tracer is None`` guards) against the same case in ``baseline``.
    Returns an error string on violation, a ``"skipped: ..."`` string
    when the runs are not comparable (different config or host, where
    wall-clock ratios are meaningless), or None when within bounds.
    """
    if baseline.get("config") != result.get("config"):
        return "skipped: baseline config differs from this run"
    if baseline.get("host", {}).get("cpu_count") != \
            result.get("host", {}).get("cpu_count"):
        return "skipped: baseline host differs from this run"
    base_cases = {
        (c["dataset"], c["primitive"], c["gpus"]): c
        for c in baseline.get("cases", [])
    }
    worst = None
    for case in result["cases"]:
        key = (case["dataset"], case["primitive"], case["gpus"])
        ref = base_cases.get(key)
        if ref is None:
            continue
        ser = case["variants"]["serial"]["median_ms"]
        ref_ser = ref["variants"]["serial"]["median_ms"]
        if not ref_ser:
            continue
        ratio = ser / ref_ser
        if worst is None or ratio > worst[0]:
            worst = (ratio, key, ser, ref_ser)
    if worst is None:
        return "skipped: no overlapping cases with the baseline"
    ratio, key, ser, ref_ser = worst
    if ratio > max_overhead:
        return (
            f"serial {ser:.2f} ms vs baseline {ref_ser:.2f} ms on "
            f"{key[2]}-GPU {key[1]}/{key[0]} "
            f"({ratio:.3f}x > {max_overhead:.2f}x)"
        )
    return None
