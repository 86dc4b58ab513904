"""Tentpole: the execution backends are bit-identical by construction.

Serial, threaded, and forked-process dispatch run the same per-GPU
superstep and the same GPU-index-order merge of staged effects, so
*everything* the simulation reports — result arrays, the full
RunMetrics dict (virtual times, per-GPU records, traffic counters),
sanitizer hazard reports, and tracer span streams — must match bit for
bit across backends, for every primitive, GPU count, and communication
mode (BFS/SSSP/BC are selective, DOBFS/CC/PR broadcast).

The processes backend additionally must not leak: every test that forks
workers asserts ``/dev/shm`` holds none of our segments afterwards.
"""

import glob
import json
import re

import numpy as np
import pytest

from repro.core.backend import (
    ProcessesBackend,
    SerialBackend,
    ThreadsBackend,
    make_backend,
)
from repro.core.shm import SHM_PREFIX, SliceManifest
from repro.primitives import (
    run_bc,
    run_bfs,
    run_cc,
    run_dobfs,
    run_pagerank,
    run_sssp,
)
from repro.sim.machine import Machine

RUNNERS = {
    "bfs": (run_bfs, {"src": 0}),
    "dobfs": (run_dobfs, {"src": 0}),
    "sssp": (run_sssp, {"src": 0}),
    "cc": (run_cc, {}),
    "bc": (run_bc, {"src": 0}),
    "pr": (run_pagerank, {"max_iter": 30}),
}


def _run(name, graph, num_gpus, **kwargs):
    runner, rkwargs = RUNNERS[name]
    machine = Machine(num_gpus)
    result, metrics, _ = runner(graph, machine, **rkwargs, **kwargs)
    return np.asarray(result), metrics


def _graph_for(name, small_rmat, weighted_rmat):
    return weighted_rmat if name == "sssp" else small_rmat


def _shm_leaks():
    return glob.glob(f"/dev/shm/{SHM_PREFIX}-*")


@pytest.mark.parametrize("primitive", sorted(RUNNERS))
@pytest.mark.parametrize("num_gpus", [1, 2, 4])
def test_threads_bit_identical_to_serial(
    primitive, num_gpus, small_rmat, weighted_rmat
):
    graph = _graph_for(primitive, small_rmat, weighted_rmat)
    r_ser, m_ser = _run(primitive, graph, num_gpus, backend="serial")
    r_thr, m_thr = _run(primitive, graph, num_gpus, backend="threads")
    np.testing.assert_array_equal(r_ser, r_thr)
    # the full metrics tree, including dict key order (JSON traces
    # observe it) and every float bit
    assert json.dumps(m_ser.to_dict()) == json.dumps(m_thr.to_dict())


@pytest.mark.parametrize("primitive", sorted(RUNNERS))
@pytest.mark.parametrize("num_gpus", [1, 2, 4])
def test_processes_bit_identical_to_serial(
    primitive, num_gpus, small_rmat, weighted_rmat
):
    """Tentpole acceptance: forked shared-memory workers change nothing
    observable — results, virtual times, the whole metrics tree."""
    graph = _graph_for(primitive, small_rmat, weighted_rmat)
    r_ser, m_ser = _run(primitive, graph, num_gpus, backend="serial")
    r_prc, m_prc = _run(primitive, graph, num_gpus, backend="processes")
    np.testing.assert_array_equal(r_ser, r_prc)
    assert json.dumps(m_ser.to_dict()) == json.dumps(m_prc.to_dict())
    assert _shm_leaks() == []


@pytest.mark.parametrize("backend", ["threads", "processes"])
@pytest.mark.parametrize("num_gpus", [2, 4])
def test_sanitizer_reports_identical_across_backends(
    backend, num_gpus, small_rmat
):
    _, m_ser = _run("bfs", small_rmat, num_gpus, backend="serial",
                    sanitize=True)
    _, m_par = _run("bfs", small_rmat, num_gpus, backend=backend,
                    sanitize=True)
    assert m_ser.sanitizer_hazards is not None
    assert m_ser.sanitizer_hazards == m_par.sanitizer_hazards
    assert _shm_leaks() == []


def _strip_wall(events):
    """Event records minus the backend-dependent data a trace may
    contain: wall-clock fields, the backend name, and the parallel
    backends' own ``backend.dispatch`` diagnostics."""
    drop = {"wall", "wall_dur", "backend"}
    return [
        {k: v for k, v in e.items() if k not in drop}
        for e in events
        if not str(e.get("type", "")).startswith("backend.")
    ]


def test_tracer_streams_identical_serial_vs_processes(small_rmat):
    from repro.obs import Tracer

    streams = {}
    for backend in ("serial", "processes"):
        tracer = Tracer()
        _run("bfs", small_rmat, 2, backend=backend, tracer=tracer)
        streams[backend] = (
            [s.key() for s in tracer.spans],
            _strip_wall(tracer.events),
        )
    ser_spans, ser_events = streams["serial"]
    prc_spans, prc_events = streams["processes"]
    assert ser_spans and ser_spans == prc_spans
    assert ser_events == prc_events
    assert _shm_leaks() == []


@pytest.mark.parametrize("backend", ["threads:2", "processes:2"])
def test_explicit_worker_count_identical(backend, small_rmat):
    r_ser, m_ser = _run("bfs", small_rmat, 4, backend="serial")
    r_par, m_par = _run("bfs", small_rmat, 4, backend=backend)
    np.testing.assert_array_equal(r_ser, r_par)
    assert json.dumps(m_ser.to_dict()) == json.dumps(m_par.to_dict())


def test_make_backend_specs():
    assert isinstance(make_backend(None), SerialBackend)
    assert isinstance(make_backend("serial"), SerialBackend)
    thr = make_backend("threads", num_gpus=3)
    assert isinstance(thr, ThreadsBackend) and thr.max_workers == 3
    thr2 = make_backend("threads:2")
    assert thr2.max_workers == 2
    prc = make_backend("processes", num_gpus=3)
    assert isinstance(prc, ProcessesBackend) and prc.max_workers == 3
    prc2 = make_backend("processes:2")
    assert prc2.max_workers == 2
    inst = SerialBackend()
    assert make_backend(inst) is inst
    with pytest.raises(ValueError):
        make_backend("cuda")
    for bad in ("foo", "threads:abc", "threads:-1", "threads:0",
                "threads:", "processes:1.5", "serial:2"):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            make_backend(bad)


def test_threads_backend_close_idempotent():
    be = ThreadsBackend()
    out = be.map_supersteps([lambda: 1, lambda: 2, lambda: 3])
    assert out == [1, 2, 3]
    be.close()
    be.close()
    # pool is rebuilt lazily after close
    assert be.map_supersteps([lambda: 4, lambda: 5]) == [4, 5]
    be.close()


def test_threads_backend_preserves_submission_order():
    import time

    be = ThreadsBackend(max_workers=4)

    def slow(i):
        def fn():
            time.sleep(0.02 * (4 - i))  # earlier tasks finish later
            return i

        return fn

    assert be.map_supersteps([slow(i) for i in range(4)]) == [0, 1, 2, 3]
    be.close()


class TestSliceManifest:
    """The shm registry layer in isolation: segments round-trip by name."""

    def test_manifest_round_trip(self, small_rmat):
        from repro.primitives import BFSProblem
        from repro.sim.machine import Machine as M

        problem = BFSProblem(small_rmat, M(2))
        before = {
            (gpu, name): arr.copy()
            for gpu, ds in enumerate(problem.data_slices)
            for name, arr in ds.arrays.items()
        }
        manifest = SliceManifest()
        manifest.migrate(problem)
        assert len(manifest) > 0
        assert all(n.startswith(SHM_PREFIX) for n in manifest.segment_names())
        # a second manifest attaches every slice segment by *name alone*
        # (the picklable spec is all a spawn-style worker would get) and
        # sees the parent's writes — zero-copy, not a snapshot
        reader = SliceManifest()
        reader._specs = manifest.spec()
        attached = {(gpu, name): arr
                    for gpu, name, arr in reader.attach_slices()}
        for key, ref in before.items():
            np.testing.assert_array_equal(attached[key], ref)
        probe_key = next(iter(attached))
        gpu, name = probe_key
        problem.data_slices[gpu].arrays[name][...] = 7
        assert np.all(np.asarray(attached[probe_key]) == 7)
        reader.detach()
        manifest.release()
        assert _shm_leaks() == []
        # after release the problem owns ordinary writable heap arrays
        heap = problem.data_slices[gpu].arrays[name]
        assert np.all(np.asarray(heap) == 7)
        heap[...] = 9

    def test_release_is_idempotent(self, small_rmat):
        from repro.primitives import BFSProblem
        from repro.sim.machine import Machine as M

        manifest = SliceManifest()
        manifest.migrate(BFSProblem(small_rmat, M(2)))
        manifest.release()
        manifest.release()
        manifest.unlink()
        assert _shm_leaks() == []


class TestEnactorLifecycle:
    """Satellite: close() / context manager tear down pools and shm."""

    def _enactor(self, graph, num_gpus=2, **kwargs):
        from repro.core.enactor import Enactor
        from repro.primitives import BFSIteration, BFSProblem
        from repro.sim.machine import Machine as M

        problem = BFSProblem(graph, M(num_gpus))
        return Enactor(problem, BFSIteration, **kwargs)

    def test_close_unlinks_shm_and_pool(self, small_rmat):
        enactor = self._enactor(small_rmat, backend="processes")
        enactor.enact(src=0)
        enactor.close()
        assert _shm_leaks() == []
        backend = enactor.backend
        assert backend._workers is None and backend._manifest is None

    def test_close_is_idempotent(self, small_rmat):
        enactor = self._enactor(small_rmat, backend="processes")
        enactor.enact(src=0)
        enactor.close()
        enactor.close()
        assert _shm_leaks() == []

    def test_context_manager(self, small_rmat):
        r_ser, _ = _run("bfs", small_rmat, 2, backend="serial")
        with self._enactor(small_rmat, backend="processes") as enactor:
            enactor.enact(src=0)
            labels = enactor.problem.extract("labels")
        np.testing.assert_array_equal(r_ser, np.asarray(labels))
        assert _shm_leaks() == []

    def test_repeated_enacts_reuse_manifest(self, small_rmat):
        enactor = self._enactor(small_rmat, backend="processes")
        m1 = enactor.enact(src=0)
        manifest = enactor.backend._manifest
        m2 = enactor.enact(src=1)
        m3 = enactor.enact(src=0)
        assert enactor.backend._manifest is manifest
        assert m1.supersteps == m3.supersteps
        assert m2.supersteps  # ran to completion from the other source
        enactor.close()
        assert _shm_leaks() == []
