"""Execution backends: how the enactor dispatches per-GPU supersteps.

The paper's whole premise (Fig. 1, Section III-B) is that the n GPUs'
per-iteration work runs *concurrently* between BSP barriers.  The
simulation charges virtual time as if it did, but the enactor used to
execute the n virtual GPUs strictly serially in a Python loop, so real
wall-clock grew linearly with GPU count.  This module makes dispatch a
pluggable policy:

* :class:`SerialBackend` — run the supersteps in GPU-index order on the
  calling thread (the original behaviour; zero overhead, easiest to
  debug);
* :class:`ThreadsBackend` — run them on a persistent worker pool.  The
  NumPy calls that dominate a superstep release the GIL, so per-GPU
  work overlaps on a multi-core host — but anything interpreter-bound
  stays GIL-serialized;
* :class:`ProcessesBackend` — one persistent forked worker per virtual
  GPU.  CSR structure and slice arrays live in shared-memory segments
  (:mod:`repro.core.shm`), so reads are zero-copy across workers and a
  worker's slice writes are immediately visible to the parent;
  everything else a superstep produces ships back as a pickled
  :class:`GpuStepEffects` plus a small sidecar (stream horizons, memory
  accounting, fault consumption, staged tracer/sanitizer records,
  declared per-GPU attribute mutations) that the parent replays at the
  barrier.  No GIL: true per-core scaling of the superstep work.

**Determinism contract.**  A backend only chooses *where* each superstep
runs; it must return the results in GPU-index order.  The enactor keeps
every backend bit-identical by construction: each per-GPU superstep
touches only its own GPU's state (streams, memory pool, data slice)
and *stages* every cross-GPU effect — outgoing messages,
metrics-record entries, interconnect traffic — in a
:class:`GpuStepEffects`, which the enactor merges in GPU-index order at
the barrier.  Serial, threaded, and forked runs execute the same
superstep code and the same merge, so results,
:class:`~repro.sim.metrics.RunMetrics`, virtual times, and sanitizer
reports are identical bit for bit (asserted in
``tests/core/test_backend_determinism.py``).

**Worker affinity.**  The processes backend pins each GPU to one worker
for the pool's lifetime, so per-GPU private mutable state (streams,
pools, operator caches) evolves in exactly one address space between
barriers.  Workers are re-forked at the start of
every run and after any rollback/repartition (:meth:`begin_run` /
:meth:`invalidate`), which is also when the shared-memory manifest is
(re)built.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import (
    DeviceLostError,
    SimulationError,
    WorkerCrashError,
    WorkerHangError,
)
from .shm import SliceManifest, _rewrap_like
from .supervise import (
    reap_worker,
    slice_checksum,
    wait_for_reply,
    worker_recv,
)

__all__ = [
    "GpuStepEffects",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadsBackend",
    "ProcessesBackend",
    "make_backend",
    "parse_backend_spec",
    "BACKENDS",
]

BACKENDS = ("serial", "threads", "processes")


@dataclass
class GpuStepEffects:
    """One GPU's staged cross-GPU effects for one superstep.

    Everything a superstep produces that any *other* GPU (or the shared
    metrics record / interconnect) consumes lives here, so workers never
    race on shared structures.  The enactor applies these in GPU-index
    order at the barrier, reproducing exactly the mutation order of the
    serial loop — including dict key-insertion order, which JSON traces
    observe.  The dataclass is picklable by design: the processes
    backend ships it across the worker pipe verbatim.
    """

    gpu: int
    #: the GPU's next local input frontier
    frontier: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    compute_seconds: float = 0.0
    comm_seconds: float = 0.0
    #: merged input frontier size (summed into the record)
    frontier_size: int = 0
    direction: str = ""
    edges_visited: int = 0
    vertices_processed: int = 0
    #: combined incoming items; None when no messages arrived (the
    #: serial loop only creates the record key when mail was processed)
    comm_compute_items: Optional[int] = None
    items_sent: int = 0
    bytes_sent: int = 0
    #: outgoing messages: (dst_gpu, arrival_timestamp, Message)
    sends: List[Tuple[int, float, object]] = field(default_factory=list)
    #: logical byte size of each sent message, replayed onto the
    #: interconnect's traffic counters at merge time
    transfer_nbytes: List[int] = field(default_factory=list)
    #: transient communication faults survived via retry this superstep
    comm_retries: int = 0
    #: virtual seconds this GPU spent in retry backoff
    retry_seconds: float = 0.0
    #: allocation failures survived by exact-fit regrown allocation
    oom_recoveries: int = 0


class ExecutionBackend:
    """Dispatch policy for one iteration's per-GPU supersteps."""

    name = "base"
    #: attached obs.Tracer, or None (the common, zero-overhead case);
    #: set by the enactor, read behind a single ``is None`` check
    tracer = None
    #: attached obs.FlightRecorder, or None; same discipline as the
    #: tracer — set by the enactor, guarded by one ``is None`` check
    recorder = None

    def bind(self, enactor) -> None:
        """Called once by the owning enactor after construction."""

    def begin_run(self) -> None:
        """Called at the start of every ``enact()`` (after problem and
        machine reset): backends with per-run worker state refresh it
        here."""

    def invalidate(self) -> None:
        """Called after rollback/repartition: any cached view of the
        problem's arrays (worker forks, shared-memory manifests) is
        stale and must be rebuilt before the next dispatch."""

    def run_iteration(
        self,
        enactor,
        iteration: int,
        iteration_obj,
        frontiers: List[np.ndarray],
        inboxes: List[list],
        gpu_indices: Sequence[int],
        guarded: bool = False,
    ) -> List[object]:
        """Run one iteration's supersteps for ``gpu_indices``; return
        their :class:`GpuStepEffects` in that order.

        With ``guarded=True`` a :class:`DeviceLostError` is returned as
        the GPU's result value instead of raised, so every superstep of
        the iteration still runs (the enactor recovers at the barrier).
        The default implementation builds per-GPU closures and defers to
        :meth:`map_supersteps` — serial and threads semantics live
        entirely there; the processes backend overrides this with a
        picklable dispatch protocol.
        """
        if not guarded:
            fns = [
                lambda idx=i: enactor._gpu_superstep(
                    idx, iteration, iteration_obj,
                    frontiers[idx], inboxes[idx],
                )
                for i in gpu_indices
            ]
        else:
            def guarded_step(idx):
                try:
                    return enactor._gpu_superstep(
                        idx, iteration, iteration_obj,
                        frontiers[idx], inboxes[idx],
                    )
                except DeviceLostError as exc:
                    return exc

            fns = [lambda idx=i: guarded_step(idx) for i in gpu_indices]
        return self.map_supersteps(fns)

    def map_supersteps(self, fns: List[Callable[[], GpuStepEffects]]
                       ) -> List[GpuStepEffects]:
        """Run all closures; return their results in list order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release worker resources (idempotent)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class SerialBackend(ExecutionBackend):
    """GPU-index-order execution on the calling thread."""

    name = "serial"

    def map_supersteps(self, fns):
        return [fn() for fn in fns]


class ThreadsBackend(ExecutionBackend):
    """Persistent thread-pool execution of per-GPU supersteps.

    One pool lives for the backend's lifetime (spawning threads per
    iteration would dwarf a superstep's work).  Results are gathered in
    submission order, so callers observe GPU-index order regardless of
    completion order.
    """

    name = "threads"

    def __init__(self, max_workers: Optional[int] = None):
        self.max_workers = max_workers
        self._pool: Optional[ThreadPoolExecutor] = None

    def _ensure_pool(self, width: int) -> ThreadPoolExecutor:
        if self._pool is None:
            workers = self.max_workers or max(width, 1)
            self._pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-gpu"
            )
        return self._pool

    def map_supersteps(self, fns):
        if len(fns) <= 1:
            # nothing to overlap; skip the pool round-trip
            return [fn() for fn in fns]
        pool = self._ensure_pool(len(fns))
        if self.tracer is not None:
            self.tracer.instant(
                "backend.dispatch", backend=self.name,
                supersteps=len(fns), workers=pool._max_workers,
            )
        futures = [pool.submit(fn) for fn in fns]
        return [f.result() for f in futures]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


# ---------------------------------------------------------------------------
# processes backend
# ---------------------------------------------------------------------------

def _heartbeat_loop(heartbeat, interval: float) -> None:
    """Daemon-thread body: bump the shared heartbeat slot forever.

    A SIGSTOPped or kernel-wedged worker stops bumping, which is how
    the parent's staleness check distinguishes a hang from slow work.
    """
    while True:
        heartbeat.value = time.monotonic()
        time.sleep(interval)


def _worker_loop(conn, enactor, iteration_obj, gpu_ids, manifest,
                 heartbeat=None, sup_cfg=None):
    """Body of one forked worker: serve superstep requests until "stop".

    The worker owns ``gpu_ids`` for the pool's lifetime (GPU affinity:
    per-GPU mutable state — streams, pools, operator caches — evolves only here between barriers).  Slice arrays are
    re-attached through the shared-memory registry by *name*, proving
    the manifest layer; CSR segments are reached through the inherited
    fork mappings, which alias the same physical pages.

    Under supervision (``heartbeat``/``sup_cfg`` set) the worker also
    runs a heartbeat thread and checksums its slice windows into each
    effects sidecar.
    """
    problem = enactor.problem
    for gpu, name, arr in manifest.attach_slices():
        old = problem.data_slices[gpu].arrays.get(name)
        if old is not None and old.shape == arr.shape:
            problem.data_slices[gpu].arrays[name] = _rewrap_like(old, arr)
    machine = enactor.machine
    tracer = enactor.tracer
    checksums = sup_cfg is not None and sup_cfg.shm_checksums
    if heartbeat is not None:
        interval = sup_cfg.heartbeat_interval if sup_cfg else 0.05
        threading.Thread(
            target=_heartbeat_loop, args=(heartbeat, interval),
            daemon=True, name="repro-heartbeat",
        ).start()
    while True:
        try:
            msg = worker_recv(conn)
        except (EOFError, OSError):
            break
        if msg[0] == "stop":
            break
        _, iteration, jobs, attrs, stream_times, guarded = msg
        if attrs:
            problem.restore_attrs(attrs)
        replies = []
        error = None
        for gpu_index, frontier, inbox in jobs:
            gpu = machine.gpus[gpu_index]
            for sname, t in stream_times[gpu_index].items():
                gpu.streams[sname].available_at = t
            inj = machine.faults
            fault_snap = (
                inj.snapshot_consumption() if inj is not None else None
            )
            try:
                eff = enactor._gpu_superstep(
                    gpu_index, iteration, iteration_obj, frontier, inbox
                )
            except DeviceLostError as exc:
                if not guarded:
                    error = (gpu_index, exc)
                    break
                eff = exc
            except BaseException as exc:  # ships to the parent to re-raise
                error = (gpu_index, exc)
                break
            replies.append(
                _build_sidecar(enactor, gpu_index, eff, fault_snap,
                               checksum=checksums)
            )
        if error is not None:
            gpu_index, exc = error
            try:
                conn.send(("error", gpu_index, exc))
            except Exception as send_err:  # unpicklable exception
                conn.send(("error", gpu_index, SimulationError(
                    f"{type(exc).__name__}: {exc} "
                    f"(original not picklable: {send_err})",
                    gpu_id=gpu_index,
                )))
        else:
            conn.send(("ok", replies))
    manifest.detach()
    conn.close()


def _build_sidecar(enactor, gpu_index, eff, fault_snap,
                   checksum: bool = False) -> dict:
    """Everything beyond slice-array writes that a worker's superstep
    changed and the parent must replay: stream horizons, pool
    accounting, frontier capacities, fault consumption, staged
    tracer/sanitizer records, and declared per-GPU attribute
    mutations (``ProblemBase.PER_GPU_MUTABLE_ATTRS``).  With
    ``checksum=True`` the sidecar also carries an adler32 digest of the
    GPU's slice windows for the parent's per-barrier integrity check."""
    machine = enactor.machine
    gpu = machine.gpus[gpu_index]
    tracer = enactor.tracer
    problem = enactor.problem
    return {
        "shmsum": (
            slice_checksum(problem.data_slices[gpu_index])
            if checksum else None
        ),
        "gpu": gpu_index,
        "eff": eff,
        "streams": {n: s.available_at for n, s in gpu.streams.items()},
        "pool": gpu.memory.export_state(),
        "fin": (enactor.frontiers_in[gpu_index].capacity,
                enactor.frontiers_in[gpu_index].grow_events),
        "fout": (enactor.frontiers_out[gpu_index].capacity,
                 enactor.frontiers_out[gpu_index].grow_events),
        "faults": (
            machine.faults.consumption_delta(fault_snap)
            if fault_snap is not None else None
        ),
        "trace": (
            tracer.take_staged(gpu_index) if tracer is not None else None
        ),
        "san": (
            enactor.sanitizer.take_stage(gpu_index)
            if enactor.sanitizer is not None else None
        ),
        "attrs": {
            name: getattr(problem, name)[gpu_index]
            for name in type(problem).PER_GPU_MUTABLE_ATTRS
        },
    }


class ProcessesBackend(ExecutionBackend):
    """Forked worker pool with shared-memory slices (see module docs).

    ``max_workers`` caps the pool; by default there is one worker per
    virtual GPU.  With fewer workers than GPUs, each worker owns a fixed
    subset (``gpu % workers``) and runs its supersteps in GPU order, so
    affinity — and therefore determinism — is preserved.

    Single-GPU dispatch short-circuits to inline execution: there is
    nothing to overlap, and the parent's state stays authoritative
    without any shared-memory machinery.
    """

    name = "processes"

    def __init__(self, max_workers: Optional[int] = None):
        self.max_workers = max_workers
        self._workers: Optional[List[Optional[tuple]]] = None
        self._owner: Dict[int, int] = {}
        self._manifest: Optional[SliceManifest] = None
        #: attached WorkerSupervisor, or None (set by the enactor when
        #: supervision is enabled); consulted at every dispatch
        self.supervisor = None
        self._heartbeats: Optional[List] = None
        self._buckets: List[List[int]] = []

    # -- lifecycle -------------------------------------------------------
    def begin_run(self) -> None:
        # per-run state (iteration object, reset streams/faults) is
        # captured at fork time, so each enact() gets a fresh pool; the
        # manifest survives — reset() refills the same shm arrays
        self._teardown_workers()

    def invalidate(self) -> None:
        # rollback/repartition rebuilt the slice arrays: both the forks
        # and the shm segments describe dead objects
        self._teardown_workers()
        if self._manifest is not None:
            self._manifest.release()
            self._manifest = None

    def close(self) -> None:
        self.invalidate()

    def _teardown_workers(self) -> None:
        """Reap the whole pool with bounded, escalating waits.

        Safe under a half-dead pool: already-crashed or SIGSTOPped
        workers are resumed/killed rather than joined forever, and
        retired slots (None) are skipped.  Idempotent.
        """
        if not self._workers:
            self._workers = None
            self._heartbeats = None
            self._owner = {}
            return
        timeout = 10.0
        if self.supervisor is not None:
            timeout = self.supervisor.config.teardown_timeout
        for entry in self._workers:
            if entry is not None:
                reap_worker(entry[0], entry[1], timeout=timeout)
        self._workers = None
        self._heartbeats = None
        self._owner = {}

    def _spawn(self, enactor, iteration_obj, gpu_indices) -> None:
        if self._manifest is None:
            self._manifest = SliceManifest()
            self._manifest.migrate(enactor.problem)
        n = len(gpu_indices)
        width = max(1, min(self.max_workers or n, n))
        buckets: List[List[int]] = [[] for _ in range(width)]
        self._owner = {}
        for k, g in enumerate(gpu_indices):
            buckets[k % width].append(g)
            self._owner[g] = k % width
        self._buckets = buckets
        self._workers = []
        self._heartbeats = []
        for w in range(width):
            self._workers.append(None)
            self._heartbeats.append(None)
            self._fork_worker(w, enactor, iteration_obj)

    def _fork_worker(self, w: int, enactor, iteration_obj) -> None:
        """Fork (or re-fork) worker slot ``w`` for its fixed GPU bucket.

        Used both by the initial spawn and by supervised respawn: the
        new fork inherits the parent's pre-superstep state (sidecars
        are only applied after all replies arrive) and re-attaches the
        shared-memory slices by name, so a replayed superstep runs
        bit-identically to the first attempt.
        """
        ctx = multiprocessing.get_context("fork")
        heartbeat = None
        sup_cfg = None
        if self.supervisor is not None:
            sup_cfg = self.supervisor.config
            heartbeat = ctx.Value("d", time.monotonic(), lock=False)
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=_worker_loop,
            args=(child_conn, enactor, iteration_obj,
                  self._buckets[w], self._manifest, heartbeat, sup_cfg),
            daemon=True,
            name=f"repro-gpu-proc-{w}",
        )
        proc.start()
        child_conn.close()
        self._workers[w] = (proc, parent_conn)
        self._heartbeats[w] = heartbeat

    def _reap_slot(self, w: int) -> None:
        """Reap worker slot ``w`` with bounded waits; idempotent."""
        entry = self._workers[w]
        if entry is not None:
            timeout = 10.0
            if self.supervisor is not None:
                timeout = self.supervisor.config.teardown_timeout
            reap_worker(entry[0], entry[1], timeout=timeout)
            self._workers[w] = None

    def _respawn_worker(self, w: int, enactor, iteration_obj) -> bool:
        """Reap a failed worker and fork a replacement into its slot."""
        self._reap_slot(w)
        try:
            self._fork_worker(w, enactor, iteration_obj)
        except OSError:  # pragma: no cover - fork exhaustion
            return False
        return True

    def _retire_worker(self, w: int) -> None:
        """Reap worker ``w`` and leave its slot dead (escalation path:
        the enactor's rollback will invalidate and rebuild the pool
        sized to the survivors)."""
        self._reap_slot(w)
        for g in self._buckets[w]:
            self._owner.pop(g, None)

    def heartbeat_ages(self) -> dict:
        """Seconds since each live worker's last heartbeat write.

        Crash-dump forensics: a slot whose age is far beyond the
        supervision heartbeat interval was hung or dead at dump time.
        Slots without a heartbeat (unsupervised or retired) are
        omitted.
        """
        ages = {}
        if self._heartbeats:
            now = time.monotonic()
            for w, hb in enumerate(self._heartbeats):
                if hb is not None:
                    ages[w] = now - hb.value
        return ages

    # -- dispatch --------------------------------------------------------
    def run_iteration(self, enactor, iteration, iteration_obj,
                      frontiers, inboxes, gpu_indices, guarded=False):
        gpu_indices = list(gpu_indices)
        if len(gpu_indices) <= 1:
            # nothing to overlap; the inline path keeps parent state
            # authoritative and needs no pool or shared memory
            return super().run_iteration(
                enactor, iteration, iteration_obj,
                frontiers, inboxes, gpu_indices, guarded=guarded,
            )
        if self._workers is None or any(
            g not in self._owner for g in gpu_indices
        ):
            self._teardown_workers()
            self._spawn(enactor, iteration_obj, gpu_indices)
        machine = enactor.machine
        jobs: List[List[tuple]] = [[] for _ in self._workers]
        stream_times = {
            g: {
                n: s.available_at
                for n, s in machine.gpus[g].streams.items()
            }
            for g in gpu_indices
        }
        for g in gpu_indices:
            jobs[self._owner[g]].append((g, frontiers[g], inboxes[g]))
        attrs = enactor.problem.snapshot_attrs()
        if self.tracer is not None:
            self.tracer.instant(
                "backend.dispatch", backend=self.name,
                supersteps=len(gpu_indices), workers=len(self._workers),
            )
        payloads: Dict[int, tuple] = {}
        for w in range(len(self._workers)):
            if jobs[w]:
                payloads[w] = (
                    "step", iteration, jobs[w], attrs,
                    {g: stream_times[g] for g, _f, _i in jobs[w]},
                    guarded,
                )
        sup = self.supervisor
        shadow = None
        if sup is not None:
            sup.deliver_due_host_faults(self, enactor, iteration)
            shadow = sup.capture_shadow(enactor.problem, gpu_indices)
        sent_at: Dict[int, float] = {}
        for w, payload in payloads.items():
            self._send(w, payload)
            sent_at[w] = time.monotonic()
        replies: Dict[int, dict] = {}
        lost: Dict[int, DeviceLostError] = {}
        for w in payloads:
            msg = self._collect(
                enactor, iteration, iteration_obj, w, payloads[w],
                jobs[w], shadow, sent_at, guarded, lost,
            )
            if msg is None:  # worker escalated to the rollback path
                continue
            if msg[0] == "error":
                _, g, exc = msg
                self._teardown_workers()
                if isinstance(exc, BaseException):
                    raise exc
                raise SimulationError(str(exc), gpu_id=g)
            for side in msg[1]:
                replies[side["gpu"]] = side
        if sup is not None:
            sup.deliver_pending_corruption(enactor.problem)
            for g in sup.verify_replies(enactor.problem, replies,
                                        iteration):
                err = sup.integrity_error(g, iteration)
                if not guarded:
                    self._teardown_workers()
                    raise err
                sup.emit("worker.lost", vt=machine.clock.now, gpu=g,
                         iteration=iteration, reason="shm-integrity")
                if self.recorder is not None:
                    self.recorder.dump(
                        "shm-integrity", error=err,
                        heartbeats=self.heartbeat_ages(),
                        faults=machine.faults,
                    )
                lost[g] = DeviceLostError(
                    str(err), gpu_id=g, iteration=iteration,
                    site="supervise.checksum",
                )
        results = []
        for g in gpu_indices:
            if g in lost:
                results.append(lost[g])
                continue
            side = replies[g]
            self._apply_sidecar(enactor, g, side)
            results.append(side["eff"])
        return results

    def _send(self, w: int, payload: tuple) -> None:
        """Ship one step request; a broken pipe (the worker is already
        dead) is left for the bounded receive to detect and classify."""
        entry = self._workers[w]
        if entry is None:  # pragma: no cover - defensive
            return
        try:
            entry[1].send(payload)
        except (BrokenPipeError, OSError):
            pass

    def _collect(self, enactor, iteration, iteration_obj, w, payload,
                 wjobs, shadow, sent_at, guarded, lost):
        """Bounded receive from worker ``w`` with escalation.

        Returns the worker's reply message, or None after escalating
        every GPU of the worker into ``lost`` (guarded dispatch only).
        Unsupervised, liveness is still bounded — a dead worker raises
        SimulationError instead of deadlocking — but there is no
        deadline, respawn, or replay.
        """
        sup = self.supervisor
        machine = enactor.machine
        while True:
            proc, conn = self._workers[w]
            heartbeat = self._heartbeats[w] if sup is not None else None
            timeout = None
            stale_after = None
            poll = 0.05
            if sup is not None:
                poll = sup.config.poll_interval
                stale_after = sup.config.stale_after
                timeout = max(
                    0.1,
                    sup.deadline() - (time.monotonic() - sent_at[w]),
                )
            try:
                msg = wait_for_reply(
                    conn, proc, timeout=timeout, poll_interval=poll,
                    heartbeat=heartbeat, stale_after=stale_after,
                )
            except WorkerCrashError as exc:
                if sup is None:
                    self._teardown_workers()
                    raise SimulationError(
                        f"processes backend: worker {w} died "
                        f"mid-superstep (exitcode={exc.exitcode})",
                        iteration=iteration, site="backend.processes",
                    ) from exc
                if self._handle_failure(enactor, iteration, iteration_obj,
                                        w, payload, wjobs, shadow,
                                        sent_at, guarded, lost, exc):
                    continue
                return None
            except WorkerHangError as exc:
                sup.hang_detections += 1
                sup.emit("heartbeat.stale", vt=machine.clock.now,
                         worker=w, iteration=iteration,
                         stale=bool(exc.stale))
                if self._handle_failure(enactor, iteration, iteration_obj,
                                        w, payload, wjobs, shadow,
                                        sent_at, guarded, lost, exc):
                    continue
                return None
            if sup is not None:
                sup.observe(time.monotonic() - sent_at[w])
            return msg

    def _handle_failure(self, enactor, iteration, iteration_obj, w,
                        payload, wjobs, shadow, sent_at, guarded, lost,
                        exc) -> bool:
        """Escalation policy for one detected worker failure.

        Returns True when the worker was respawned and the superstep
        replayed (caller re-enters the bounded wait); False when the
        failure escalated into the DeviceLostError rollback path (or,
        unguarded, does not return at all).
        """
        sup = self.supervisor
        machine = enactor.machine
        t0 = time.perf_counter()
        sup.record_failure(iteration, w)
        wgpus = [g for g, _f, _i in wjobs]
        escalate = sup.should_escalate(iteration, w)
        if not escalate:
            # respawn path: make sure the old process is dead *before*
            # restoring the windows (a SIGSTOPped worker briefly
            # resumes during reaping and could scribble afterwards),
            # then restore this worker's windows to their
            # pre-superstep shadow (a dying worker may have written
            # half a window), re-fork, replay the in-flight superstep
            self._reap_slot(w)
            sup.restore_shadow(enactor.problem, shadow, wgpus)
            if self._respawn_worker(w, enactor, iteration_obj):
                sup.worker_respawns += 1
                sup.supersteps_replayed += len(wjobs)
                sup.emit("worker.respawn", vt=machine.clock.now,
                         worker=w, iteration=iteration,
                         supersteps=len(wjobs))
                # a second due host fault on the same GPU (e.g. a
                # crash-twice plan) strikes the replacement here;
                # only_gpus keeps specs aimed at other workers pending
                sup.deliver_due_host_faults(
                    self, enactor, iteration, only_gpus=wgpus
                )
                self._send(w, payload)
                sent_at[w] = time.monotonic()
                sup.overhead_seconds += time.perf_counter() - t0
                return True
            escalate = True
        # rollback path: convert the failure into DeviceLostError
        # values so RecoveryPolicy rolls back, reassigns onto the
        # survivors, and repartitions (pool resize happens at the
        # invalidate() that recovery triggers)
        if self.recorder is not None:
            # snapshot heartbeat ages *before* the worker is reaped —
            # the stale slot is the whole story of a hang escalation
            self.recorder.dump(
                "supervisor-escalation", error=exc,
                heartbeats=self.heartbeat_ages(),
                faults=machine.faults,
                worker=w, iteration=iteration,
            )
        self._retire_worker(w)
        if not guarded:
            self._teardown_workers()
            sup.overhead_seconds += time.perf_counter() - t0
            raise exc
        for g in wgpus:
            sup.emit("worker.lost", vt=machine.clock.now, worker=w,
                     gpu=g, iteration=iteration)
            lost[g] = DeviceLostError(
                f"worker {w} unrecoverable ({type(exc).__name__}: {exc})",
                gpu_id=g, iteration=iteration, site="supervise.escalate",
            )
        sup.overhead_seconds += time.perf_counter() - t0
        return False

    def _apply_sidecar(self, enactor, g, side) -> None:
        machine = enactor.machine
        gpu = machine.gpus[g]
        for sname, t in side["streams"].items():
            gpu.streams[sname].available_at = t
        gpu.memory.apply_state(side["pool"])
        fin, fout = enactor.frontiers_in[g], enactor.frontiers_out[g]
        fin.capacity, fin.grow_events = side["fin"]
        fout.capacity, fout.grow_events = side["fout"]
        if side["faults"] is not None and machine.faults is not None:
            machine.faults.apply_consumption_delta(side["faults"])
        if self.tracer is not None and side["trace"] is not None:
            self.tracer.adopt_staged(g, side["trace"])
        if side["san"] is not None and enactor.sanitizer is not None:
            enactor.sanitizer.adopt_stage(g, side["san"])
        for name, value in side["attrs"].items():
            getattr(enactor.problem, name)[g] = value

    def map_supersteps(self, fns):
        # arbitrary closures cannot cross a process boundary; the
        # structured path is run_iteration().  Plain callables (tests,
        # ad-hoc use) run inline, preserving list order.
        return [fn() for fn in fns]


def parse_backend_spec(spec: str) -> Tuple[str, Optional[int]]:
    """Split ``"name"`` / ``"name:N"`` into ``(name, N or None)``.

    Raises :class:`ValueError` naming the spec when the name is not one
    of :data:`BACKENDS`, when ``N`` is not an integer >= 1, or when a
    worker count is given to ``serial`` (which has no workers).
    """
    name, sep, arg = str(spec).partition(":")
    if name not in BACKENDS:
        raise ValueError(
            f"unknown execution backend {spec!r}; expected one of "
            f"{BACKENDS}"
        )
    if not sep:
        return name, None
    if name == "serial":
        raise ValueError(
            f"bad execution backend {spec!r}: serial takes no worker count"
        )
    try:
        workers = int(arg)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(
            f"bad execution backend {spec!r}: worker count must be an "
            "integer >= 1"
        )
    return name, workers


def make_backend(
    spec: Union[str, ExecutionBackend, None], num_gpus: int = 0
) -> ExecutionBackend:
    """Resolve a backend spec: an instance, ``"serial"``, ``"threads"``
    / ``"threads:N"``, or ``"processes"`` / ``"processes:N"`` (explicit
    worker count; see :func:`parse_backend_spec`)."""
    if spec is None:
        return SerialBackend()
    if isinstance(spec, ExecutionBackend):
        return spec
    name, workers = parse_backend_spec(spec)
    if name == "serial":
        return SerialBackend()
    workers = workers or num_gpus or None
    if name == "threads":
        return ThreadsBackend(max_workers=workers)
    return ProcessesBackend(max_workers=workers)
