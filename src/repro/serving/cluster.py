"""Multi-process serving cluster: worker pool, routing, priority admission.

PR 1/2 built a single engine behind one asyncio front door, so aggregate
throughput is capped by one worker thread and one decoded model per engine.
This module replicates that engine across **processes** — TNN-style
bit-plane execution makes each worker cheap enough to replicate — and puts
a router in front:

* :class:`WorkerPool` spawns N workers (``multiprocessing`` spawn context,
  so workers are import-clean and fork-safety is a non-issue).  Each worker
  process owns its own :class:`~repro.serving.batching.BatchingEngine` and
  :class:`~repro.serving.packed.PackedModel` plans, decoded locally from
  serialized image bytes — decoded planes are never pickled across the
  process boundary, only the 2-bit images are.  Requests drained from the
  worker's pipe in one burst are coalesced through the engine, so
  micro-batching survives the IPC hop; within a burst, requests dispatch in
  priority order.
* :class:`ClusterRouter` routes each request to a worker by ``(model,
  version)``: placement is delegated to the
  :mod:`repro.serving.placement` subsystem — a
  :class:`~repro.serving.placement.PlacementPolicy` (sticky by default;
  replicated / least-loaded spread one hot model across N workers with
  power-of-two-choices dispatch) maps each key to a
  :class:`~repro.serving.placement.ReplicaSet`, under a registry-style
  **cluster-wide decoded-byte budget** (LRU replica sets are unloaded to
  admit new ones) and **priority-class admission**
  (:mod:`repro.serving.priority`, scaled by the replica count serving the
  request): low-priority traffic sheds first under load and can never
  starve high-priority deadlines.  ``version=None`` resolves to the
  model's *current* version at admission, which is what lets a
  :class:`~repro.serving.placement.DeployManager` flip routing atomically
  during a rolling deploy.
* Worker **health monitoring**: a worker that dies is detected through pipe
  EOF, its in-flight requests fail with
  :class:`~repro.errors.WorkerCrashed`, and the pool transparently restarts
  the process and re-decodes every model that was placed on it — subsequent
  traffic is served normally.  A crash-looping worker is held back by
  capped exponential restart backoff
  (:class:`~repro.serving.resilience.RestartBackoffPolicy`) instead of
  hot-looping re-decodes.
* A **resilience layer** (:mod:`repro.serving.resilience`), all opt-in via
  router kwargs: ``retry=RetryPolicy(...)`` transparently re-dispatches
  retryable failures to a *different* replica (safe — replicas are bitwise
  identical) under a global retry budget; ``breakers=BreakerPolicy(...)``
  quarantines flapping workers out of replica choice until a half-open
  probe succeeds; ``hedge=HedgePolicy(...)`` duplicates slow HIGH-priority
  single requests after a p99-derived delay, first result wins; and
  :meth:`ClusterRouter.set_brownout` sheds LOW traffic while a
  :class:`~repro.serving.resilience.BrownoutController` observes sustained
  overload in the telemetry snapshot.
* A **zero-copy shared-memory data plane** (:mod:`repro.serving.shm`): by
  default request payloads are written once into a slab of a
  ``multiprocessing.shared_memory`` ring and workers read them as zero-copy
  ndarray views, while the pipes carry only small control frames (request
  id, model name, slab id, shape, dtype, deadline, priority).  Results
  travel back through the same slab.  The pickle-over-pipe path survives as
  an automatic fallback — payloads larger than one slab, an exhausted ring,
  or ``transport=False`` all take it — and both planes produce bitwise
  identical predictions.  Slab leases are tracked parent-side only: a reply
  (or the worker's death) releases the request's slab, and ``stop()``
  unlinks the segment, so crashes cannot leak shared memory.
* :meth:`WorkerPool.submit_many` / :meth:`ClusterRouter.submit_many` submit
  a burst of requests as **one control frame** — one syscall, one pipe
  message, one coalesced engine flush — which is what makes large batch
  shapes cheap on top of the slab plane.

Deadlines are carried across the process boundary as absolute
``time.monotonic()`` timestamps (system-wide on every major OS), so time a
request spends queued in the pipe counts against its budget exactly like
time spent in the engine queue.

:class:`~repro.serving.frontend.AsyncServingFrontend` accepts a
``ClusterRouter`` in place of an engine, which makes the whole cluster
reachable as ``await predict(x, model=..., priority=..., deadline_s=...)``.
"""

from __future__ import annotations

import functools
import itertools
import math
import multiprocessing
import os
import threading
import time
import warnings
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.deploy.image import ModelImage
from repro.errors import (
    AdmissionError,
    ConfigError,
    DeadlineExceeded,
    RoutingError,
    TransportError,
    WorkerCrashed,
)
from repro.serving.batching import BatchingEngine, MicroBatchConfig
from repro.serving.catalog import (
    VersionedCatalog,
    catalog_errors,
    make_key,
    split_key,
)
from repro.serving.kernels import get_kernel_profile, set_kernel_profile
from repro.serving.kernels_fast import KernelBackend, registered_backend_name
from repro.serving.packed import PackedModel
from repro.serving.placement import (
    PlacementPolicy,
    PlacementTable,
    ReplicaSet,
    ReplicaStats,
)
from repro.serving.priority import Priority, PriorityPolicy
from repro.serving.resilience import (
    BreakerBoard,
    BreakerPolicy,
    HedgePolicy,
    ResilienceStats,
    RestartBackoffPolicy,
    RetryPolicy,
)
from repro.serving.shm import SlabClient, SlabConfig, SlabPool
from repro.serving.telemetry import (
    KernelProfile,
    MetricsRegistry,
    Trace,
    Tracer,
    get_registry,
)

#: how long lifecycle operations wait on a worker process before escalating
_JOIN_TIMEOUT_S = 5.0

#: default completion-latency window (per class and per version) for the
#: percentile rollup; override per router with ``ClusterRouter(latency_window=)``
DEFAULT_LATENCY_WINDOW = 2048


# --------------------------------------------------------------------------- #
# worker process
# --------------------------------------------------------------------------- #


def _serve_burst(
    conn,
    engines: Dict[str, BatchingEngine],
    client: Optional[SlabClient],
    burst: List[tuple],
    lags: Optional[Dict[str, float]] = None,
) -> None:
    """Coalesce one drained burst of predict requests through the engines.

    Each burst entry is ``(req_id, name, payload, deadline, priority,
    trace)`` where ``payload`` is either ``("pipe", ndarray)`` or ``("shm",
    slab_id, shape, dtype)`` — a shm payload is read as a zero-copy view
    into the slab the parent leased to this request, and its result is
    written back into the *same* slab (one slab per request for its whole
    round trip).

    Requests are submitted in priority order (stable within a class), so a
    HIGH request admitted in the same burst as LOW ones is batched — and
    deadline-checked — first.  Each model's engine then runs one
    deterministic ``flush()``, and every request gets exactly one reply.

    ``trace`` is ``None`` on the hot path; for a sampled request it is
    ``(send_s, recv_s)`` from the control frame and this worker's drain
    loop, and the request's lifecycle spans (``transport`` / ``queue`` /
    ``kernel`` / ``decode``, all ``time.monotonic`` so they compare across
    the process boundary) are shipped back in a ``("spans", ...)`` reply
    *before* the result, for the parent to merge.  Timing never touches
    the numerics — traced and untraced requests are bitwise identical.

    ``lags`` is the chaos-hook lag map (model key → injected seconds): a
    burst touching a lagged model stalls before its flush, inflating every
    latency the burst carries — the worker-side fault canary tests and
    benchmarks use to provoke an SLO breach without perturbing results.
    """
    submitted: List[tuple] = []  # (req_id, slab_id, future, trace)
    touched = set()
    for req_id, name, payload, deadline, priority, trace in sorted(
        burst, key=lambda m: m[4]
    ):
        engine = engines.get(name)
        if engine is None:
            conn.send(("error", req_id, "routing", f"model {name!r} is not loaded on this worker"))
            continue
        if payload[0] == "shm":
            _, slab_id, shape, dtype = payload
            x = client.view(slab_id, shape, dtype)  # zero-copy read
        else:
            slab_id, x = None, payload[1]
        deadline_s = None if deadline is None else deadline - time.monotonic()
        if trace is not None:
            trace = (*trace, time.monotonic())  # + engine submit timestamp
        submitted.append((req_id, slab_id, engine.submit(x, deadline_s=deadline_s), trace))
        touched.add(name)
    if lags:
        delay = max((lags.get(name, 0.0) for name in touched), default=0.0)
        if delay > 0:
            time.sleep(delay)
    flush_start = time.monotonic()
    for name in touched:
        engines[name].flush()
    flush_end = time.monotonic()
    for req_id, slab_id, future, trace in submitted:
        try:
            result = np.ascontiguousarray(future.result())
            decode_start = time.monotonic()
            # the engine stacked (copied) the input at dispatch, so the slab
            # is dead weight by now — reuse it for the response payload
            if slab_id is not None and client.fits(result.nbytes):
                reply = ("sresult", req_id, *client.write(slab_id, result))
            else:
                reply = ("result", req_id, result)
            if trace is not None:
                send_s, recv_s, submit_s = trace
                conn.send(
                    (
                        "spans",
                        req_id,
                        (
                            ("transport", send_s, recv_s),
                            ("queue", submit_s, flush_start),
                            ("kernel", flush_start, flush_end),
                            ("decode", decode_start, time.monotonic()),
                        ),
                    )
                )
            conn.send(reply)
        except DeadlineExceeded:
            conn.send(("deadline", req_id))
        except Exception as exc:  # delivered to exactly this request's caller
            conn.send(("error", req_id, "runtime", f"{type(exc).__name__}: {exc}"))


def _attach(burst: List[tuple], shm_client) -> Optional[SlabClient]:
    """The burst's slab client — attached only when shm payloads are present."""
    if any(entry[2][0] == "shm" for entry in burst):
        return shm_client()
    return None


def _worker_main(
    conn,
    config: MicroBatchConfig,
    shm_spec: Optional[Tuple[str, SlabConfig]] = None,
    worker_id: int = 0,
    kernel: Optional[str] = None,
) -> None:
    """Entry point of one worker process.

    Serves commands from the parent pipe until told to stop.  Messages are
    drained in bursts (everything already queued in the pipe) so concurrent
    requests coalesce into micro-batches, but pipe order is preserved
    around control messages — a predict sent before an ``unload`` of its
    model is served before the model is dropped.

    ``shm_spec`` names the parent's slab segment; the worker attaches
    lazily on the first shm-framed request (a pure pipe workload never maps
    the segment) and only ever reads/writes slabs the parent leased to its
    own requests.

    ``worker_id`` is this worker's replica identity: every burst frame
    carries the replica id the router resolved, and a frame addressed to a
    different replica is rejected per request instead of silently served by
    the wrong plan copy.

    ``kernel`` is the execution-backend name every model loaded into this
    worker runs on (:mod:`repro.serving.kernels_fast`).  The parent pool
    resolves it once and ships the *name* in the spawn args, so all
    replicas of a cluster execute the same kernels regardless of the
    workers' own environment.
    """
    models: Dict[str, PackedModel] = {}
    engines: Dict[str, BatchingEngine] = {}
    lags: Dict[str, float] = {}  # chaos hook: model key -> injected seconds
    poisoned: set = set()  # chaos hook: model keys that kill the next load
    client: Optional[SlabClient] = None

    def shm_client() -> SlabClient:
        """Attach to the parent's slab segment on first use."""
        nonlocal client
        if client is None:
            client = SlabClient(shm_spec[0], shm_spec[1])
        return client

    def handle_control(msg) -> bool:
        """Apply one non-predict command; returns True on a stop request."""
        op = msg[0]
        if op == "load":
            _, name, blob = msg
            if name in poisoned:
                # chaos hook: a poisoned image kills the worker mid-decode,
                # exactly like a real bad build would — used to manufacture
                # deterministic crash loops for the restart-backoff tests
                os._exit(13)
            try:
                model = PackedModel(ModelImage.from_bytes(blob), cache=True, kernel=kernel)
            except Exception as exc:
                conn.send(("load_error", name, f"{type(exc).__name__}: {exc}"))
                return False
            models[name] = model
            engines[name] = BatchingEngine(model, config)
            conn.send(("loaded", name, model.decoded_bytes()))
        elif op == "unload":
            models.pop(msg[1], None)
            engines.pop(msg[1], None)
            conn.send(("unloaded", msg[1]))
        elif op == "ping":
            resident = sum(m.decoded_bytes() for m in models.values())
            conn.send(("pong", msg[1], resident, sorted(models)))
        elif op == "sleep":  # chaos hook: stall the command loop
            time.sleep(msg[1])
        elif op == "lag":  # chaos hook: stall bursts touching one model
            if msg[2] > 0:
                lags[msg[1]] = msg[2]
            else:
                lags.pop(msg[1], None)
        elif op == "kprofile":  # enable/disable per-kind kernel timing
            set_kernel_profile(KernelProfile() if msg[1] else None)
        elif op == "kprofile_snap":  # ship the per-kind breakdown back
            profile = get_kernel_profile()
            data = profile.snapshot() if isinstance(profile, KernelProfile) else {}
            conn.send(("kprofile", msg[1], data))
        elif op == "poison":  # chaos hook: arm a crash on the next load of a model
            poisoned.add(msg[1])
        elif op == "exit":  # chaos hook: die without cleanup, like a real crash
            os._exit(msg[1])
        elif op == "stop":
            return True
        return False

    while True:
        try:
            messages = [conn.recv()]
            while conn.poll(0):
                messages.append(conn.recv())
        except (EOFError, OSError):
            return  # parent went away
        burst: List[tuple] = []
        stop = False
        try:
            for msg in messages:
                if msg[0] == "predict_many":
                    # the one request frame: single submits are 1-bursts,
                    # larger bursts amortise pipe syscalls across a batch;
                    # `traced` is None except for a sampled burst, where it
                    # is (req_id, send_s) naming the burst's traced request
                    _, name, deadline, priority, replica, entries, traced = msg
                    recv_s = time.monotonic() if traced is not None else 0.0
                    if replica != worker_id:
                        # misaddressed frame: the resolved replica id in the
                        # control frame names another worker's plan copy
                        for req_id, _ in entries:
                            conn.send((
                                "error",
                                req_id,
                                "routing",
                                f"frame for replica {replica} reached worker {worker_id}",
                            ))
                        continue
                    for req_id, payload in entries:
                        trace = (
                            (traced[1], recv_s)
                            if traced is not None and req_id == traced[0]
                            else None
                        )
                        burst.append((req_id, name, payload, deadline, priority, trace))
                    continue
                if burst:  # keep pipe order around control commands
                    _serve_burst(conn, engines, _attach(burst, shm_client), burst, lags)
                    burst = []
                if handle_control(msg):
                    stop = True
                    break
            if burst:
                _serve_burst(conn, engines, _attach(burst, shm_client), burst, lags)
        except (BrokenPipeError, OSError):
            return
        if stop:
            if client is not None:
                client.close()
            conn.close()
            return


# --------------------------------------------------------------------------- #
# parent-side pool
# --------------------------------------------------------------------------- #


class _WorkerHandle:
    """Parent-side state for one live worker process (guarded by pool lock)."""

    def __init__(self, worker_id: int, proc, conn, restarts: int) -> None:
        self.worker_id = worker_id
        self.proc = proc
        self.conn = conn
        self.restarts = restarts
        self.send_lock = threading.Lock()
        #: req_id -> (future, leased slab id or None for pipe payloads)
        self.inflight: Dict[int, Tuple[Future, Optional[int]]] = {}
        self.pings: Dict[int, list] = {}
        #: req_id -> parent-side Trace awaiting its worker spans
        self.traces: Dict[int, Trace] = {}
        self.reader: Optional[threading.Thread] = None
        self.stopping = False
        self.served = 0
        self.deadline_misses = 0


@dataclass(frozen=True)
class WorkerStats:
    """One worker's slice of :class:`ClusterStats`.

    ``backing_off`` is True while the worker is dead and its respawn is
    deliberately delayed by the pool's
    :class:`~repro.serving.resilience.RestartBackoffPolicy`;
    ``crash_streak`` counts consecutive short-lived crashes (reset once a
    spawn survives past the policy's stability horizon).
    """

    worker_id: int
    alive: bool
    restarts: int
    in_flight: int
    served: int
    deadline_misses: int
    resident_bytes: int
    models: Tuple[str, ...]
    backing_off: bool = False
    crash_streak: int = 0


@dataclass(frozen=True)
class LatencyStats:
    """Completion-latency percentiles for one priority class or model version.

    ``count`` is the lifetime number of successful completions recorded;
    the percentiles are computed over a sliding window of the most recent
    completions (``ClusterRouter(latency_window=...)``, default
    :data:`DEFAULT_LATENCY_WINDOW`; ``nan`` before the first completion)
    and measure submit→resolve time, so pipe/slab transport and engine
    queueing are all included.
    """

    count: int
    p50_ms: float
    p99_ms: float

    @classmethod
    def from_completions(cls, count: int, window_s: Sequence[float]) -> "LatencyStats":
        """Roll one latency window (seconds) into percentile stats.

        Percentiles use :func:`numpy.percentile`'s default linear
        interpolation over exactly the values in ``window_s`` — the same
        computation the router applies to its live windows, exposed so
        tests can pin the arithmetic on known synthetic sequences.
        """
        if len(window_s):
            p50, p99 = np.percentile(np.fromiter(window_s, dtype=np.float64), [50, 99])
        else:
            p50 = p99 = float("nan")
        return cls(count=count, p50_ms=float(p50) * 1e3, p99_ms=float(p99) * 1e3)


#: how many recent ScaleEvent rows ClusterStats.scale_events retains
SCALE_EVENT_WINDOW = 256


class _CanarySplit:
    """Mutable router-side record of one model's canary traffic split.

    The split is deterministic, not random: request burst ``i`` (counting
    every ``version=None`` burst since the split opened) routes to the
    canary iff ``floor(i*f) > floor((i-1)*f)``, which interleaves canary
    bursts evenly and converges on exactly ``fraction`` of traffic with no
    RNG to seed.  ``state`` starts ``"running"``; :meth:`ClusterRouter.clear_split`
    freezes it at a terminal outcome so stats keep the settled record.
    """

    __slots__ = ("version", "fraction", "counter", "routed", "state")

    def __init__(self, version: str, fraction: float) -> None:
        self.version = version
        self.fraction = fraction
        self.counter = 0  # version=None bursts seen since the split opened
        self.routed = 0  # of those, bursts routed to the canary version
        self.state = "running"

    def take(self) -> bool:
        """Advance the counter; True when this burst goes to the canary."""
        self.counter += 1
        before = math.floor((self.counter - 1) * self.fraction)
        if math.floor(self.counter * self.fraction) > before:
            self.routed += 1
            return True
        return False

    def snapshot(self) -> CanarySplitStats:
        """Immutable stats row for :attr:`ClusterStats.canary_state`."""
        return CanarySplitStats(
            version=self.version,
            fraction=self.fraction,
            routed=self.routed,
            total=self.counter,
            state=self.state,
        )


@dataclass(frozen=True)
class ScaleEvent:
    """One autoscaling decision applied to a replica set.

    ``action`` is ``"grow"`` or ``"shrink"``; ``reason`` is free text from
    whoever called :meth:`ClusterRouter.resize` (the
    :class:`~repro.serving.control.Autoscaler` records the watermark that
    fired).  ``at_s`` is the router's ``time.monotonic()`` at the decision,
    so event spacing can be audited against cooldowns.
    """

    key: str
    action: str
    from_replicas: int
    to_replicas: int
    reason: str
    at_s: float


@dataclass(frozen=True)
class CanarySplitStats:
    """One model's canary traffic split, live or settled.

    ``state`` is ``"running"`` while the split routes traffic, then the
    terminal outcome recorded by :meth:`ClusterRouter.clear_split`
    (``"promoted"`` / ``"rolled_back"`` / ``"cleared"``).  ``routed`` of
    ``total`` ``version=None`` requests went to the canary version — the
    deterministic counter split converges on ``fraction`` exactly.
    """

    version: str
    fraction: float
    routed: int
    total: int
    state: str


@dataclass(frozen=True)
class ClusterStats:
    """Cluster-wide rollup: per-worker stats plus router-level counters.

    ``served``/``deadline_misses`` aggregate every worker across restarts;
    ``shed_by_priority`` counts admission rejections per
    :class:`~repro.serving.priority.Priority` class (``shed`` is their sum);
    ``resident_bytes`` is the decoded-plan footprint across all placements
    and never exceeds the router's ``capacity_bytes``.
    ``queue_depth_by_priority`` is the admitted-but-unresolved count per
    class (summing to ``pending``), ``latency_by_priority`` the per-class
    completion percentiles, and ``transport`` the data-plane counters from
    :meth:`WorkerPool.transport_snapshot`.

    Placement-aware rollups: ``replicas`` maps each placed model key
    (``"name@version"``) to its per-replica dispatch/completion counters,
    ``latency_by_version`` gives served count + completion percentiles per
    version key, and ``current_versions`` names the version ``version=None``
    resolves to for every registered model.

    Control-plane rollups: ``errors_by_version`` / ``shed_by_version``
    count failed completions and admission sheds per version key,
    ``scale_events`` is the trailing window of :class:`ScaleEvent` rows
    (most recent last), and ``canary_state`` maps each model name with a
    live or settled traffic split to its :class:`CanarySplitStats`.

    Resilience rollups: ``errors_by_type`` counts every failed *attempt*
    by exception class name (``WorkerCrashed``, ``TransportError``,
    ``DeadlineExceeded``, ``AdmissionError``, ...) — attempts, not
    requests, so retry efficacy is observable as the gap between
    ``errors_by_type`` growth and caller-visible failures — and
    ``resilience`` is the :class:`~repro.serving.resilience.ResilienceStats`
    rollup of retry / hedge / breaker / brownout state.
    """

    workers: Tuple[WorkerStats, ...]
    served: int
    deadline_misses: int
    shed_by_priority: Mapping[Priority, int]
    resident_bytes: int
    evictions: int
    crashes: int
    pending: int
    queue_depth_by_priority: Mapping[Priority, int] = field(default_factory=dict)
    latency_by_priority: Mapping[Priority, LatencyStats] = field(default_factory=dict)
    transport: Mapping[str, int] = field(default_factory=dict)
    replicas: Mapping[str, Tuple[ReplicaStats, ...]] = field(default_factory=dict)
    latency_by_version: Mapping[str, LatencyStats] = field(default_factory=dict)
    current_versions: Mapping[str, str] = field(default_factory=dict)
    errors_by_version: Mapping[str, int] = field(default_factory=dict)
    shed_by_version: Mapping[str, int] = field(default_factory=dict)
    scale_events: Tuple[ScaleEvent, ...] = ()
    canary_state: Mapping[str, CanarySplitStats] = field(default_factory=dict)
    kernel_profile: Mapping[str, Mapping[str, float]] = field(default_factory=dict)
    errors_by_type: Mapping[str, int] = field(default_factory=dict)
    resilience: ResilienceStats = field(default_factory=ResilienceStats)

    @property
    def shed(self) -> int:
        """Total requests rejected at admission, all priority classes."""
        return sum(self.shed_by_priority.values())

    def as_tree(self) -> Dict[str, object]:
        """Plain-dict mirror of this snapshot for the telemetry plane.

        Every mapping is string-keyed (Priority enums by name) and every
        nested dataclass flattened, so the tree JSON-exports cleanly and
        the control plane can read it through
        :meth:`~repro.serving.telemetry.MetricsRegistry.snapshot`.
        """
        from dataclasses import asdict

        def lat(row: LatencyStats) -> Dict[str, float]:
            return {"count": row.count, "p50_ms": row.p50_ms, "p99_ms": row.p99_ms}

        return {
            "served": self.served,
            "deadline_misses": self.deadline_misses,
            "shed": self.shed,
            "shed_by_priority": {p.name: n for p, n in self.shed_by_priority.items()},
            "resident_bytes": self.resident_bytes,
            "evictions": self.evictions,
            "crashes": self.crashes,
            "pending": self.pending,
            "queue_depth_by_priority": {
                p.name: n for p, n in self.queue_depth_by_priority.items()
            },
            "latency_by_priority": {
                p.name: lat(row) for p, row in self.latency_by_priority.items()
            },
            "workers": [asdict(row) for row in self.workers],
            "replicas": {
                key: [asdict(row) for row in rows]
                for key, rows in self.replicas.items()
            },
            "latency_by_version": {
                key: lat(row) for key, row in self.latency_by_version.items()
            },
            "current_versions": dict(self.current_versions),
            "errors_by_version": dict(self.errors_by_version),
            "shed_by_version": dict(self.shed_by_version),
            "scale_events": [asdict(event) for event in self.scale_events],
            "canary_state": {
                name: asdict(row) for name, row in self.canary_state.items()
            },
            "kernel_profile": {
                kind: dict(row) for kind, row in self.kernel_profile.items()
            },
            "errors_by_type": dict(self.errors_by_type),
            "resilience": self.resilience.as_tree(),
        }


class WorkerPool:
    """N spawn-safe worker processes behind per-worker pipes.

    The pool owns process lifecycle (start / stop / crash restart), request
    transport, and in-flight futures.  It knows nothing about placement
    *policy* (that lives in :class:`ClusterRouter`), but it does remember
    which model images each worker was told to ``load`` so that a crashed
    worker's replacement re-decodes them — with the replayed loads entering
    the new pipe *before* any new request can, so a caller that resubmits
    right after :class:`~repro.errors.WorkerCrashed` is served, never
    bounced with a routing error.

    ``transport`` selects the data plane: ``True`` (default) runs the
    shared-memory slab plane with default :class:`~repro.serving.shm.SlabConfig`
    geometry, a ``SlabConfig`` customises it, and ``False``/``None`` keeps
    every payload on the pickle-over-pipe path.  Payloads that do not fit a
    slab — or arrive while the ring is exhausted — fall back to the pipe
    per request, transparently and bitwise-identically.

    ``restart_backoff`` delays the respawn of a *crash-looping* worker by
    a capped exponential
    (:class:`~repro.serving.resilience.RestartBackoffPolicy`): a worker
    that keeps dying shortly after spawn would otherwise hot-loop model
    re-decodes and burn a core.  While a slot is backing off its dead
    handle stays published, so submits to it fail fast with
    :class:`~repro.errors.WorkerCrashed` (which the router's retry layer
    steers to another replica) rather than queueing against a corpse.
    The first crash (``free_restarts``) always respawns immediately —
    one-off crashes keep today's instant-restart behaviour.

    ``kernel`` pins the execution backend every worker decodes and runs
    models on (:mod:`repro.serving.kernels_fast`).  It is resolved to a
    registered backend *name* eagerly — in the parent, at construction —
    and that name rides the worker-init spawn args, so all replicas (and
    every crash-restart replacement) execute identical kernels even if
    the worker processes inherit a different ``$REPRO_KERNEL_BACKEND``.
    ``None`` resolves the parent's process default.  Because only the
    name crosses the process boundary, a :class:`KernelBackend` instance
    is accepted only when it is the registered backend for its name —
    anything else raises :class:`~repro.errors.ConfigError` up front
    rather than silently running a different configuration per worker.
    """

    def __init__(
        self,
        workers: int,
        *,
        config: Optional[MicroBatchConfig] = None,
        start_method: str = "spawn",
        transport: Union[SlabConfig, bool, None] = True,
        restart_backoff: Optional[RestartBackoffPolicy] = None,
        kernel: Union[str, "KernelBackend", None] = None,
    ) -> None:
        if workers < 1:
            raise ConfigError("a worker pool needs at least 1 worker")
        self.num_workers = workers
        self.config = config or MicroBatchConfig()
        # resolved to a plain name now: validates the choice in the parent
        # and keeps the spawn args picklable for the spawn start method;
        # instances that aren't the registered backend for their name are
        # rejected — workers could only re-resolve the name, not the config
        self.kernel = registered_backend_name(kernel)
        if transport is True:
            self._transport_config: Optional[SlabConfig] = SlabConfig()
        elif transport is False or transport is None:
            self._transport_config = None
        else:
            self._transport_config = transport
        self._slab_pool: Optional[SlabPool] = None
        self._ctx = multiprocessing.get_context(start_method)
        self._lock = threading.RLock()
        self._lifecycle = threading.Lock()
        self._handles: Dict[int, _WorkerHandle] = {}
        self._worker_loads: Dict[int, Dict[str, bytes]] = {}  # wid -> name -> image
        self._req_ids = itertools.count()
        self._started = False
        self._crashes = 0
        self.restart_backoff = restart_backoff
        self._restart_timers: Dict[int, threading.Timer] = {}
        self._spawn_times: Dict[int, float] = {}  # wid -> last spawn monotonic
        self._crash_streaks: Dict[int, int] = {}  # wid -> consecutive fast crashes
        self._backoff_until: Dict[int, float] = {}  # wid -> respawn monotonic
        self._poison: Dict[int, Dict[str, int]] = {}  # wid -> key -> loads to poison
        self._delayed_restarts = 0
        self._retired_served = 0
        self._retired_misses = 0
        self._shm_requests = 0
        self._pipe_requests = 0
        self._fallbacks_exhausted = 0
        self._fallbacks_oversize = 0

    # -- lifecycle -------------------------------------------------------- #

    @property
    def running(self) -> bool:
        """True between :meth:`start` and :meth:`stop`."""
        return self._started

    def start(self) -> "WorkerPool":
        """Spawn all workers (idempotent); returns self.

        Workers start concurrently and become ready as their interpreter
        finishes importing; commands sent meanwhile queue in the pipes.
        """
        with self._lifecycle:
            if self._started:
                return self
            self._started = True
            with self._lock:
                if self._transport_config is not None:
                    self._slab_pool = SlabPool(self._transport_config)
                for worker_id in range(self.num_workers):
                    self._handles[worker_id] = self._spawn(worker_id, restarts=0)
            return self

    def stop(self) -> None:
        """Stop every worker, idempotently.

        In-flight requests are served first: the ``stop`` command queues
        behind them in each worker's pipe, so the worker drains and replies
        before exiting.
        """
        with self._lifecycle:
            if not self._started:
                return
            with self._lock:
                self._started = False
                handles = list(self._handles.values())
                for handle in handles:
                    handle.stopping = True
                # pending restart backoffs must never delay shutdown: cancel
                # the timers; a timer that already fired sees _started False
                # (or handle.stopping) under the lock and bails
                for timer in self._restart_timers.values():
                    timer.cancel()
                self._restart_timers.clear()
                self._backoff_until.clear()
            for handle in handles:
                try:
                    self._send(handle, ("stop",))
                except OSError:
                    pass  # already dead; reader saw (or will see) the EOF
            for handle in handles:
                handle.proc.join(_JOIN_TIMEOUT_S)
                if handle.proc.is_alive():
                    handle.proc.terminate()
                    handle.proc.join(_JOIN_TIMEOUT_S)
                if handle.reader is not None:
                    handle.reader.join(_JOIN_TIMEOUT_S)
            orphaned: List[Future] = []
            with self._lock:
                self._retire_counters(handles)
                for handle in handles:  # reclaim leases a hard-killed worker held
                    orphaned.extend(self._reclaim_slabs(handle))
                self._handles.clear()
                self._worker_loads.clear()  # a restarted pool re-places lazily
                if self._slab_pool is not None:
                    # every lease is back by now (replies released them, and
                    # the loop above reclaimed the rest), so the no-leak
                    # invariant `leased == 0` holds before the unlink
                    self._slab_pool.destroy()
            # a worker wedged past the joins never answered these requests,
            # and its reader's _on_exit will see a cleared slot and bail —
            # fail them here so no caller blocks on a forever-pending future
            for future in orphaned:
                if future.set_running_or_notify_cancel():
                    future.set_exception(
                        WorkerCrashed("pool stopped with the request still in flight")
                    )

    def __enter__(self) -> "WorkerPool":
        """Start the pool for the duration of a ``with`` block."""
        return self.start()

    def __exit__(self, *exc_info) -> None:
        """Stop the pool, draining in-flight work first."""
        self.stop()

    def _spawn(self, worker_id: int, restarts: int) -> _WorkerHandle:
        """Start one worker process plus its parent-side reader thread."""
        parent_conn, child_conn = self._ctx.Pipe()
        shm_spec = (
            None
            if self._slab_pool is None
            else (self._slab_pool.name, self._slab_pool.config)
        )
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.config, shm_spec, worker_id, self.kernel),
            name=f"cluster-worker-{worker_id}",
            daemon=True,
        )
        proc.start()
        child_conn.close()  # parent keeps one end only, so EOF means death
        self._spawn_times[worker_id] = time.monotonic()
        handle = _WorkerHandle(worker_id, proc, parent_conn, restarts)
        handle.reader = threading.Thread(
            target=self._read_loop,
            args=(handle,),
            name=f"cluster-reader-{worker_id}",
            daemon=True,
        )
        handle.reader.start()
        return handle

    def _retire_counters(self, handles: List[_WorkerHandle]) -> None:
        """Fold stopped handles' counters into the pool lifetime totals."""
        for handle in handles:
            self._retired_served += handle.served
            self._retired_misses += handle.deadline_misses

    # -- transport -------------------------------------------------------- #

    def _send(self, handle: _WorkerHandle, msg: tuple) -> None:
        """Send one command on a worker pipe (serialised per worker)."""
        with handle.send_lock:
            handle.conn.send(msg)

    def _handle(self, worker_id: int) -> _WorkerHandle:
        """Look up a live worker handle or raise."""
        handle = self._handles.get(worker_id)
        if handle is None or not self._started:
            raise RoutingError(f"worker {worker_id} is not running (pool stopped?)")
        return handle

    def worker_ids(self) -> List[int]:
        """Ids of the configured worker slots."""
        return list(range(self.num_workers))

    def in_flight(self, worker_id: int) -> int:
        """Requests currently unresolved on one worker (its load metric)."""
        with self._lock:
            handle = self._handles.get(worker_id)
            return len(handle.inflight) if handle is not None else 0

    def _encode_payload(self, x: np.ndarray) -> Tuple[tuple, Optional[int], Optional[str]]:
        """Choose the data plane for one payload.

        Returns ``(frame_payload, slab_id, fallback_reason)``: a shm frame
        when a slab was leased and written, else the pipe frame carrying
        the ndarray itself (``transport=False``, oversized payload, or
        exhausted ring).  Runs *outside* the pool lock — the lease from
        ``try_acquire`` is exclusive, so the slab memcpy cannot race
        anything; the caller batches the counter updates under the lock.
        """
        x = np.asarray(x)
        pool = self._slab_pool
        reason = None
        if pool is not None:
            if pool.fits(x.nbytes):
                slab_id = pool.try_acquire()
                if slab_id is not None:
                    shape, dtype = pool.write(slab_id, x)
                    return ("shm", slab_id, shape, dtype), slab_id, None
                reason = "exhausted"
            else:
                reason = "oversize"
        return ("pipe", x), None, reason

    def _release_slab(self, slab_id: Optional[int]) -> None:
        """Return one lease to the ring (no-op for pipe payloads)."""
        if slab_id is not None and self._slab_pool is not None:
            self._slab_pool.release(slab_id)

    def _reclaim_slabs(self, handle: _WorkerHandle) -> List[Future]:
        """Drop a dead handle's in-flight map, reclaiming every leased slab
        (under the pool lock); returns the orphaned futures."""
        dead: List[Future] = []
        for future, slab_id in handle.inflight.values():
            self._release_slab(slab_id)
            dead.append(future)
        handle.inflight.clear()
        handle.traces.clear()  # a dead worker's spans are never coming
        return dead

    def submit(
        self,
        worker_id: int,
        name: str,
        x: np.ndarray,
        *,
        deadline: Optional[float] = None,
        priority: Priority = Priority.NORMAL,
    ) -> "Future[np.ndarray]":
        """Send one request to a specific worker; the future resolves to its
        result row (or to ``DeadlineExceeded`` / ``RoutingError`` /
        ``WorkerCrashed``).

        ``deadline`` is an absolute ``time.monotonic()`` timestamp so pipe
        queueing time counts against the budget.  The payload rides the
        shared-memory plane when a slab is available and falls back to the
        pipe otherwise.
        """
        return self.submit_many(worker_id, name, [x], deadline=deadline, priority=priority)[0]

    def encode_burst(
        self, xs: Sequence[np.ndarray]
    ) -> List[Tuple[tuple, Optional[int], Optional[str]]]:
        """Encode a burst of payloads onto the data plane.

        Runs without the pool lock (slab leases are exclusive), so callers
        — including :class:`ClusterRouter` — can keep the memcpys outside
        *their* locks too.  The leases travel with the returned list: pass
        it to :meth:`submit_encoded`, or :meth:`release_encoded` on a path
        that abandons the burst.  If encoding any item raises (e.g. a
        payload ``np.asarray`` cannot convert), the leases already taken
        for earlier items are released before the error propagates.
        """
        encoded: List[Tuple[tuple, Optional[int], Optional[str]]] = []
        try:
            for x in xs:
                encoded.append(self._encode_payload(x))
        except BaseException:
            self.release_encoded(encoded)
            raise
        return encoded

    def release_encoded(
        self, encoded: Sequence[Tuple[tuple, Optional[int], Optional[str]]]
    ) -> None:
        """Return the slab leases of an abandoned encoded burst."""
        with self._lock:
            for _, slab_id, _ in encoded:
                self._release_slab(slab_id)

    def submit_many(
        self,
        worker_id: int,
        name: str,
        xs: Sequence[np.ndarray],
        *,
        deadline: Optional[float] = None,
        priority: Priority = Priority.NORMAL,
    ) -> List["Future[np.ndarray]"]:
        """Send a burst of requests to one worker as a single control frame.

        All payloads are encoded (slab writes or pipe fallbacks) and the
        whole burst crosses the pipe in **one** message — one syscall and
        one worker wake-up for the batch, which the worker coalesces into
        one engine flush.  Futures are returned in submission order; on a
        closed pipe every future fails :class:`~repro.errors.WorkerCrashed`
        and every leased slab is reclaimed immediately.
        """
        encoded = self.encode_burst(xs)
        try:
            return self.submit_encoded(
                worker_id, name, encoded, deadline=deadline, priority=priority
            )
        except BaseException:
            self.release_encoded(encoded)
            raise

    def submit_encoded(
        self,
        worker_id: int,
        name: str,
        encoded: Sequence[Tuple[tuple, Optional[int], Optional[str]]],
        *,
        deadline: Optional[float] = None,
        priority: Priority = Priority.NORMAL,
        trace: Optional[Trace] = None,
    ) -> List["Future[np.ndarray]"]:
        """Register and send an already-encoded burst (:meth:`encode_burst`).

        ``trace`` attaches a sampled :class:`~repro.serving.telemetry.Trace`
        to the burst's first request: the control frame carries its request
        id plus the send timestamp, and the worker's lifecycle spans merge
        into the trace when its ``("spans", ...)`` reply arrives — before
        the result resolves, since both ride the same pipe in order.

        Raises :class:`~repro.errors.RoutingError` when the pool is not
        running — the caller still owns the encoded leases then and must
        :meth:`release_encoded` them.  Once registered, transport failures
        resolve through the futures (``WorkerCrashed``), never by raising.
        """
        if not encoded:
            return []
        futures: List["Future[np.ndarray]"] = []
        entries: List[Tuple[int, tuple]] = []
        slabs: List[Optional[int]] = []
        dispatch_start = time.monotonic() if trace is not None else 0.0
        with self._lock:
            handle = self._handle(worker_id)
            for payload, slab_id, reason in encoded:
                if payload[0] == "shm":
                    self._shm_requests += 1
                else:
                    self._pipe_requests += 1
                    if reason == "exhausted":
                        self._fallbacks_exhausted += 1
                    elif reason == "oversize":
                        self._fallbacks_oversize += 1
                req_id = next(self._req_ids)
                future: "Future[np.ndarray]" = Future()
                handle.inflight[req_id] = (future, slab_id)
                futures.append(future)
                entries.append((req_id, payload))
                slabs.append(slab_id)
            traced = None
            if trace is not None:
                send_s = time.monotonic()
                trace.add("dispatch", dispatch_start, send_s)
                traced = (entries[0][0], send_s)  # the burst's traced request
                handle.traces[traced[0]] = trace
        try:
            # the control frame carries the resolved replica id so a frame
            # that lands on the wrong worker is rejected, never mis-served
            self._send(
                handle,
                ("predict_many", name, deadline, int(priority), worker_id, entries, traced),
            )
        except OSError:
            # Fail exactly the futures this call still owns: the reader's
            # _on_exit races us here and may have popped (and failed) some
            # of them already — failing those twice would blow up on a
            # FINISHED future.
            orphaned: List[Future] = []
            with self._lock:
                if traced is not None:
                    handle.traces.pop(traced[0], None)
                for (req_id, _), slab_id, future in zip(entries, slabs, futures):
                    if handle.inflight.pop(req_id, None) is not None:
                        self._release_slab(slab_id)
                        orphaned.append(future)
            for future in orphaned:
                if future.set_running_or_notify_cancel():
                    future.set_exception(
                        WorkerCrashed(f"worker {worker_id} pipe closed during submit")
                    )
        return futures

    def load(self, worker_id: int, name: str, image_bytes: bytes) -> None:
        """Tell one worker to decode and serve a model image (fire-and-forget;
        a failed decode surfaces as per-request routing errors).

        The image is also recorded so a crashed worker's replacement replays
        it; recording and handle lookup share the pool lock, so the load is
        delivered whichever side of a concurrent restart this call lands on.
        """
        with self._lock:
            handle = self._handle(worker_id)
            self._worker_loads.setdefault(worker_id, {})[name] = image_bytes
        try:
            self._send(handle, ("load", name, image_bytes))
        except OSError:
            pass  # the worker died: the crash path replays from the record

    def unload(self, worker_id: int, name: str) -> None:
        """Tell one worker to drop a model and its decoded plan."""
        with self._lock:
            handle = self._handles.get(worker_id)
            self._worker_loads.get(worker_id, {}).pop(name, None)
        if handle is None:
            return
        try:
            self._send(handle, ("unload", name))
        except OSError:
            pass

    def ping(self, worker_id: int, timeout: float = _JOIN_TIMEOUT_S):
        """Round-trip health probe; returns ``(resident_bytes, model_names)``
        as the worker itself reports them, or ``None`` on timeout/death."""
        event = threading.Event()
        entry = [event, None]
        with self._lock:
            handle = self._handles.get(worker_id)
            if handle is None or not self._started:
                return None
            token = next(self._req_ids)
            handle.pings[token] = entry
        try:
            self._send(handle, ("ping", token))
        except OSError:
            return None
        if not event.wait(timeout):
            with self._lock:
                handle.pings.pop(token, None)
            return None
        return entry[1]

    def health(self, timeout: float = _JOIN_TIMEOUT_S) -> Dict[int, dict]:
        """Probe every worker; returns per-worker ``{alive, restarts,
        in_flight, resident_bytes, models}`` (resident/models are ``None``
        for a worker that failed the probe)."""
        report: Dict[int, dict] = {}
        for worker_id in self.worker_ids():
            with self._lock:
                handle = self._handles.get(worker_id)
                alive = handle is not None and handle.proc.is_alive()
                restarts = handle.restarts if handle is not None else 0
                in_flight = len(handle.inflight) if handle is not None else 0
            pong = self.ping(worker_id, timeout) if alive else None
            report[worker_id] = {
                "alive": alive and pong is not None,
                "restarts": restarts,
                "in_flight": in_flight,
                "resident_bytes": pong[0] if pong else None,
                "models": pong[1] if pong else None,
            }
        return report

    # -- kernel profiling -------------------------------------------------- #

    def set_kernel_profiling(self, enabled: bool) -> None:
        """Broadcast opt-in per-kind kernel timing to every worker.

        Enabling installs a fresh
        :class:`~repro.serving.telemetry.KernelProfile` in each worker
        (re-enabling resets the counters); disabling removes the hook so
        the gather passes are back to a single global load.  Not replayed
        across a crash restart — a fresh worker starts unprofiled.
        """
        with self._lock:
            handles = list(self._handles.values())
        for handle in handles:
            try:
                self._send(handle, ("kprofile", bool(enabled)))
            except OSError:
                pass  # dying worker; its replacement starts unprofiled anyway

    def kernel_profile_snapshot(
        self, timeout: float = _JOIN_TIMEOUT_S
    ) -> Dict[str, Dict[str, float]]:
        """Collect and merge every worker's per-kind kernel breakdown.

        Round-trips a ``kprofile_snap`` probe to each worker (same
        mechanics as :meth:`ping`); workers that time out, died, or have
        profiling disabled contribute nothing.  The merged tree is
        ``{kind: {layers, layer_s, gather_calls, gather_s}}``.
        """
        merged = KernelProfile()
        for worker_id in self.worker_ids():
            event = threading.Event()
            entry = [event, None]
            with self._lock:
                handle = self._handles.get(worker_id)
                if handle is None or not self._started:
                    continue
                token = next(self._req_ids)
                handle.pings[token] = entry
            try:
                self._send(handle, ("kprofile_snap", token))
            except OSError:
                continue
            if not event.wait(timeout):
                with self._lock:
                    handle.pings.pop(token, None)
                continue
            if entry[1]:
                merged.merge(entry[1])
        return merged.snapshot()

    # -- chaos hooks (used by tests and benchmarks) ------------------------ #

    def inject_crash(self, worker_id: int, code: int = 13) -> None:
        """Chaos hook: make one worker die abruptly (``os._exit``), exactly
        like a segfault or OOM kill would look from the parent."""
        with self._lock:
            handle = self._handle(worker_id)
        self._send(handle, ("exit", code))

    def inject_sleep(self, worker_id: int, seconds: float) -> None:
        """Chaos hook: stall one worker's command loop for ``seconds``."""
        with self._lock:
            handle = self._handle(worker_id)
        self._send(handle, ("sleep", float(seconds)))

    def inject_crash_on_load(self, worker_id: int, name: str, times: int = 1) -> None:
        """Chaos hook: arm ``times`` restart-replay loads of ``name`` on one
        worker slot to kill the (re)spawned process mid-decode.

        The live worker is untouched — the poison is spent by
        :meth:`_replay_loads` when a *replacement* re-decodes the model, so
        pairing this with :meth:`inject_crash` manufactures a deterministic
        crash loop: each respawn dies decoding the poisoned image until the
        arming count runs out, which is exactly the shape a corrupt model
        build produces in production.  ``times <= 0`` disarms.
        """
        with self._lock:
            if worker_id not in range(self.num_workers):
                raise RoutingError(f"worker {worker_id} does not exist")
            slot = self._poison.setdefault(worker_id, {})
            if times <= 0:
                slot.pop(name, None)
            else:
                slot[name] = int(times)

    def inject_lag(self, worker_id: int, name: str, seconds: float) -> None:
        """Chaos hook: stall every burst touching model ``name`` on one worker.

        Unlike :meth:`inject_sleep` (one stall), the lag persists until
        cleared with ``seconds=0`` — the worker-side latency fault canary
        rollback scenarios are built on.  Results are never perturbed, only
        delayed, and the injection is *not* replayed across a crash restart
        (a fresh worker starts healthy).
        """
        with self._lock:
            handle = self._handle(worker_id)
        self._send(handle, ("lag", name, float(seconds)))

    # -- reader / crash handling ------------------------------------------ #

    def _read_loop(self, handle: _WorkerHandle) -> None:
        """Per-worker reader thread: resolve futures until the pipe closes."""
        while True:
            try:
                msg = handle.conn.recv()
            except (EOFError, OSError):
                break
            self._on_message(handle, msg)
        self._on_exit(handle)

    def _pop_inflight(self, handle: _WorkerHandle, req_id: int) -> Tuple[Optional[Future], Optional[int]]:
        """Claim the (future, slab) for one request id (None if unknown)."""
        with self._lock:
            # an errored/expired traced request never gets worker spans, so
            # its pending trace is dropped here with the in-flight entry (a
            # served request's trace was already claimed by its "spans"
            # reply, which the worker sends first)
            handle.traces.pop(req_id, None)
            return handle.inflight.pop(req_id, (None, None))

    def _on_message(self, handle: _WorkerHandle, msg: tuple) -> None:
        """Dispatch one worker reply on the reader thread.

        Any terminal reply releases the request's slab lease; ``sresult``
        reads the response payload out of the slab first.
        """
        op = msg[0]
        if op == "sresult":
            _, req_id, shape, dtype = msg
            future, slab_id = self._pop_inflight(handle, req_id)
            result = None
            if future is not None and slab_id is not None:
                # copy out before the release recycles the slab
                result = self._slab_pool.read(slab_id, shape, dtype)
            with self._lock:
                self._release_slab(slab_id)
                handle.served += 1
            if future is not None and future.set_running_or_notify_cancel():
                future.set_result(result)
        elif op == "result":
            future, slab_id = self._pop_inflight(handle, msg[1])
            with self._lock:
                self._release_slab(slab_id)  # shm request, oversized result
                handle.served += 1
            if future is not None and future.set_running_or_notify_cancel():
                future.set_result(msg[2])
        elif op == "deadline":
            future, slab_id = self._pop_inflight(handle, msg[1])
            with self._lock:
                self._release_slab(slab_id)
                handle.deadline_misses += 1
            if future is not None and future.set_running_or_notify_cancel():
                future.set_exception(
                    DeadlineExceeded("request expired before its micro-batch was scheduled")
                )
        elif op == "error":
            future, slab_id = self._pop_inflight(handle, msg[1])
            kind, text = msg[2], msg[3]
            with self._lock:
                self._release_slab(slab_id)
            if future is not None and future.set_running_or_notify_cancel():
                exc: Exception = (
                    RoutingError(text) if kind == "routing"
                    else RuntimeError(f"worker {handle.worker_id}: {text}")
                )
                future.set_exception(exc)
        elif op == "spans":
            # worker-side lifecycle spans for a sampled request; the worker
            # sends them before the result, so the merge happens-before the
            # future resolves (same pipe, same reader thread)
            with self._lock:
                trace = handle.traces.pop(msg[1], None)
            if trace is not None:
                for span_name, start_s, end_s in msg[2]:
                    trace.add(span_name, start_s, end_s)
        elif op == "pong":
            with self._lock:
                entry = handle.pings.pop(msg[1], None)
            if entry is not None:
                entry[1] = (msg[2], tuple(msg[3]))
                entry[0].set()
        elif op == "kprofile":
            with self._lock:
                entry = handle.pings.pop(msg[1], None)
            if entry is not None:
                entry[1] = msg[2]
                entry[0].set()
        # "loaded" / "unloaded" / "load_error" acknowledgements need no action:
        # the router keeps the authoritative placement + size accounting.

    def _on_exit(self, handle: _WorkerHandle) -> None:
        """Reader saw EOF: fail in-flight work, reclaim the dead worker's
        slab leases, and restart the process unless the pool is stopping.

        With a ``restart_backoff`` policy, a worker that keeps dying soon
        after spawn respawns after a capped exponential delay instead of
        immediately; its dead handle stays published meanwhile so submits
        fail fast with :class:`~repro.errors.WorkerCrashed`.
        """
        with self._lock:
            current = self._handles.get(handle.worker_id)
            if current is not handle:
                return  # a newer generation already replaced this slot
            dead = self._reclaim_slabs(handle)
            stopping = handle.stopping or not self._started
        handle.proc.join(_JOIN_TIMEOUT_S)
        for future in dead:
            if future.set_running_or_notify_cancel():
                future.set_exception(
                    WorkerCrashed(
                        f"worker {handle.worker_id} died with {len(dead)} request(s) in flight"
                    )
                )
        if stopping:
            return
        with self._lock:
            if not self._started or handle.stopping:
                return  # stop() won the race after the unlocked join
            self._crashes += 1
            self._retire_counters([handle])
            wid = handle.worker_id
            delay = 0.0
            policy = self.restart_backoff
            if policy is not None:
                lifetime = time.monotonic() - self._spawn_times.get(wid, 0.0)
                if lifetime < policy.stable_after_s:
                    streak = self._crash_streaks.get(wid, 0) + 1
                else:
                    streak = 1  # the previous spawn was stable; start over
                self._crash_streaks[wid] = streak
                delay = policy.delay_s(streak)
            if delay <= 0.0:
                replacement = self._spawn(wid, restarts=handle.restarts + 1)
                self._replay_loads(replacement, wid)
                self._handles[wid] = replacement
                return
            # crash loop: hold the slot in backoff.  The dead handle stays
            # published so submits fail fast (broken pipe -> WorkerCrashed)
            # and the retry layer steers around it via its breaker.
            self._delayed_restarts += 1
            self._backoff_until[wid] = time.monotonic() + delay
            timer = threading.Timer(delay, self._respawn_after_backoff, args=(handle,))
            timer.daemon = True
            self._restart_timers[wid] = timer
            timer.start()

    def _respawn_after_backoff(self, handle: _WorkerHandle) -> None:
        """Backoff timer fired: respawn the slot unless the pool stopped."""
        with self._lock:
            wid = handle.worker_id
            self._restart_timers.pop(wid, None)
            self._backoff_until.pop(wid, None)
            if not self._started or handle.stopping:
                return
            if self._handles.get(wid) is not handle:
                return  # slot already moved on (stop/start cycle)
            replacement = self._spawn(wid, restarts=handle.restarts + 1)
            self._replay_loads(replacement, wid)
            self._handles[wid] = replacement

    def _replay_loads(self, replacement: _WorkerHandle, worker_id: int) -> None:
        """Replay a crashed worker's model loads into its replacement's pipe.

        Runs *before* the handle is published: a caller resubmitting right
        after its WorkerCrashed cannot race ahead of the re-decode.  Image
        blobs are ~KBs, so these sends cannot fill the pipe buffer.  Armed
        load poisons (:meth:`inject_crash_on_load`) are spent here, one
        per replay, so a poisoned model keeps killing replacements until
        the arming count runs out — the deterministic crash loop the
        restart-backoff tests are built on.
        """
        poisons = self._poison.get(worker_id, {})
        for name, blob in self._worker_loads.get(worker_id, {}).items():
            try:
                if poisons.get(name, 0) > 0:
                    poisons[name] -= 1
                    replacement.conn.send(("poison", name))
                replacement.conn.send(("load", name, blob))
            except OSError:
                break  # the replacement died instantly; its reader recurses

    # -- introspection ----------------------------------------------------- #

    @property
    def crashes(self) -> int:
        """Worker deaths detected (and recovered from) so far."""
        with self._lock:
            return self._crashes

    def transport_snapshot(self) -> Dict[str, int]:
        """Data-plane counters: per-plane request counts, fallback reasons,
        and the slab ring's accounting (empty geometry when shm is off).

        ``leased == 0`` and ``acquired == released`` after :meth:`stop` is
        the no-leak invariant — every slab a request (or a crashed worker)
        ever held made it back to the ring before the segment was unlinked.
        """
        with self._lock:
            snap: Dict[str, int] = {
                "shm_enabled": self._transport_config is not None,
                "shm_requests": self._shm_requests,
                "pipe_requests": self._pipe_requests,
                "fallbacks_exhausted": self._fallbacks_exhausted,
                "fallbacks_oversize": self._fallbacks_oversize,
            }
            if self._slab_pool is not None:
                snap.update(self._slab_pool.snapshot())
            return snap

    def totals(self) -> Tuple[int, int]:
        """Lifetime ``(served, deadline_misses)`` across workers and restarts."""
        with self._lock:
            served = self._retired_served + sum(h.served for h in self._handles.values())
            misses = self._retired_misses + sum(
                h.deadline_misses for h in self._handles.values()
            )
            return served, misses

    def worker_snapshot(self) -> List[dict]:
        """Per-slot counters for :meth:`ClusterRouter.stats` (atomic copy)."""
        with self._lock:
            return [
                {
                    "worker_id": wid,
                    "alive": handle.proc.is_alive(),
                    "restarts": handle.restarts,
                    "in_flight": len(handle.inflight),
                    "served": handle.served,
                    "deadline_misses": handle.deadline_misses,
                    "backing_off": wid in self._restart_timers,
                    "crash_streak": self._crash_streaks.get(wid, 0),
                }
                for wid, handle in sorted(self._handles.items())
            ]

    def restart_snapshot(self) -> Dict[str, object]:
        """Restart-backoff state for the telemetry plane.

        ``workers`` maps each slot with a crash streak or a pending delayed
        respawn to ``{streak, backing_off, resume_in_s}``; ``delayed_restarts``
        is the lifetime count of respawns the backoff policy held back.
        """
        with self._lock:
            now = time.monotonic()
            rows: Dict[str, Dict[str, float]] = {}
            for wid in range(self.num_workers):
                streak = self._crash_streaks.get(wid, 0)
                backing_off = wid in self._restart_timers
                if streak == 0 and not backing_off:
                    continue
                rows[str(wid)] = {
                    "streak": streak,
                    "backing_off": int(backing_off),
                    "resume_in_s": max(0.0, self._backoff_until.get(wid, now) - now),
                }
            return {
                "enabled": int(self.restart_backoff is not None),
                "delayed_restarts": self._delayed_restarts,
                "workers": rows,
            }


# --------------------------------------------------------------------------- #
# router
# --------------------------------------------------------------------------- #


class ClusterRouter:
    """Registry-driven front of a :class:`WorkerPool`.

    Parameters
    ----------
    workers:
        Number of worker processes (or a prebuilt :class:`WorkerPool`).
    capacity_bytes:
        Cluster-wide decoded-plan budget, summed over every replica of
        every placement (a key placed on N workers costs N × its decoded
        size; ``None`` = unbounded).  LRU replica sets are unloaded to
        admit new ones; a model whose full replica set alone exceeds the
        budget is rejected at :meth:`register`.
    policy:
        :class:`~repro.serving.priority.PriorityPolicy` for admission
        (default: 256 pending, LOW sheds at 50 %, NORMAL at 80 %); limits
        scale with the replica count serving the request's model.
    placement:
        :class:`~repro.serving.placement.PlacementPolicy` deciding where
        ``(model, version)`` plans live and which replica serves each
        request — an instance, or one of ``"sticky"`` (default; one replica
        per key), ``"replicated"`` (N replicas, power-of-two-choices
        dispatch), ``"least-loaded"`` (N replicas, full load scan).
    config:
        Micro-batch policy for every worker's engine.
    start_method:
        ``multiprocessing`` start method for a pool built here
        (default ``"spawn"``).
    transport:
        Data plane for a pool built here: ``True`` (default) enables the
        shared-memory slab plane, a :class:`~repro.serving.shm.SlabConfig`
        customises its geometry, ``False``/``None`` keeps everything on the
        pickle-over-pipe path.
    latency_window:
        How many recent completions the per-class and per-version latency
        percentiles are computed over (default
        :data:`DEFAULT_LATENCY_WINDOW`).  Larger windows smooth the
        percentiles over more history; smaller ones track load shifts
        faster at the cost of noisier tails.
    trace_sample_rate:
        Fraction of request bursts to trace end-to-end (``0.0`` default =
        tracing off, zero hot-path cost; ``1.0`` = every burst).  A
        sampled burst's first request carries a trace id through the
        control frame and comes back with its full lifecycle spans
        (admission → encode → dispatch → transport → queue → kernel →
        decode → completion); finished traces are kept on
        :attr:`tracer` and exported via :meth:`dump_trace`.
    telemetry:
        :class:`~repro.serving.telemetry.MetricsRegistry` to report
        through (default: a private registry per router).  The router
        mounts ``cluster`` / ``shm`` / ``placement`` sources on it — and
        mirrors the same sources onto the process-default registry, so
        module-level :func:`repro.serving.telemetry.snapshot` sees the
        latest router without holding it alive.
    retry:
        :class:`~repro.serving.resilience.RetryPolicy` (default ``None`` =
        off): retryable failures (:data:`~repro.serving.resilience.RETRYABLE`)
        are transparently re-dispatched to a *different* replica with
        seeded exponential backoff, under the policy's global
        :class:`~repro.serving.resilience.RetryBudget`.  Safe because
        inference is pure and replicas are bitwise identical.
    breakers:
        Per-worker circuit breakers
        (:class:`~repro.serving.resilience.BreakerPolicy` instance, or
        ``True`` for defaults; default ``None`` = off): a worker with N
        consecutive failures is quarantined out of replica choice until a
        half-open probe succeeds.
    hedge:
        :class:`~repro.serving.resilience.HedgePolicy` (default ``None`` =
        off): a HIGH-priority single request still unresolved after a
        p99-derived delay is duplicated to another replica; first result
        wins, the loser is cancelled and never double-counted in stats.
    restart_backoff:
        :class:`~repro.serving.resilience.RestartBackoffPolicy` forwarded
        to a pool built here — crash-looping workers respawn under capped
        exponential delay instead of hot-looping re-decodes.
    kernel:
        Execution backend every worker decodes and serves models on — a
        :mod:`repro.serving.kernels_fast` registry name, a *registered*
        :class:`~repro.serving.kernels_fast.KernelBackend` instance, or
        ``None`` for the process default.  Resolved eagerly to a backend
        *name* and forwarded to the pool built here, so the whole cluster
        is homogeneous: every replica (including crash-restart
        replacements) runs bitwise-identical kernels.  Instances that are
        not the registered backend for their name (e.g. a configured
        ``FusedBackend(layout="feature")``) are rejected with
        :class:`~repro.errors.ConfigError` — workers re-resolve the name
        in their own process and would silently drop the configuration.
    """

    def __init__(
        self,
        workers: Union[int, WorkerPool] = 2,
        *,
        capacity_bytes: Optional[int] = None,
        policy: Optional[PriorityPolicy] = None,
        placement: Union[str, PlacementPolicy, None] = None,
        config: Optional[MicroBatchConfig] = None,
        start_method: str = "spawn",
        transport: Union[SlabConfig, bool, None] = True,
        latency_window: int = DEFAULT_LATENCY_WINDOW,
        trace_sample_rate: float = 0.0,
        telemetry: Optional[MetricsRegistry] = None,
        retry: Optional[RetryPolicy] = None,
        breakers: Union[BreakerPolicy, bool, None] = None,
        hedge: Optional[HedgePolicy] = None,
        restart_backoff: Optional[RestartBackoffPolicy] = None,
        kernel: Union[str, KernelBackend, None] = None,
    ) -> None:
        if isinstance(workers, WorkerPool):
            if config is not None:
                raise ConfigError("pass config only when the router builds its own pool")
            if restart_backoff is not None:
                raise ConfigError(
                    "pass restart_backoff only when the router builds its own pool "
                    "(a prebuilt WorkerPool takes it directly)"
                )
            if kernel is not None:
                raise ConfigError(
                    "pass kernel only when the router builds its own pool "
                    "(a prebuilt WorkerPool takes it directly)"
                )
            self.pool = workers
        else:
            self.pool = WorkerPool(
                workers,
                config=config,
                start_method=start_method,
                transport=transport,
                restart_backoff=restart_backoff,
                kernel=kernel,
            )
        #: resolved backend name every worker in the cluster executes on
        self.kernel = self.pool.kernel
        if capacity_bytes is not None and capacity_bytes < 1:
            raise ConfigError("capacity_bytes must be >= 1 (or None for unbounded)")
        if latency_window < 1:
            raise ConfigError("latency_window must be >= 1")
        self.capacity_bytes = capacity_bytes
        self.policy = policy or PriorityPolicy()
        self.placement_policy = PlacementPolicy.create(placement)
        self.latency_window = latency_window
        self._lock = threading.RLock()
        #: versioned bookkeeping lives in the shared catalog; entries are
        #: ``(image_bytes, decoded_size)`` pairs (see repro.serving.catalog
        #: for the CatalogError -> ConfigError/RoutingError mapping policy)
        self._catalog = VersionedCatalog()
        self._model_policies: Dict[str, PlacementPolicy] = {}  # per-model overrides
        self._placements = PlacementTable()  # key -> ReplicaSet, LRU first
        self._protected: set = set()  # keys an in-progress deploy pins against eviction
        self._pending = 0
        #: replica-normalized occupancy: a request to an R-replica model
        #: charges 1/R of an admission slot (see PriorityPolicy docs)
        self._pending_weight = 0.0
        self._pending_by_class: Dict[Priority, int] = {p: 0 for p in Priority}
        self._key_pending: Dict[str, int] = {}  # key -> admitted-but-unresolved
        self._shed: Dict[Priority, int] = {p: 0 for p in Priority}
        self._latency_by_class: Dict[Priority, Deque[float]] = {
            p: deque(maxlen=latency_window) for p in Priority
        }
        self._completions: Dict[Priority, int] = {p: 0 for p in Priority}
        self._latency_by_key: Dict[str, Deque[float]] = {}
        self._completions_by_key: Dict[str, int] = {}
        self._errors_by_key: Dict[str, int] = {}  # failed completions per key
        self._shed_by_key: Dict[str, int] = {}  # admission sheds per key
        self._splits: Dict[str, _CanarySplit] = {}  # name -> traffic split
        self._scale_events: Deque[ScaleEvent] = deque(maxlen=SCALE_EVENT_WINDOW)
        self._lags: Dict[str, float] = {}  # key -> injected worker-side lag (chaos)
        self._evictions = 0
        #: last merged per-kind kernel breakdown (kernel_profile() refreshes)
        self._kernel_profile: Dict[str, Dict[str, float]] = {}
        # -- resilience state (all opt-in; None/zeroed when off) ----------- #
        self.retry_policy = retry
        self._retry_budget = retry.make_budget() if retry is not None else None
        self._retry_tokens = itertools.count()
        if breakers is True:
            breakers = BreakerPolicy()
        self.breakers = BreakerBoard(breakers) if isinstance(breakers, BreakerPolicy) else None
        self.hedge_policy = hedge
        self._brownout = False
        self._brownout_sheds = 0
        self._errors_by_type: Dict[str, int] = {}
        self._retries_attempted = 0
        self._retries_succeeded = 0
        self._retries_exhausted = 0
        self._retries_budget_denied = 0
        self._hedges = 0
        self._hedges_won = 0
        self.telemetry = telemetry if telemetry is not None else MetricsRegistry()
        self.tracer = Tracer(trace_sample_rate, registry=self.telemetry)
        for registry in (self.telemetry, get_registry()):
            registry.register_source("cluster", self._telemetry_tree)
            registry.register_source("shm", self.pool.transport_snapshot)
            registry.register_source("placement", self._placement_tree)

    # -- catalog ----------------------------------------------------------- #

    def register(
        self,
        name: str,
        image: Union[ModelImage, bytes],
        *,
        version: Optional[str] = None,
        activate: bool = True,
        placement: Union[str, PlacementPolicy, None] = None,
    ) -> None:
        """Add or replace a model image under ``(name, version)``.

        ``version=None`` replaces the model's current version (or registers
        :data:`~repro.serving.placement.DEFAULT_VERSION` for a new name) —
        the pre-versioning ``register(name, image)`` behaviour.  With
        ``activate=True`` (default) the registered version becomes the one
        ``version=None`` requests resolve to; ``activate=False`` registers
        it inactive — which requires an explicit ``version=`` (staging can
        never target the current version) and is how a rolling deploy
        stages a new version before its atomic flip.  A brand-new name's
        first version becomes current regardless of ``activate`` — a
        registered model always has a current version.  ``placement``
        overrides the router's placement policy for this model (all its
        versions); changing the policy drops the model's existing replica
        sets so the next use re-places under the new one.

        The image is serialized once here; workers decode their own plans
        from these bytes.  The decoded size (the byte-budget accounting unit)
        is measured by decoding once in the parent and discarding the plans —
        decode is deterministic, so the worker-side footprint is identical.
        """
        with catalog_errors(ConfigError, RoutingError):
            # validate the full spec before decoding: every malformed
            # request fails before any side effect (or expensive work) runs
            self._catalog.check_spec(name, version=version, activate=activate)
        blob = image.to_bytes() if isinstance(image, ModelImage) else bytes(image)
        size = PackedModel(ModelImage.from_bytes(blob), cache=True).decoded_bytes()
        with self._lock:
            policy = (
                PlacementPolicy.create(placement)
                if placement is not None
                else self._policy_for(name)
            )
            replicas = max(1, min(policy.replicas, self.pool.num_workers))
            if self.capacity_bytes is not None:
                # the policy governs every version of the name, so every
                # registered version must still fit a full replica set —
                # this is what keeps _admit_bytes' "a lone placement always
                # fits" invariant true after a placement override
                largest = max(
                    [size, *(entry[1] for _, entry in self._catalog.items(name))]
                )
                if largest * replicas > self.capacity_bytes:
                    raise ConfigError(
                        f"model {name!r} needs {largest} decoded bytes x "
                        f"{replicas} replica(s) but the cluster budget is "
                        f"{self.capacity_bytes}"
                    )
            if placement is not None and not policy.equivalent(self._policy_for(name)):
                # committed only once the budget admits; existing replica
                # sets were planned under the old policy, so drop them —
                # the next use re-places under the new one (unloads under
                # the router lock, like everywhere else).  An equivalent
                # policy (same class, same replica count) is a no-op here:
                # re-registering with the same spec must not cold-restart
                # the model's placements.
                self._model_policies[name] = policy
                for existing_version in self._catalog.versions(name):
                    stale = self._placements.pop(make_key(name, existing_version))
                    if stale is not None:
                        for worker_id in stale.workers:
                            self.pool.unload(worker_id, stale.key)
            with catalog_errors(ConfigError, RoutingError):
                version = self._catalog.register(
                    name, (blob, size), version=version, activate=activate
                )
            # replacing: drop the stale plans; next use reloads.  The
            # unloads go out under the router lock so they cannot land
            # behind a concurrent submit's re-placement load
            replica_set = self._placements.pop(make_key(name, version))
            if replica_set is not None:
                for worker_id in replica_set.workers:
                    self.pool.unload(worker_id, replica_set.key)

    def remove(self, name: str, *, version: Optional[str] = None) -> None:
        """Forget a model (or one version of it), unloading its placements.

        ``version=None`` removes every version of ``name``; naming a version
        removes just that one — removing the *current* version is rejected
        while other versions exist (flip first via :meth:`set_current` or a
        deploy).  Unknown names/versions raise.
        """
        with self._lock:
            with catalog_errors(ConfigError, RoutingError):
                doomed = self._catalog.remove(name, version=version)
            for doomed_version in doomed:
                key = make_key(name, doomed_version)
                self._latency_by_key.pop(key, None)
                self._completions_by_key.pop(key, None)
                self._errors_by_key.pop(key, None)
                self._shed_by_key.pop(key, None)
                self._lags.pop(key, None)
                self._protected.discard(key)  # a removed key must not stay pinned
                replica_set = self._placements.pop(key)
                if replica_set is not None:
                    # unload under the router lock: cannot land behind a
                    # concurrent submit's re-placement load
                    for worker_id in replica_set.workers:
                        self.pool.unload(worker_id, key)
            if not self._catalog.has(name):
                self._model_policies.pop(name, None)
                self._splits.pop(name, None)
            else:
                split = self._splits.get(name)
                if split is not None and split.version in doomed:
                    # the canary version itself was removed: no burst may
                    # route to it again, keep the record as settled
                    split.state = "cleared"

    def names(self) -> List[str]:
        """All registered model names, sorted."""
        with self._lock:
            return self._catalog.names()

    def versions(self, name: str) -> List[str]:
        """Registered versions of ``name``, sorted (empty for unknown names)."""
        with self._lock:
            return self._catalog.versions(name)

    def current_version(self, name: str) -> str:
        """The version ``version=None`` requests resolve to for ``name``."""
        with self._lock, catalog_errors(ConfigError, RoutingError):
            return self._catalog.current_version(name)

    def set_current(self, name: str, version: str) -> None:
        """Atomically flip ``name``'s routing to ``version``.

        One dictionary write under the router lock: every request admitted
        after this call resolves ``version=None`` to the new version, every
        request admitted before it keeps the version it resolved — nothing
        in flight is disturbed, nothing is shed.
        """
        with self._lock, catalog_errors(ConfigError, RoutingError):
            self._catalog.set_current(name, version)

    def __contains__(self, name: str) -> bool:
        """True when ``name`` is a registered model."""
        with self._lock:
            return name in self._catalog

    def __len__(self) -> int:
        """Number of registered models (names, not versions)."""
        with self._lock:
            return self._catalog.name_count()

    # -- routing ----------------------------------------------------------- #

    def _resolve(self, model: Optional[str]) -> str:
        """Default-model resolution: a lone registered model needs no name."""
        with catalog_errors(ConfigError, RoutingError):
            return self._catalog.resolve_name(model)

    def _resolve_version(self, name: str, version: Optional[str]) -> str:
        """Version resolution for ``name``: ``None`` means current (under lock)."""
        with catalog_errors(ConfigError, RoutingError):
            return self._catalog.resolve_version(name, version)

    def _policy_for(self, name: str) -> PlacementPolicy:
        """The placement policy governing ``name`` (under lock)."""
        return self._model_policies.get(name, self.placement_policy)

    def _effective_replicas(self, name: str, key: Optional[str] = None) -> int:
        """Replica count serving ``name`` right now (under lock).

        When ``key``'s replica set is placed its *live* size wins — the
        autoscaler may have grown or shrunk it past the policy's static
        target — otherwise the policy target capped by the pool size (the
        count a fresh placement would get).
        """
        if key is not None:
            replica_set = self._placements.get(key)
            if replica_set is not None:
                return len(replica_set.workers)
        return max(1, min(self._policy_for(name).replicas, self.pool.num_workers))

    def _size_of(self, key: str) -> int:
        """Decoded byte size of one placed key (under lock)."""
        name, version = split_key(key)
        return self._catalog.get(name, version)[1]

    def _admit_bytes(self, needed: int, protect: set) -> None:
        """Evict LRU replica sets until ``needed`` more bytes fit the budget.

        Keys in ``protect`` (the placement being admitted plus both sides of
        any in-progress deploy) are never evicted.  Raises
        :class:`~repro.errors.RoutingError` when the protected placements
        alone exhaust the budget — :meth:`register` guarantees a lone
        placement always fits, so this only triggers when a deploy
        transiently pins old + new plans and the budget cannot hold both
        alongside this placement.
        """
        if self.capacity_bytes is None:
            return
        while self._resident_bytes() + needed > self.capacity_bytes:
            evicted = self._placements.pop_lru(exclude=protect)
            if evicted is None:
                raise RoutingError(
                    f"cluster byte budget ({self.capacity_bytes}) cannot admit "
                    f"{needed} more decoded bytes: every resident placement is "
                    f"pinned (in-progress deploy?)"
                )
            self._evictions += 1
            for worker_id in evicted.workers:
                self.pool.unload(worker_id, evicted.key)

    def _plan_workers(self, name: str) -> List[int]:
        """Plan a fresh replica set for one of ``name``'s keys (under lock).

        Delegates to the model's policy: the workers with the fewest
        in-flight requests host the plans (ties broken by fewest resident
        replica sets, then id).  One code path for normal placements and
        deploy warm-ups, so both place new plans by the same rule.
        """
        resident_count: Dict[int, int] = {wid: 0 for wid in self.pool.worker_ids()}
        for _, placed in self._placements.items():
            for wid in placed.workers:
                resident_count[wid] = resident_count.get(wid, 0) + 1
        return self._policy_for(name).plan(
            self.pool.worker_ids(), self.pool.in_flight, resident_count
        )

    def _reapply_lag(self, worker_id: int, key: str) -> None:
        """Re-inject ``key``'s chaos lag on a worker that just loaded it
        (under lock); no-op without an active :meth:`inject_version_lag`."""
        lag = self._lags.get(key)
        if lag:
            self.pool.inject_lag(worker_id, key, lag)

    def _place(self, key: str) -> ReplicaSet:
        """Replica-set lookup, or a fresh placement by policy (under lock).

        A new key is planned by its model's
        :class:`~repro.serving.placement.PlacementPolicy`
        (:meth:`_plan_workers`) after unloading LRU replica sets as needed
        to respect the cluster byte budget.
        """
        replica_set = self._placements.get(key)
        if replica_set is not None:
            return replica_set
        name, version = split_key(key)
        workers = self._plan_workers(name)
        self._admit_bytes(
            self._size_of(key) * len(workers), protect=self._protected | {key}
        )
        replica_set = ReplicaSet(key, workers, self._policy_for(name))
        self._placements.insert(replica_set)
        blob = self._catalog.get(name, version)[0]
        for worker_id in workers:
            self.pool.load(worker_id, key, blob)
            self._reapply_lag(worker_id, key)
        return replica_set

    def _resident_bytes(self) -> int:
        """Decoded-plan bytes across every replica of every placement
        (under lock)."""
        return self._placements.resident_bytes(self._size_of)

    def _drop_weight(self, weight: float) -> None:
        """Return normalized admission weight (under lock), drift-proofed.

        Fractional weights (1/replicas) do not always cancel exactly in
        floating point, so the counter is clamped at zero and resynced to
        exactly 0.0 whenever the raw pending count empties.
        """
        self._pending_weight = max(0.0, self._pending_weight - weight)
        if self._pending == 0:
            self._pending_weight = 0.0

    def _complete(
        self,
        priority: Priority,
        key: str,
        replica_set: ReplicaSet,
        worker_id: int,
        weight: float,
        started: float,
        trace: Optional[Trace],
        record: bool,
        future: "Future[np.ndarray]",
    ) -> None:
        """Done-callback: free one admission slot and record the latency.

        Latency (submit→resolve, transport and queueing included) is only
        recorded for successfully served requests — sheds never get here and
        failures would skew the percentiles with error-path timing.  The
        per-version rollup and the serving replica's completion counter are
        updated alongside the per-class one.

        ``trace`` is non-None only on the traced request of a sampled
        burst: its worker spans merged when the ``("spans", ...)`` reply
        arrived (same reader thread, strictly before the future resolved),
        so closing with the ``completion`` span here and handing the trace
        to the tracer observes a fully assembled timeline.

        ``record=False`` marks a hedge leg: its admission slots and replica
        dispatch are still released/credited (they were really held), but
        latency, completion and error counters are skipped so a hedged
        request is never double-counted.  The per-worker circuit breaker
        observes *every* resolved attempt either way — a hedge leg hitting
        a dying worker is evidence the breaker must not miss.
        """
        with self._lock:
            self._pending -= 1
            self._drop_weight(weight)
            self._pending_by_class[priority] -= 1
            pending = self._key_pending.get(key, 0) - 1
            if pending > 0:
                self._key_pending[key] = pending
            else:
                self._key_pending.pop(key, None)
            if future.cancelled():
                return
            exc = future.exception()
            if self.breakers is not None:
                if exc is None:
                    self.breakers.record(worker_id, True)
                elif isinstance(exc, (WorkerCrashed, TransportError)):
                    self.breakers.record(worker_id, False)
            if exc is not None:
                if record:
                    # per-version error feed for the canary controller:
                    # crashes, deadline misses and routing failures all count
                    # against the version the burst resolved to; the by-type
                    # rollup counts every failed *attempt* for the
                    # resilience plane
                    self._errors_by_key[key] = self._errors_by_key.get(key, 0) + 1
                    kind = type(exc).__name__
                    self._errors_by_type[kind] = self._errors_by_type.get(kind, 0) + 1
                return
            if not record:  # hedge leg: slots freed above, stats untouched
                replica_set.record_completion(worker_id)
                return
            now = time.monotonic()
            if trace is not None:
                # completion: from the last worker-side span back to this
                # resolve — the return pipe hop plus reader dispatch
                last_end = max((s.end_s for s in trace.spans), default=started)
                trace.add("completion", last_end, now)
                self.tracer.finish(trace)
            elapsed = now - started
            self._completions[priority] += 1
            self._latency_by_class[priority].append(elapsed)
            self._completions_by_key[key] = self._completions_by_key.get(key, 0) + 1
            self._latency_by_key.setdefault(
                key, deque(maxlen=self.latency_window)
            ).append(elapsed)
            # credit exactly the replica-set generation that dispatched
            # this request (captured in the callback): after an evict +
            # re-place the key may map to a NEW set that never saw this
            # request, and crediting it would desync its counters
            replica_set.record_completion(worker_id)

    # -- deploy primitives (driven by placement.DeployManager) -------------- #

    def warm(self, name: str, version: str) -> List[int]:
        """Stage ``version``'s plans alongside the current version's.

        Places the new key on the *same* workers as the current version's
        replica set (a fresh placement plan when the model was never
        placed), sending the image to each — routing still points at the
        old version, so traffic is untouched.  Both keys are pinned against
        LRU eviction until :meth:`release_version` unpins them, and the new
        plans are budget-accounted immediately: the cluster budget must
        hold old + new during the transition.  Returns the target worker
        ids; the caller polls :meth:`WorkerPool.ping` for warm-up
        completion.
        """
        with self._lock:
            if not self._catalog.has_version(name, version):
                raise RoutingError(f"unknown version {version!r} of model {name!r}")
            current = self._catalog.current_version(name)
            new_key = make_key(name, version)
            old_key = make_key(name, current)
            staged = self._placements.get(new_key)
            if staged is not None:  # already warm (idempotent)
                self._protected.update({old_key, new_key})
                return list(staged.workers)
            current_set = self._placements.get(old_key)
            if current_set is not None:
                workers = list(current_set.workers)
            else:
                workers = self._plan_workers(name)
            self._protected.update({old_key, new_key})
            try:
                self._admit_bytes(
                    self._size_of(new_key) * len(workers), protect=self._protected
                )
            except BaseException:
                self._protected.discard(new_key)
                if old_key != new_key:
                    self._protected.discard(old_key)
                raise
            self._placements.insert(ReplicaSet(new_key, workers, self._policy_for(name)))
            # load under the router lock, like _place(): a concurrent
            # version-pinned submit that sees the fresh replica set cannot
            # slip its burst frame into the pipe ahead of these loads
            blob = self._catalog.get(name, version)[0]
            for worker_id in workers:
                self.pool.load(worker_id, new_key, blob)
                self._reapply_lag(worker_id, new_key)
            return list(workers)

    def release_version(self, name: str, version: str) -> None:
        """Unload one version's replica set (and drop its eviction pin).

        Called by the deploy manager after the old version drained (or to
        abort a failed warm-up).  The version's decoded bytes leave the
        cluster budget and its latency *window* is dropped (the served
        counter survives in ``latency_by_version``), so rolling deploys do
        not accumulate per-version window memory; the version's *image*
        stays registered for rollbacks.
        """
        with self._lock:
            key = make_key(name, version)
            self._protected.discard(key)
            self._latency_by_key.pop(key, None)
            replica_set = self._placements.pop(key)
            if replica_set is not None:
                # unload under the router lock: cannot land behind a
                # concurrent submit's re-placement load
                for worker_id in replica_set.workers:
                    self.pool.unload(worker_id, key)

    def unpin(self, name: str) -> None:
        """Drop the deploy eviction pins for every key of ``name``.

        The deploy manager calls this when a deploy leaves its critical
        section — success, warm-up abort, or drain timeout — so no key
        stays pinned against LRU eviction once no deploy is in flight.
        Matches pinned keys by name prefix rather than the registered
        version list, so pins cannot survive a concurrent ``remove``.
        """
        with self._lock:
            self._protected = {
                key for key in self._protected if split_key(key)[0] != name
            }

    def version_pending(self, name: str, version: str) -> int:
        """Admitted-but-unresolved requests pinned to one ``(name, version)``."""
        with self._lock:
            return self._key_pending.get(make_key(name, version), 0)

    # -- control plane (driven by serving.control) -------------------------- #

    def resize(
        self,
        name: Optional[str],
        replicas: int,
        *,
        version: Optional[str] = None,
        reason: str = "manual resize",
    ) -> Optional[ScaleEvent]:
        """Grow or shrink one placed key's live replica set.

        The target is clamped to ``[1, pool size]``; a no-op target returns
        ``None``.  Growing ranks non-member workers by (in-flight load,
        resident replica sets, id), budget-admits the extra copies
        (evicting unpinned LRU placements if needed), then loads the plans
        and joins each replica under the router lock — so the new replica
        is warm (its ``load`` is ahead of any burst in its pipe) before it
        can be picked.  Shrinking removes the least-loaded replicas and
        unloads them; in-flight bursts on a removed replica finish first
        because the ``unload`` queues behind them in the worker's pipe.
        Raises :class:`~repro.errors.RoutingError` for a cluster that is
        not running, an unplaced key, or a key pinned by an in-progress
        deploy (resizing mid-deploy would fight the warm/drain sequence).
        Returns the recorded :class:`ScaleEvent` when the set changed.
        """
        if not self.pool.running:
            raise RoutingError("cluster not started; call start() or use a with block")
        with self._lock:
            name = self._resolve(name)
            resolved = self._resolve_version(name, version)
            key = make_key(name, resolved)
            replica_set = self._placements.get(key)
            if replica_set is None:
                raise RoutingError(
                    f"model {key!r} has no live placement to resize "
                    f"(serve at least one request first)"
                )
            if key in self._protected:
                raise RoutingError(
                    f"model {key!r} is pinned by an in-progress deploy; "
                    f"resize after it settles"
                )
            target = max(1, min(int(replicas), self.pool.num_workers))
            before = len(replica_set.workers)
            if target == before:
                return None
            if target > before:
                members = set(replica_set.workers)
                resident_count: Dict[int, int] = {}
                for _, placed in self._placements.items():
                    for wid in placed.workers:
                        resident_count[wid] = resident_count.get(wid, 0) + 1
                candidates = sorted(
                    (wid for wid in self.pool.worker_ids() if wid not in members),
                    key=lambda wid: (
                        self.pool.in_flight(wid),
                        resident_count.get(wid, 0),
                        wid,
                    ),
                )
                added = candidates[: target - before]
                self._admit_bytes(
                    self._size_of(key) * len(added), protect=self._protected | {key}
                )
                blob = self._catalog.get(name, resolved)[0]
                for wid in added:
                    # load + join under the router lock: the replica cannot
                    # be picked before its plans are ahead of any burst in
                    # its pipe (same ordering argument as _place)
                    self.pool.load(wid, key, blob)
                    self._reapply_lag(wid, key)
                    replica_set.add_replica(wid)
            else:
                victims = sorted(
                    replica_set.workers,
                    key=lambda wid: (self.pool.in_flight(wid), -wid),
                )[: before - target]
                for wid in victims:
                    replica_set.remove_replica(wid)
                    self.pool.unload(wid, key)
            event = ScaleEvent(
                key=key,
                action="grow" if target > before else "shrink",
                from_replicas=before,
                to_replicas=len(replica_set.workers),
                reason=reason,
                at_s=time.monotonic(),
            )
            self._scale_events.append(event)
            return event

    def set_split(self, name: Optional[str], version: str, fraction: float) -> None:
        """Open a canary traffic split on ``name``.

        While the split is running, ``fraction`` of ``version=None`` bursts
        (deterministic counter interleave, no RNG) route to ``version``
        instead of the current version; explicit ``version=`` pins are
        never rerouted.  The canary version must already be registered
        (staged with ``activate=False``) and must not be current.  Replaces
        any previous split record for the name.
        """
        with self._lock:
            if not 0.0 < fraction < 1.0:
                raise ConfigError(
                    f"canary fraction must be in (0, 1), got {fraction!r}"
                )
            name = self._resolve(name)
            resolved = self._resolve_version(name, version)
            if resolved == self._catalog.current_version(name):
                raise RoutingError(
                    f"version {resolved!r} is already current for model "
                    f"{name!r}; a canary split needs a staged, non-current "
                    f"version"
                )
            self._splits[name] = _CanarySplit(resolved, float(fraction))

    def clear_split(self, name: str, outcome: str = "cleared") -> None:
        """Stop routing canary traffic for ``name`` (idempotent).

        The split record stays visible in ``canary_state`` frozen at
        ``outcome`` (``"promoted"`` / ``"rolled_back"`` / ``"cleared"``) so
        stats readers see how the canary settled; the next
        :meth:`set_split` replaces it.
        """
        with self._lock:
            split = self._splits.get(name)
            if split is not None:
                split.state = outcome

    def canary_split(self, name: str) -> Optional[CanarySplitStats]:
        """The live-or-settled split record for ``name`` (None = never split)."""
        with self._lock:
            split = self._splits.get(name)
            return None if split is None else split.snapshot()

    def inject_version_lag(
        self, name: Optional[str], version: Optional[str], seconds: float
    ) -> None:
        """Chaos hook: stall every burst of one ``(name, version)``.

        Applies :meth:`WorkerPool.inject_lag` to each live replica and
        remembers the lag so replicas placed, warmed, or grown later get it
        too (``seconds=0`` clears it).  Deliberately **not** replayed across
        a crash restart, mirroring the worker-side chaos hooks.
        """
        with self._lock:
            name = self._resolve(name)
            resolved = self._resolve_version(name, version)
            key = make_key(name, resolved)
            if seconds > 0:
                self._lags[key] = float(seconds)
            else:
                self._lags.pop(key, None)
            replica_set = self._placements.get(key)
            if replica_set is not None:
                for wid in replica_set.workers:
                    self.pool.inject_lag(wid, key, float(seconds))

    # -- request side ------------------------------------------------------ #

    def submit(
        self,
        x: np.ndarray,
        *,
        model: Optional[str] = None,
        version: Optional[str] = None,
        priority: Priority = Priority.NORMAL,
        deadline_s: Optional[float] = None,
    ) -> "Future[np.ndarray]":
        """Admit, route and send one request; returns its result future.

        Admission applies the priority watermarks
        (:class:`~repro.serving.priority.PriorityPolicy`, scaled by the
        model's replica count): a request whose class is over its occupancy
        limit is shed immediately with
        :class:`~repro.errors.AdmissionError`.  ``version=None`` resolves
        to the model's current version at admission (naming one pins it);
        ``deadline_s`` is the latency budget measured from this call,
        enforced at worker dispatch.
        """
        return self.submit_many(
            [x], model=model, version=version, priority=priority, deadline_s=deadline_s
        )[0]

    def submit_many(
        self,
        xs: Sequence[np.ndarray],
        *,
        model: Optional[str] = None,
        version: Optional[str] = None,
        priority: Priority = Priority.NORMAL,
        deadline_s: Optional[float] = None,
    ) -> List["Future[np.ndarray]"]:
        """Admit, route and send a burst of requests in one control frame.

        Admission is **all-or-nothing**: the burst is admitted only when
        every request fits under the class watermark (scaled by the
        resolved model's replica count), otherwise the whole burst is shed
        with :class:`~repro.errors.AdmissionError` (and counted per request
        in ``shed_by_priority``) — no request of a partially admissible
        burst is enqueued.  The whole burst resolves one ``(model,
        version)`` and dispatches to one replica chosen by the placement
        policy, shares one deadline budget measured from this call, and
        crosses the worker pipe as a single message
        (:meth:`WorkerPool.submit_many`), so large batch shapes cost one
        syscall, not one per request.

        With a router-level :class:`~repro.serving.resilience.RetryPolicy`
        the returned futures are *retry-wrapped*: a retryable failure
        (:data:`~repro.serving.resilience.RETRYABLE`) is transparently
        re-submitted — per request, version-pinned to this burst's resolved
        version, steered away from every replica that already failed it,
        after seeded exponential backoff, within the deadline and the
        global retry budget — and the caller's future only fails once the
        policy gives up.  With a :class:`~repro.serving.resilience.HedgePolicy`
        a ``HIGH``-priority *single* request is additionally hedge-wrapped
        (duplicate dispatch after a p99-derived delay, first result wins).
        """
        if not self.pool.running:
            raise RoutingError("cluster not started; call start() or use a with block")
        xs = list(xs)
        if not xs:
            return []
        priority = Priority(priority)
        deadline = None if deadline_s is None else time.monotonic() + deadline_s
        futures, key, worker_id = self._submit_once(
            xs, model=model, version=version, priority=priority, deadline=deadline
        )
        # version is pinned for re-dispatch: a retry/hedge leg must be
        # bitwise identical to the first attempt even across a concurrent
        # activate/canary flip, so it targets the resolved key, not `model`
        name_, version_ = split_key(key)
        if self.retry_policy is not None:
            self._retry_budget.note(len(xs))
            futures = [
                self._wrap_retry(
                    future, x, name=name_, version=version_, priority=priority,
                    deadline=deadline, worker_id=worker_id,
                )
                for future, x in zip(futures, xs)
            ]
        if (
            self.hedge_policy is not None
            and priority == Priority.HIGH
            and len(futures) == 1
        ):
            futures = [
                self._wrap_hedge(
                    futures[0], xs[0], name=name_, version=version_,
                    deadline=deadline, primary_worker=worker_id,
                )
            ]
        return futures

    def _submit_once(
        self,
        xs: List[np.ndarray],
        *,
        model: Optional[str],
        version: Optional[str],
        priority: Priority,
        deadline: Optional[float],
        avoid: frozenset = frozenset(),
        record: bool = True,
    ) -> Tuple[List["Future[np.ndarray]"], str, int]:
        """One admission + placement + dispatch attempt (no retry/hedge).

        The single dispatch primitive every caller-visible path reduces to:
        first attempts, retry re-dispatches (``avoid`` steers placement off
        the replicas that already failed the request) and hedge legs
        (``record=False`` keeps them out of latency/error stats) all pay
        full admission here — a retry storm is subject to exactly the same
        watermarks as first-time traffic.  Returns ``(futures, resolved
        key, dispatched worker id)``; ``deadline`` is absolute monotonic.
        """
        # sampled tracing: with trace_sample_rate=0 this returns None before
        # touching any state, so the control-frame hot path stays allocation-free
        trace = self.tracer.maybe_trace() if record else None
        admit_start = time.monotonic() if trace is not None else 0.0
        with self._lock:
            name = self._resolve(model)
            resolved_version = self._resolve_version(name, version)
            split = self._splits.get(name)
            if version is None and split is not None and split.state == "running":
                # canary traffic split: only version=None requests are
                # eligible (an explicit version= is a caller's pin and is
                # never rerouted); the deterministic counter interleaves
                # exactly `fraction` of bursts onto the canary version
                if split.take():
                    resolved_version = split.version
            key = make_key(name, resolved_version)
            replicas = self._effective_replicas(name, key)
            # replica-normalized admission: each request charges 1/replicas
            # of a slot against the *shared* per-worker-calibrated budget, so
            # a replicated model admits proportionally more work while other
            # models' watermarks (and HIGH's reserved headroom) still hold
            weight = len(xs) / replicas
            if not self.policy.admits(
                priority, self._pending_weight, weight, brownout=self._brownout
            ):
                self._shed[priority] += len(xs)
                self._shed_by_key[key] = self._shed_by_key.get(key, 0) + len(xs)
                self._errors_by_type["AdmissionError"] = (
                    self._errors_by_type.get("AdmissionError", 0) + len(xs)
                )
                if self._brownout and priority == Priority.LOW:
                    self._brownout_sheds += len(xs)
                    raise AdmissionError(
                        f"brownout active: LOW burst of {len(xs)} shed "
                        f"(graceful degradation, see resilience.BrownoutController)"
                    )
                raise AdmissionError(
                    f"{priority.name} admission limit "
                    f"({self.policy.admit_limit(priority)} of "
                    f"{self.policy.max_pending}) cannot fit a burst of "
                    f"{len(xs)} (weight {weight:g} at {replicas} replica(s)) "
                    f"at normalized occupancy {self._pending_weight:g}; "
                    f"burst shed"
                )
            self._pending += len(xs)  # claim the slots before dropping the lock
            self._pending_weight += weight
            self._pending_by_class[priority] += len(xs)
            self._key_pending[key] = self._key_pending.get(key, 0) + len(xs)
        encoded = None
        started = time.monotonic()
        if trace is not None:
            trace.add("admission", admit_start, started)
        try:
            # encode outside the router lock: the burst's slab memcpys (or
            # its pipe-fallback pickling) never stall completion callbacks,
            # stats readers, or concurrent submitters
            encoded = self.pool.encode_burst(xs)
            if trace is not None:
                trace.add("encode", started, time.monotonic())
            with self._lock:
                name_, version_ = split_key(key)
                if not self._catalog.has_version(name_, version_):  # removed meanwhile
                    raise RoutingError(f"model {key!r} was removed during submit")
                replica_set = self._place(key)
                self._placements.touch(key)
                worker_id = self._pick_replica(replica_set, avoid)
                replica_set.record_dispatch(worker_id, len(xs))
                # the send happens under the router lock: a concurrent
                # placement evicting this model cannot slip its `unload`
                # into the worker's pipe between our placement decision and
                # our burst frame
                futures = self.pool.submit_encoded(
                    worker_id, key, encoded, deadline=deadline, priority=priority,
                    trace=trace,
                )
        except BaseException:
            # nothing was registered: hand back the leases and the slots
            # (a failed encode_burst released its own partial leases)
            if encoded is not None:
                self.pool.release_encoded(encoded)
            with self._lock:
                self._pending -= len(xs)
                self._drop_weight(weight)
                self._pending_by_class[priority] -= len(xs)
                pending = self._key_pending.get(key, 0) - len(xs)
                if pending > 0:
                    self._key_pending[key] = pending
                else:
                    self._key_pending.pop(key, None)
            raise
        release = functools.partial(
            self._complete, priority, key, replica_set, worker_id, 1.0 / replicas,
            started, None, record,
        )
        if trace is not None:
            # the burst's first request carries the trace; only its
            # completion closes and retains it (one trace per burst)
            futures[0].add_done_callback(
                functools.partial(
                    self._complete, priority, key, replica_set, worker_id,
                    1.0 / replicas, started, trace, record,
                )
            )
            for future in futures[1:]:
                future.add_done_callback(release)
        else:
            for future in futures:
                future.add_done_callback(release)
        return futures, key, worker_id

    def _pick_replica(self, replica_set: ReplicaSet, avoid: frozenset) -> int:
        """Choose the serving replica, steering around quarantined workers.

        Merges the caller's ``avoid`` set (replicas that already failed
        this request) with every replica whose circuit breaker is open;
        :meth:`~repro.serving.placement.ReplicaSet.pick` falls back to the
        plain placement policy when that excludes the whole set, so a
        fully-broken replica set still receives (probe) traffic rather
        than deadlocking.  The chosen worker's breaker is told about the
        dispatch — that consumes its half-open probe slot, so exactly one
        trial request goes through per reset timeout.
        """
        full_avoid = set(avoid)
        if self.breakers is not None:
            for wid in replica_set.workers:
                if wid not in full_avoid and not self.breakers.admits(wid):
                    full_avoid.add(wid)
        worker_id = replica_set.pick(self.pool.in_flight, frozenset(full_avoid))
        if self.breakers is not None:
            self.breakers.note_dispatch(worker_id)
        return worker_id

    # -- resilience: retries ------------------------------------------------ #

    def _wrap_retry(
        self,
        future: "Future[np.ndarray]",
        x: np.ndarray,
        *,
        name: str,
        version: str,
        priority: Priority,
        deadline: Optional[float],
        worker_id: int,
    ) -> "Future[np.ndarray]":
        """Wrap one dispatched future in the transparent-retry state machine.

        The caller holds the wrapper; each underlying attempt reports into
        :meth:`_retry_done`, which either settles the wrapper or schedules
        the next attempt.  ``state["avoid"]`` accumulates every replica
        that failed this request, so each re-dispatch is steered to a
        fresh one; ``state["token"]`` seeds this request's deterministic
        backoff schedule (:meth:`RetryPolicy.backoff_s`).
        """
        wrapper: "Future[np.ndarray]" = Future()
        state = {
            "attempt": 0,
            "avoid": {worker_id},
            "token": next(self._retry_tokens),
        }
        future.add_done_callback(
            functools.partial(
                self._retry_done, wrapper, state, x, name, version, priority, deadline
            )
        )
        return wrapper

    def _retry_done(
        self,
        wrapper: "Future[np.ndarray]",
        state: dict,
        x: np.ndarray,
        name: str,
        version: str,
        priority: Priority,
        deadline: Optional[float],
        future: "Future[np.ndarray]",
    ) -> None:
        """One attempt resolved: settle the wrapper or schedule a retry.

        Gives up (failing the wrapper with the attempt's error) when the
        error is not retryable, attempts are exhausted, the pool stopped,
        the backoff would overrun the deadline, or the global retry budget
        denies the spend — each terminal path leaves the *original*
        exception on the wrapper, so callers see the same error types with
        or without a retry policy.
        """
        if future.cancelled():
            wrapper.cancel()
            return
        exc = future.exception()
        if exc is None:
            if state["attempt"] > 0:
                with self._lock:
                    self._retries_succeeded += 1
            if wrapper.set_running_or_notify_cancel():
                wrapper.set_result(future.result())
            return
        policy = self.retry_policy
        attempt = state["attempt"] + 1  # 1-based index of the retry to schedule
        delay = 0.0
        give_up = not policy.retryable(exc) or not self.pool.running
        if not give_up and attempt >= policy.max_attempts:
            give_up = True
            with self._lock:
                self._retries_exhausted += 1
        if not give_up:
            delay = policy.backoff_s(state["token"], attempt)
            if deadline is not None and time.monotonic() + delay >= deadline:
                give_up = True  # the retry could never beat the deadline
        if not give_up and not self._retry_budget.try_spend(1):
            give_up = True
            with self._lock:
                self._retries_budget_denied += 1
        if give_up:
            if wrapper.set_running_or_notify_cancel():
                wrapper.set_exception(exc)
            return
        state["attempt"] = attempt
        with self._lock:
            self._retries_attempted += 1
        timer = threading.Timer(
            delay,
            self._retry_fire,
            args=(wrapper, state, x, name, version, priority, deadline, exc),
        )
        timer.daemon = True
        timer.start()

    def _retry_fire(
        self,
        wrapper: "Future[np.ndarray]",
        state: dict,
        x: np.ndarray,
        name: str,
        version: str,
        priority: Priority,
        deadline: Optional[float],
        prior_exc: BaseException,
    ) -> None:
        """Backoff elapsed: re-dispatch the request to a fresh replica.

        The re-submit pays full admission again (a retry storm is shed
        exactly like first-time traffic); if admission, routing or the
        pool reject it, the wrapper fails with that error chained onto the
        attempt's original failure.
        """
        if wrapper.cancelled():
            return
        try:
            futures, _, worker_id = self._submit_once(
                [x], model=name, version=version, priority=priority,
                deadline=deadline, avoid=frozenset(state["avoid"]),
            )
        except BaseException as exc:  # admission/routing/pool rejection
            exc.__cause__ = prior_exc
            if wrapper.set_running_or_notify_cancel():
                wrapper.set_exception(exc)
            return
        state["avoid"].add(worker_id)
        futures[0].add_done_callback(
            functools.partial(
                self._retry_done, wrapper, state, x, name, version, priority, deadline
            )
        )

    # -- resilience: hedging ------------------------------------------------ #

    def _high_p99_s(self) -> float:
        """Observed p99 completion latency of the HIGH class, in seconds
        (``nan`` before the first completion — the hedge policy falls back
        to its fixed ``delay_s``)."""
        with self._lock:
            window = tuple(self._latency_by_class[Priority.HIGH])
        if not window:
            return float("nan")
        return float(np.percentile(np.asarray(window, dtype=np.float64), 99))

    def _wrap_hedge(
        self,
        primary: "Future[np.ndarray]",
        x: np.ndarray,
        *,
        name: str,
        version: str,
        deadline: Optional[float],
        primary_worker: int,
    ) -> "Future[np.ndarray]":
        """Wrap a HIGH single dispatch in a first-result-wins hedge.

        A timer armed at the policy's p99-derived delay launches a
        duplicate dispatch (``record=False``, steered off the primary's
        replica) if the primary has not resolved by then; whichever leg
        succeeds first settles the outer future and cancels the loser.
        Hedging is strictly best-effort: a hedge leg that cannot even be
        dispatched (admission, routing) is dropped silently and the
        request rides on its remaining leg(s).
        """
        outer: "Future[np.ndarray]" = Future()
        state = {
            "lock": threading.Lock(),
            "done": False,
            "pending": 1,  # legs that could still deliver a result
            "primary": primary,
            "primary_worker": primary_worker,
            "hedge": None,
            "timer": None,
            "last_exc": None,
        }
        delay = self.hedge_policy.effective_delay_s(self._high_p99_s())
        timer = threading.Timer(
            delay, self._hedge_fire, args=(outer, state, x, name, version, deadline)
        )
        timer.daemon = True
        state["timer"] = timer
        primary.add_done_callback(
            functools.partial(self._hedge_settle, outer, state, False)
        )
        timer.start()
        return outer

    def _hedge_fire(
        self,
        outer: "Future[np.ndarray]",
        state: dict,
        x: np.ndarray,
        name: str,
        version: str,
        deadline: Optional[float],
    ) -> None:
        """Hedge delay elapsed with the primary unresolved: launch the leg."""
        with state["lock"]:
            if state["done"] or outer.cancelled() or state["primary"].done():
                return
            # claim the slot before dispatching: a primary failure arriving
            # mid-dispatch must wait for this leg instead of failing outer
            state["pending"] += 1
        try:
            futures, _, _ = self._submit_once(
                [x], model=name, version=version, priority=Priority.HIGH,
                deadline=deadline, avoid=frozenset({state["primary_worker"]}),
                record=False,
            )
        except BaseException:
            settle = False
            with state["lock"]:
                state["pending"] -= 1
                if state["pending"] == 0 and not state["done"]:
                    state["done"] = True  # primary already failed; nothing left
                    settle = True
            if settle and outer.set_running_or_notify_cancel():
                outer.set_exception(state["last_exc"])
            return
        hedge = futures[0]
        with self._lock:
            self._hedges += 1
        cancel_now = False
        with state["lock"]:
            if state["done"]:
                cancel_now = True  # the primary won while we dispatched
            else:
                state["hedge"] = hedge
        if cancel_now:
            hedge.cancel()
            return
        hedge.add_done_callback(
            functools.partial(self._hedge_settle, outer, state, True)
        )

    def _hedge_settle(
        self,
        outer: "Future[np.ndarray]",
        state: dict,
        is_hedge: bool,
        future: "Future[np.ndarray]",
    ) -> None:
        """One hedge leg resolved: first success wins, last failure loses."""
        if future.cancelled():
            return  # the loser leg, cancelled by the winner below
        exc = future.exception()
        loser = None
        with state["lock"]:
            if state["done"]:
                return
            if exc is not None:
                state["last_exc"] = exc
                state["pending"] -= 1
                if state["pending"] > 0:
                    return  # the other leg may still win
                # no dispatched leg left, and no hedge can still launch:
                # _hedge_fire claims its pending slot under this same lock
                # before dispatching, and bails once `done` is set below
            state["done"] = True
            timer = state["timer"]
            loser = state["hedge"] if not is_hedge else state["primary"]
        if timer is not None:
            timer.cancel()
        if exc is not None:
            if outer.set_running_or_notify_cancel():
                outer.set_exception(exc)
            return
        if loser is not None and loser is not future:
            loser.cancel()  # best-effort; a resolved loser is simply dropped
        if is_hedge:
            with self._lock:
                self._hedges_won += 1
        if outer.set_running_or_notify_cancel():
            outer.set_result(future.result())

    # -- resilience: brownout ----------------------------------------------- #

    def set_brownout(self, active: bool) -> None:
        """Engage or lift brownout mode: while active, every LOW request is
        shed at admission (counted in ``resilience.brownout_sheds``) and
        NORMAL/HIGH admission is unchanged.  Driven by a
        :class:`~repro.serving.resilience.BrownoutController`, but callable
        directly for manual degradation."""
        with self._lock:
            self._brownout = bool(active)

    @property
    def brownout_active(self) -> bool:
        """True while LOW traffic is being shed for graceful degradation."""
        with self._lock:
            return self._brownout

    def _resilience_stats(self) -> ResilienceStats:
        """Roll the retry/hedge/breaker/brownout state into one snapshot."""
        with self._lock:
            stats = ResilienceStats(
                retries_attempted=self._retries_attempted,
                retries_succeeded=self._retries_succeeded,
                retries_exhausted=self._retries_exhausted,
                retries_budget_denied=self._retries_budget_denied,
                hedges=self._hedges,
                hedges_won=self._hedges_won,
                brownout_active=self._brownout,
                brownout_sheds=self._brownout_sheds,
                retry_budget=(
                    self._retry_budget.snapshot() if self._retry_budget is not None else {}
                ),
                breakers=self.breakers.snapshot() if self.breakers is not None else {},
                restart_backoffs=self.pool.restart_snapshot(),
            )
        return stats

    def predict(
        self,
        x: np.ndarray,
        *,
        model: Optional[str] = None,
        version: Optional[str] = None,
        priority: Priority = Priority.NORMAL,
        deadline_s: Optional[float] = None,
    ) -> np.ndarray:
        """Blocking convenience: :meth:`submit` + wait for the result row."""
        return self.submit(
            x, model=model, version=version, priority=priority, deadline_s=deadline_s
        ).result()

    # -- lifecycle --------------------------------------------------------- #

    def start(self) -> "ClusterRouter":
        """Start the worker pool (idempotent); returns self."""
        self.pool.start()
        return self

    def stop(self) -> None:
        """Stop the pool; placements reset (a restart re-places lazily)."""
        self.pool.stop()
        with self._lock:
            self._placements.clear()
            self._protected.clear()

    def __enter__(self) -> "ClusterRouter":
        """Start the cluster for the duration of a ``with`` block."""
        return self.start()

    def __exit__(self, *exc_info) -> None:
        """Stop the cluster, draining in-flight work first."""
        self.stop()

    # -- telemetry / profiling --------------------------------------------- #

    def _telemetry_tree(self) -> Dict[str, object]:
        """The ``cluster`` namespace: :meth:`snapshot` as a plain tree."""
        return self.snapshot().as_tree()

    def _placement_tree(self) -> Dict[str, object]:
        """The ``placement`` namespace: live replica sets per model key."""
        with self._lock:
            return {
                key: {
                    "workers": list(replica_set.workers),
                    "replicas": len(replica_set.workers),
                }
                for key, replica_set in self._placements.items()
            }

    def profile_kernels(self, enabled: bool = True) -> None:
        """Toggle opt-in per-kind kernel timing on every worker.

        While enabled, each worker attributes its kernel passes to the
        active layer kind (``conv`` / ``dw`` / ``pw`` / ``linear``);
        :meth:`kernel_profile` collects the merged breakdown.
        Disabled (the default) the kernels pay a single global load.
        """
        self.pool.set_kernel_profiling(enabled)
        if not enabled:
            return
        with self._lock:
            self._kernel_profile = {}

    def kernel_profile(self) -> Dict[str, Dict[str, float]]:
        """Fetch + merge the per-kind kernel breakdown across workers.

        The merged tree (``{kind: {layers, layer_s, gather_calls,
        gather_s}}``) is also cached so :meth:`snapshot` surfaces the last
        collected breakdown without a worker round-trip.
        """
        merged = self.pool.kernel_profile_snapshot()
        with self._lock:
            self._kernel_profile = merged
        return merged

    def traces(self) -> Tuple[Trace, ...]:
        """Finished sampled traces, oldest first (see ``trace_sample_rate``)."""
        return self.tracer.traces()

    def dump_trace(self, path: Optional[str] = None) -> Dict[str, object]:
        """Chrome-trace-event export of the finished traces (see ``tracer``)."""
        return self.tracer.dump_trace(path)

    # -- introspection ----------------------------------------------------- #

    @property
    def pending(self) -> int:
        """Admitted-but-unresolved requests, cluster-wide."""
        with self._lock:
            return self._pending

    def placements(self) -> Dict[str, Tuple[int, ...]]:
        """Current model key → replica worker ids (a copy).

        Keys are ``"name@version"``; the tuple lists every worker hosting
        that key's decoded plans (one entry under sticky placement).
        """
        with self._lock:
            return {
                key: tuple(replica_set.workers)
                for key, replica_set in self._placements.items()
            }

    def _latency_stats(self) -> Dict[Priority, LatencyStats]:
        """Per-class percentile rollup over the latency windows (under lock)."""
        return {
            priority: LatencyStats.from_completions(
                self._completions[priority], self._latency_by_class[priority]
            )
            for priority in Priority
        }

    def _version_stats(self) -> Dict[str, LatencyStats]:
        """Per-version served/latency rollup over the key windows (under lock)."""
        return {
            key: LatencyStats.from_completions(
                count, self._latency_by_key.get(key, ())
            )
            for key, count in self._completions_by_key.items()
        }

    def snapshot(self) -> ClusterStats:
        """Cluster-wide counters as one consistent immutable snapshot."""
        with self._lock:
            per_worker_models: Dict[int, List[str]] = {}
            per_worker_bytes: Dict[int, int] = {}
            for key, replica_set in self._placements.items():
                for wid in replica_set.workers:
                    per_worker_models.setdefault(wid, []).append(key)
                    per_worker_bytes[wid] = per_worker_bytes.get(wid, 0) + self._size_of(key)
            replicas = {
                key: replica_set.snapshot()
                for key, replica_set in self._placements.items()
            }
            current_versions = {
                model: self._catalog.current_version(model)
                for model in self._catalog.names()
            }
            shed = dict(self._shed)
            evictions = self._evictions
            pending = self._pending
            queue_depth = dict(self._pending_by_class)
            latency = self._latency_stats()
            latency_by_version = self._version_stats()
            resident = self._resident_bytes()
            errors_by_version = dict(self._errors_by_key)
            shed_by_version = dict(self._shed_by_key)
            scale_events = tuple(self._scale_events)
            canary_state = {
                model: split.snapshot() for model, split in self._splits.items()
            }
            kernel_profile = {
                kind: dict(row) for kind, row in self._kernel_profile.items()
            }
            errors_by_type = dict(self._errors_by_type)
        workers = tuple(
            WorkerStats(
                worker_id=row["worker_id"],
                alive=row["alive"],
                restarts=row["restarts"],
                in_flight=row["in_flight"],
                served=row["served"],
                deadline_misses=row["deadline_misses"],
                resident_bytes=per_worker_bytes.get(row["worker_id"], 0),
                models=tuple(sorted(per_worker_models.get(row["worker_id"], []))),
                backing_off=row["backing_off"],
                crash_streak=row["crash_streak"],
            )
            for row in self.pool.worker_snapshot()
        )
        served, misses = self.pool.totals()
        return ClusterStats(
            workers=workers,
            served=served,
            deadline_misses=misses,
            shed_by_priority=shed,
            resident_bytes=resident,
            evictions=evictions,
            crashes=self.pool.crashes,
            pending=pending,
            queue_depth_by_priority=queue_depth,
            latency_by_priority=latency,
            transport=self.pool.transport_snapshot(),
            replicas=replicas,
            latency_by_version=latency_by_version,
            current_versions=current_versions,
            errors_by_version=errors_by_version,
            shed_by_version=shed_by_version,
            scale_events=scale_events,
            canary_state=canary_state,
            kernel_profile=kernel_profile,
            errors_by_type=errors_by_type,
            resilience=self._resilience_stats(),
        )

    def stats(self) -> ClusterStats:
        """Deprecated alias for :meth:`snapshot` (the unified stats name)."""
        warnings.warn(
            "ClusterRouter.stats() is deprecated; use snapshot() — the "
            "unified stats accessor across the serving layer",
            DeprecationWarning,
            stacklevel=2,
        )
        return self.snapshot()
