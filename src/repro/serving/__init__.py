"""Batched packed-ternary serving for ST-HybridNet model images.

The deploy package proves a model image is *complete*; this package makes
it *fast to serve*:

* :mod:`repro.serving.kernels`  — TNN-style bit-plane execution: ternary
  matmuls as two gather-accumulate passes over +1/−1 index planes, decoded
  once from the 2-bit blobs;
* :mod:`repro.serving.kernels_fast` — the pluggable kernel-backend
  registry: the fused single-pass gather backend (one concatenated index
  plane, one gather, one reduceat, signed combine — bitwise identical to
  the reference) and the default dense backend (BLAS GEMM against the
  decoded ``{-1, 0, +1}`` matrix, per-channel tap sums for depthwise —
  within a stated tolerance of the reference), selectable via
  ``PackedModel(kernel=...)`` / ``ClusterRouter(kernel=...)`` /
  ``$REPRO_KERNEL_BACKEND``;
* :mod:`repro.serving.packed`   — :class:`PackedModel`, the cached runtime
  (``cache=False`` reproduces the on-the-fly reference semantics bitwise);
* :mod:`repro.serving.batching` — :class:`BatchingEngine`, coalescing
  single requests into micro-batches under a size + latency budget, with
  per-request deadline enforcement at dispatch;
* :mod:`repro.serving.frontend` — :class:`AsyncServingFrontend`, the
  asyncio front door: ``await predict(x, deadline_s=...)`` with bounded
  admission (backpressure) bridged onto the engine's worker thread — or
  onto a whole cluster (``model=``/``priority=`` per request);
* :mod:`repro.serving.registry` — :class:`ModelRegistry`, many named images
  served concurrently with LRU eviction of decoded plans under a byte
  budget (``capacity_bytes``) and single-flight cold decodes;
* :mod:`repro.serving.priority` — :class:`Priority` classes and the
  watermark :class:`PriorityPolicy` (low-priority traffic sheds first;
  limits scale with the replica count serving the request's model);
* :mod:`repro.serving.placement` — the placement subsystem:
  :class:`PlacementPolicy` (sticky / replicated / least-loaded) mapping
  ``(model, version)`` to a :class:`ReplicaSet` (N workers, per-replica
  load tracking, power-of-two-choices dispatch) and :class:`DeployManager`
  for versioned rolling deploys (warm → flip → drain → unload, no
  shedding);
* :mod:`repro.serving.cluster`  — :class:`WorkerPool` (N spawn-safe worker
  processes, each with its own engine and decoded plans, restarted and
  re-decoded on crash) behind a :class:`ClusterRouter` (policy-driven
  versioned placement, cluster-wide decoded-byte budget, priority-class
  admission), with burst submission (``submit_many``) amortising control
  frames;
* :mod:`repro.serving.shm`      — :class:`SlabPool`/:class:`SlabClient`,
  the zero-copy shared-memory data plane the cluster runs on by default:
  payloads live in reusable fixed-size slabs of one
  ``multiprocessing.shared_memory`` segment while the pipes carry only
  control frames (the pickle path survives as an automatic fallback);
* :mod:`repro.serving.streams`  — :class:`StreamSessionManager`, the
  sessionful streaming layer: N concurrent KWS sessions (per-stream MFCC
  featurizer + posterior smoother) whose analysis windows are coalesced
  *across* sessions into ``submit_many`` cluster bursts, with
  :mod:`repro.serving.loadgen` replaying synthesised keyword streams as
  timed session arrivals;
* :mod:`repro.serving.catalog`  — :class:`VersionedCatalog`, the single
  implementation of the versioned name → version → entry bookkeeping (and
  the ``"name@version"`` key grammar) that both :class:`ClusterRouter`
  and :class:`ModelRegistry` delegate to, with one documented
  error-mapping policy;
* :mod:`repro.serving.control`  — the self-driving control plane:
  :class:`Autoscaler` (grow/shrink replica sets between load watermarks),
  :class:`CanaryController`/:class:`CanaryPolicy` (earned deploy flips —
  observe a traffic fraction, auto-promote or auto-roll-back on SLO
  breach) and the background :class:`ControlLoop` driving both — all
  reading their signals from the telemetry snapshot;
* :mod:`repro.serving.telemetry` — the unified telemetry plane:
  :class:`MetricsRegistry` (one ``snapshot()`` tree spanning engine,
  cluster, shm, placement, control and streams), sampled per-request
  :class:`Trace` spans threaded through the cluster control frames
  (``trace_sample_rate=``), Prometheus / JSON-lines / chrome-trace
  exporters with a tiny ``/metrics`` + ``/healthz`` HTTP endpoint, and
  opt-in :class:`KernelProfile` timing of the packed kernels' gather
  passes per layer kind;
* :mod:`repro.serving.resilience` — the fault-masking policy layer:
  :class:`RetryPolicy` (bounded seeded-backoff retries to a different
  replica, under a global :class:`RetryBudget`), per-worker
  :class:`CircuitBreaker` quarantine, :class:`RestartBackoffPolicy`
  (capped exponential respawn delay for crash-looping workers),
  :class:`HedgePolicy` (HIGH-priority tail-latency hedging) and
  :class:`BrownoutController` (auto-shed LOW traffic on sustained
  p99/error breach) — all opt-in :class:`ClusterRouter` kwargs;
* :mod:`repro.serving.chaos`    — seeded, replayable fault injection:
  a :class:`FaultPlan` of crash/lag/slab-squeeze/scripted faults driven
  tick-by-tick by a :class:`ChaosHarness` over the cluster's existing
  ``inject_*`` hooks, with an event log that makes two runs of the same
  plan byte-comparable.
"""

from repro.serving.batching import BatchingEngine, EngineStats, MicroBatchConfig
from repro.serving.catalog import VersionedCatalog
from repro.serving.chaos import (
    ChaosHarness,
    CrashFault,
    FaultPlan,
    LagFault,
    ScriptStep,
    SlabSqueeze,
    WorkerScript,
)
from repro.serving.cluster import (
    CanarySplitStats,
    ClusterRouter,
    ClusterStats,
    LatencyStats,
    ScaleEvent,
    WorkerPool,
    WorkerStats,
)
from repro.serving.control import (
    AutoscalePolicy,
    Autoscaler,
    CanaryController,
    CanaryPolicy,
    CanaryStatus,
    ControlLoop,
    ControlStats,
)
from repro.serving.frontend import AsyncServingFrontend
from repro.serving.kernels import TernaryPlanes, decode_planes, ternary_matmul
from repro.serving.kernels_fast import (
    DenseBackend,
    FusedBackend,
    KernelBackend,
    ReferenceBackend,
    available_backends,
    get_backend,
    register_backend,
    registered_backend_name,
    resolve_backend,
)
from repro.serving.packed import LayerPlan, PackedModel, decode_layer
from repro.serving.placement import (
    DeployManager,
    DeployReport,
    LeastLoadedPolicy,
    PlacementPolicy,
    ReplicaSet,
    ReplicaStats,
    ReplicatedPolicy,
    StickyPolicy,
)
from repro.serving.priority import Priority, PriorityPolicy
from repro.serving.registry import ModelRegistry, RegistryStats
from repro.serving.resilience import (
    BreakerBoard,
    BreakerPolicy,
    BrownoutController,
    BrownoutPolicy,
    BrownoutStatus,
    CircuitBreaker,
    HedgePolicy,
    ResilienceStats,
    RestartBackoffPolicy,
    RetryBudget,
    RetryPolicy,
)
from repro.serving.shm import SlabClient, SlabConfig, SlabPool
from repro.serving.streams import (
    ManagerStats,
    SessionStats,
    StreamSession,
    StreamSessionManager,
)
from repro.serving.telemetry import (
    KernelProfile,
    MetricsRegistry,
    TelemetryServer,
    Trace,
    Tracer,
    get_registry,
    profile_kernels,
)
from repro.serving import telemetry

__all__ = [
    "AsyncServingFrontend",
    "AutoscalePolicy",
    "Autoscaler",
    "BatchingEngine",
    "BreakerBoard",
    "BreakerPolicy",
    "BrownoutController",
    "BrownoutPolicy",
    "BrownoutStatus",
    "CanaryController",
    "CanaryPolicy",
    "CanarySplitStats",
    "CanaryStatus",
    "ChaosHarness",
    "CircuitBreaker",
    "ClusterRouter",
    "ClusterStats",
    "ControlLoop",
    "ControlStats",
    "CrashFault",
    "FaultPlan",
    "HedgePolicy",
    "LagFault",
    "ResilienceStats",
    "RestartBackoffPolicy",
    "RetryBudget",
    "RetryPolicy",
    "ScriptStep",
    "SlabSqueeze",
    "WorkerScript",
    "DeployManager",
    "DeployReport",
    "ScaleEvent",
    "VersionedCatalog",
    "EngineStats",
    "LatencyStats",
    "LeastLoadedPolicy",
    "MicroBatchConfig",
    "PlacementPolicy",
    "Priority",
    "PriorityPolicy",
    "ReplicaSet",
    "ReplicaStats",
    "ReplicatedPolicy",
    "SessionStats",
    "ManagerStats",
    "SlabClient",
    "SlabConfig",
    "SlabPool",
    "StickyPolicy",
    "StreamSession",
    "StreamSessionManager",
    "TernaryPlanes",
    "WorkerPool",
    "WorkerStats",
    "decode_planes",
    "ternary_matmul",
    "DenseBackend",
    "FusedBackend",
    "KernelBackend",
    "ReferenceBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "registered_backend_name",
    "resolve_backend",
    "LayerPlan",
    "PackedModel",
    "decode_layer",
    "ModelRegistry",
    "RegistryStats",
    "KernelProfile",
    "MetricsRegistry",
    "TelemetryServer",
    "Trace",
    "Tracer",
    "get_registry",
    "profile_kernels",
    "telemetry",
]
