"""Unified telemetry plane for the serving stack.

Every layer of the serving system used to grow its own ad-hoc stats
object (``EngineStats``, ``ClusterStats``, ``RegistryStats``, ...).
This module gives them one roof:

* :class:`MetricsRegistry` — process-local counters / gauges /
  histograms plus *pull sources*: components register a zero-argument
  callable under a namespace prefix (``"cluster"``, ``"engine"``,
  ``"shm"``, ...) and one :meth:`MetricsRegistry.snapshot` call returns
  the whole tree.  A module-level default registry backs the one-liner
  :func:`snapshot`.
* :class:`Tracer` / :class:`Trace` / :class:`Span` — lightweight
  per-request tracing.  Sampling is counter-based (every *N*-th
  request); ``sample_rate=0`` short-circuits to ``None`` before any
  allocation so the hot path stays untouched.
* Exporters — :func:`to_prometheus` (text exposition format),
  :func:`to_jsonl` (one JSON object per leaf), chrome-trace-event
  export via :func:`to_chrome_trace` / :func:`dump_trace`, and a tiny
  stdlib HTTP server (:class:`TelemetryServer`) for ``/metrics`` +
  ``/healthz``.
* :class:`KernelProfile` — opt-in per-layer-kind timing of the packed
  kernels' gather passes, installed with :func:`profile_kernels`.

The ``cluster`` namespace carries the resilience plane's state along
with the serving counters: ``cluster.errors_by_type`` (failed attempts
by exception class) and the ``cluster.resilience`` subtree
(retry/hedge counters, retry-budget occupancy, per-worker circuit
breaker state, restart-backoff holds — see
:meth:`repro.serving.resilience.ResilienceStats.as_tree`).  String
leaves like a breaker's ``state`` name are snapshot/JSONL-only; the
Prometheus exporter ships the numeric ``open`` 0/1 gauge next to them.

Nothing in here imports the rest of :mod:`repro.serving`, so every
serving module can depend on it without cycles.
"""

from __future__ import annotations

import json
import threading
import weakref
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Trace",
    "Span",
    "Tracer",
    "KernelProfile",
    "profile_kernels",
    "TelemetryServer",
    "get_registry",
    "snapshot",
    "to_prometheus",
    "to_jsonl",
    "to_chrome_trace",
    "dump_trace",
]

#: default ring size for histogram observations (matches the router's
#: latency window so the two report comparable percentiles)
DEFAULT_HISTOGRAM_WINDOW = 2048

#: how many finished traces a tracer retains for inspection/export
DEFAULT_TRACE_KEEP = 256


class Counter:
    """Monotonically increasing count; cheap enough for hot paths."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        """Current count."""
        return self._value


class Gauge:
    """A value that goes up and down (queue depth, resident bytes, ...)."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Replace the gauge value."""
        self._value = value

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` to the gauge."""
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` from the gauge."""
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        """Current gauge value."""
        return self._value


class Histogram:
    """Sliding-window distribution summarised as count/mean/p50/p99."""

    __slots__ = ("_window", "_count", "_lock")

    def __init__(self, window: int = DEFAULT_HISTOGRAM_WINDOW) -> None:
        self._window: Deque[float] = deque(maxlen=window)
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        with self._lock:
            self._window.append(float(value))
            self._count += 1

    def summary(self) -> Dict[str, float]:
        """count / mean / p50 / p99 over the retained window."""
        with self._lock:
            values = list(self._window)
            count = self._count
        if not values:
            return {"count": count, "mean": 0.0, "p50": 0.0, "p99": 0.0}
        p50, p99 = np.percentile(values, [50.0, 99.0])
        return {
            "count": count,
            "mean": float(np.mean(values)),
            "p50": float(p50),
            "p99": float(p99),
        }


def _nest(tree: Dict[str, Any], dotted: str, value: Any) -> None:
    """Insert ``value`` at the dotted path ``a.b.c`` inside ``tree``."""
    node = tree
    parts = dotted.split(".")
    for part in parts[:-1]:
        nxt = node.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            node[part] = nxt
        node = nxt
    node[parts[-1]] = value


class MetricsRegistry:
    """Process-local metrics plus pull-model namespace sources.

    Own metrics are created on demand with :meth:`counter`,
    :meth:`gauge` and :meth:`histogram` under dotted names
    (``"traces.sampled"``).  Components with existing stats objects
    mirror them in by registering a zero-argument callable returning a
    plain dict tree under a prefix; :meth:`snapshot` calls every live
    source and mounts its tree at that prefix.  Registration is
    latest-wins per prefix, and bound-method sources are held through
    weak references so a registry never keeps a dead component alive.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._sources: Dict[str, Callable[[], Optional[Callable[[], Mapping]]]] = {}

    # -- own metrics -------------------------------------------------- #

    def counter(self, name: str) -> Counter:
        """Get or create the counter registered under ``name``."""
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter()
            return metric

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge registered under ``name``."""
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = Gauge()
            return metric

    def histogram(self, name: str, window: int = DEFAULT_HISTOGRAM_WINDOW) -> Histogram:
        """Get or create the histogram registered under ``name``."""
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms[name] = Histogram(window)
            return metric

    # -- pull sources -------------------------------------------------- #

    def register_source(self, prefix: str, source: Callable[[], Mapping]) -> None:
        """Mount ``source()``'s dict tree under ``prefix`` at snapshot time.

        Latest-wins: re-registering a prefix replaces the previous
        source.  Bound methods are wrapped in :class:`weakref.WeakMethod`
        so a registry (the module default in particular) never pins a
        router/engine that the caller has dropped.
        """
        if not prefix or "." in prefix:
            raise ValueError(f"source prefix must be a bare namespace: {prefix!r}")
        getter: Callable[[], Optional[Callable[[], Mapping]]]
        if hasattr(source, "__self__"):
            getter = weakref.WeakMethod(source)  # type: ignore[arg-type]
        else:
            getter = lambda bound=source: bound  # noqa: E731
        with self._lock:
            self._sources[prefix] = getter

    def unregister_source(self, prefix: str) -> None:
        """Drop the source mounted at ``prefix`` (no-op when absent)."""
        with self._lock:
            self._sources.pop(prefix, None)

    def sources(self) -> Tuple[str, ...]:
        """Prefixes with a currently live source."""
        with self._lock:
            items = list(self._sources.items())
        return tuple(prefix for prefix, getter in items if getter() is not None)

    # -- snapshot ------------------------------------------------------ #

    def snapshot(self) -> Dict[str, Any]:
        """One tree: every own metric plus every live source's tree."""
        with self._lock:
            counters = list(self._counters.items())
            gauges = list(self._gauges.items())
            histograms = list(self._histograms.items())
            sources = list(self._sources.items())
        tree: Dict[str, Any] = {}
        for name, counter in counters:
            _nest(tree, name, counter.value)
        for name, gauge in gauges:
            _nest(tree, name, gauge.value)
        for name, histogram in histograms:
            _nest(tree, name, histogram.summary())
        dead: List[str] = []
        for prefix, getter in sources:
            fn = getter()
            if fn is None:
                dead.append(prefix)
                continue
            try:
                tree[prefix] = dict(fn())
            except Exception as exc:  # a broken mirror must not sink the snapshot
                tree[prefix] = {"source_error": f"{type(exc).__name__}: {exc}"}
        if dead:
            with self._lock:
                for prefix in dead:
                    if self._sources.get(prefix) is not None:
                        getter = self._sources[prefix]
                        if getter() is None:
                            del self._sources[prefix]
        return tree

    def to_prometheus(self) -> str:
        """Prometheus text exposition of :meth:`snapshot`."""
        return to_prometheus(self.snapshot())

    def to_jsonl(self) -> str:
        """JSON-lines exposition of :meth:`snapshot`."""
        return to_jsonl(self.snapshot())


_DEFAULT_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry components mirror into."""
    return _DEFAULT_REGISTRY


def snapshot() -> Dict[str, Any]:
    """Snapshot the default registry — the whole stack in one tree."""
    return _DEFAULT_REGISTRY.snapshot()


# -- exporters --------------------------------------------------------------- #


def _leaves(tree: Mapping, prefix: str = "") -> Iterator[Tuple[str, Any]]:
    """Yield ``(dotted_name, value)`` for every scalar leaf in ``tree``."""
    for key, value in tree.items():
        name = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, Mapping):
            yield from _leaves(value, name)
        elif isinstance(value, (list, tuple)):
            for index, item in enumerate(value):
                if isinstance(item, Mapping):
                    yield from _leaves(item, f"{name}.{index}")
                else:
                    yield f"{name}.{index}", item
        else:
            yield name, value


def _prom_name(dotted: str) -> str:
    """``cluster.shed_by_priority.HIGH`` -> ``cluster_shed_by_priority_HIGH``."""
    safe = []
    for ch in dotted:
        safe.append(ch if ch.isalnum() or ch == "_" else "_")
    name = "".join(safe)
    if name and name[0].isdigit():
        name = "_" + name
    return name


def to_prometheus(tree: Mapping) -> str:
    """Render a snapshot tree in the Prometheus text exposition format.

    Numeric leaves become one sample each; booleans render as 0/1;
    non-numeric leaves (version strings, phases) are skipped — they
    belong in the JSON exporters.
    """
    lines: List[str] = []
    for name, value in _leaves(tree):
        if isinstance(value, bool):
            value = int(value)
        if not isinstance(value, (int, float)):
            continue
        lines.append(f"{_prom_name(name)} {value}")
    return "\n".join(lines) + "\n"


def to_jsonl(tree: Mapping) -> str:
    """One ``{"name": ..., "value": ...}`` JSON object per leaf."""
    lines = [
        json.dumps({"name": name, "value": value}, default=str)
        for name, value in _leaves(tree)
    ]
    return "\n".join(lines) + "\n"


# -- tracing ----------------------------------------------------------------- #


@dataclass
class Span:
    """One named interval (``time.monotonic`` seconds) inside a trace."""

    name: str
    start_s: float
    end_s: float

    @property
    def duration_s(self) -> float:
        """Span length in seconds."""
        return self.end_s - self.start_s


@dataclass
class Trace:
    """Spans collected for one sampled request."""

    trace_id: int
    spans: List[Span] = field(default_factory=list)

    def add(self, name: str, start_s: float, end_s: float) -> None:
        """Append a span (out-of-order appends are fine)."""
        self.spans.append(Span(name, start_s, end_s))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the wrapped block as a span."""
        import time

        start = time.monotonic()
        try:
            yield
        finally:
            self.add(name, start, time.monotonic())

    @property
    def start_s(self) -> float:
        """Earliest span start (0.0 for an empty trace)."""
        return min((s.start_s for s in self.spans), default=0.0)

    @property
    def end_s(self) -> float:
        """Latest span end (0.0 for an empty trace)."""
        return max((s.end_s for s in self.spans), default=0.0)

    @property
    def wall_s(self) -> float:
        """Wall-clock from first span start to last span end."""
        return self.end_s - self.start_s if self.spans else 0.0

    def total_span_s(self) -> float:
        """Sum of all span durations (lifecycle spans tile the timeline)."""
        return sum(s.duration_s for s in self.spans)

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form for JSON export."""
        return {
            "trace_id": self.trace_id,
            "wall_s": self.wall_s,
            "spans": [
                {"name": s.name, "start_s": s.start_s, "end_s": s.end_s}
                for s in sorted(self.spans, key=lambda s: s.start_s)
            ],
        }


class Tracer:
    """Counter-based sampler producing :class:`Trace` objects.

    ``sample_rate`` is a fraction of requests to trace: ``1.0`` traces
    everything, ``0.01`` every 100th request, ``0.0`` disables tracing
    entirely — :meth:`maybe_trace` then returns ``None`` before touching
    any state, so the disabled path allocates nothing.
    """

    def __init__(
        self,
        sample_rate: float = 0.0,
        *,
        registry: Optional[MetricsRegistry] = None,
        keep: int = DEFAULT_TRACE_KEEP,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1]: {sample_rate}")
        self.sample_rate = sample_rate
        self._period = 0 if sample_rate <= 0.0 else max(1, round(1.0 / sample_rate))
        self._count = 0
        self._next_id = 0
        self._lock = threading.Lock()
        self._finished: Deque[Trace] = deque(maxlen=keep)
        self._sampled = registry.counter("traces.sampled") if registry else None
        self._completed = registry.counter("traces.finished") if registry else None

    def maybe_trace(self) -> Optional[Trace]:
        """Return a new :class:`Trace` for every *N*-th call, else ``None``."""
        period = self._period
        if not period:
            return None
        with self._lock:
            self._count += 1
            if self._count % period:
                return None
            self._next_id += 1
            trace_id = self._next_id
        if self._sampled is not None:
            self._sampled.inc()
        return Trace(trace_id)

    def finish(self, trace: Trace) -> None:
        """Retain a completed trace for :meth:`traces` / export."""
        with self._lock:
            self._finished.append(trace)
        if self._completed is not None:
            self._completed.inc()

    def traces(self) -> Tuple[Trace, ...]:
        """Finished traces, oldest first (bounded by ``keep``)."""
        with self._lock:
            return tuple(self._finished)

    def dump_trace(self, path: Optional[str] = None) -> Dict[str, Any]:
        """Chrome-trace-event dict of finished traces; optionally write it.

        Load the written file in ``chrome://tracing`` / Perfetto for a
        flamegraph-style view of where requests spend their time.
        """
        doc = to_chrome_trace(self.traces())
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2)
        return doc


def to_chrome_trace(traces: Iterable[Trace]) -> Dict[str, Any]:
    """Convert traces to the chrome://tracing ``traceEvents`` format."""
    events: List[Dict[str, Any]] = []
    for trace in traces:
        origin = trace.start_s
        for span in sorted(trace.spans, key=lambda s: s.start_s):
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "pid": 1,
                    "tid": trace.trace_id,
                    "ts": (span.start_s - origin) * 1e6,
                    "dur": span.duration_s * 1e6,
                    "args": {"trace_id": trace.trace_id},
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def dump_trace(traces: Iterable[Trace], path: str) -> Dict[str, Any]:
    """Write traces to ``path`` in chrome-trace format; returns the dict."""
    doc = to_chrome_trace(traces)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    return doc


# -- kernel profiling -------------------------------------------------------- #


class KernelProfile:
    """Per-layer-kind timing of the packed kernels' passes.

    Installed globally with :func:`profile_kernels` (or
    ``ClusterRouter.profile_kernels``); :mod:`repro.serving.packed`
    marks the active layer kind (``conv`` / ``dw`` / ``pw`` / ``linear``)
    and every kernel backend attributes each pass it runs — a gather, a
    GEMM or a depthwise tap sum, still counted as ``gather_*`` — to it.
    ``snapshot()`` yields the per-model latency breakdown.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._kinds: Dict[str, Dict[str, Any]] = {}
        self._kind = "other"

    @contextmanager
    def layer(self, kind: str) -> Iterator[None]:
        """Attribute nested gather passes (and the layer total) to ``kind``."""
        import time

        previous, self._kind = self._kind, kind
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._kind = previous
            with self._lock:
                row = self._kinds.setdefault(
                    kind, {"layers": 0, "layer_s": 0.0, "gather_calls": 0, "gather_s": 0.0}
                )
                row["layers"] += 1
                row["layer_s"] += elapsed

    def record_gather(self, elapsed_s: float, backend: str = "reference") -> None:
        """Record one gather pass under the active layer kind.

        ``backend`` names the kernel backend that executed the pass
        (``"reference"`` for the classic two-pass kernel, a
        :mod:`repro.serving.kernels_fast` registry name otherwise); the
        per-backend sub-rows are what lets a mixed-backend process — or a
        cluster mid-rollout — attribute gather time to the code that spent
        it.
        """
        with self._lock:
            row = self._kinds.setdefault(
                self._kind,
                {"layers": 0, "layer_s": 0.0, "gather_calls": 0, "gather_s": 0.0},
            )
            row["gather_calls"] += 1
            row["gather_s"] += elapsed_s
            per_backend = row.setdefault("backends", {}).setdefault(
                backend, {"gather_calls": 0, "gather_s": 0.0}
            )
            per_backend["gather_calls"] += 1
            per_backend["gather_s"] += elapsed_s

    def merge(self, other: Mapping[str, Mapping[str, Any]]) -> None:
        """Fold another profile's snapshot in (cross-worker aggregation)."""
        with self._lock:
            for kind, stats in other.items():
                row = self._kinds.setdefault(
                    kind,
                    {"layers": 0, "layer_s": 0.0, "gather_calls": 0, "gather_s": 0.0},
                )
                for key, value in stats.items():
                    if key == "backends":
                        mine = row.setdefault("backends", {})
                        for backend, sub in value.items():
                            target = mine.setdefault(
                                backend, {"gather_calls": 0, "gather_s": 0.0}
                            )
                            for sub_key, sub_value in sub.items():
                                target[sub_key] = target.get(sub_key, 0) + sub_value
                    else:
                        row[key] = row.get(key, 0) + value

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """``{kind: {layers, layer_s, gather_calls, gather_s, backends}}`` copy."""
        with self._lock:
            return {
                kind: {
                    key: (
                        {backend: dict(sub) for backend, sub in value.items()}
                        if key == "backends"
                        else value
                    )
                    for key, value in stats.items()
                }
                for kind, stats in self._kinds.items()
            }


@contextmanager
def profile_kernels(profile: Optional[KernelProfile] = None) -> Iterator[KernelProfile]:
    """Enable kernel profiling for the block; yields the profile.

    Installs ``profile`` (or a fresh :class:`KernelProfile`) as the
    process-global hook read by :func:`repro.serving.kernels._plane_sums`
    and the :class:`~repro.serving.packed.PackedModel` layer methods,
    and restores the previous hook on exit.
    """
    from repro.serving import kernels

    active = profile if profile is not None else KernelProfile()
    previous = kernels.get_kernel_profile()
    kernels.set_kernel_profile(active)
    try:
        yield active
    finally:
        kernels.set_kernel_profile(previous)


# -- HTTP endpoint ----------------------------------------------------------- #


class _TelemetryHandler(BaseHTTPRequestHandler):
    """``/metrics`` (Prometheus text) + ``/healthz`` (JSON) handler."""

    server: "TelemetryServer"

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        """Serve one GET request."""
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            body = self.server.registry.to_prometheus().encode("utf-8")
            ctype = "text/plain; version=0.0.4; charset=utf-8"
        elif path == "/metrics.jsonl":
            body = self.server.registry.to_jsonl().encode("utf-8")
            ctype = "application/jsonl"
        elif path == "/healthz":
            body = json.dumps({"status": "ok"}).encode("utf-8")
            ctype = "application/json"
        else:
            self.send_error(404, "unknown path (try /metrics or /healthz)")
            return
        self.send_response(200)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Silence per-request stderr logging."""


class TelemetryServer(ThreadingHTTPServer):
    """Tiny stdlib HTTP server exposing a registry at ``/metrics``.

    ``port=0`` binds an ephemeral port — read it back from
    :attr:`address`.  Start with :meth:`start` (daemon thread) and stop
    with :meth:`stop`.
    """

    daemon_threads = True

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__((host, port), _TelemetryHandler)
        self.registry = registry if registry is not None else get_registry()
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` actually bound."""
        return self.server_address[0], self.server_address[1]

    def start(self) -> "TelemetryServer":
        """Serve requests on a background daemon thread; returns self."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.serve_forever, name="telemetry-http", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the server down and release the socket (idempotent)."""
        thread, self._thread = self._thread, None
        if thread is not None:
            self.shutdown()
            thread.join(timeout=5.0)
        self.server_close()

    def __enter__(self) -> "TelemetryServer":
        """Start on entry."""
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        """Stop on exit."""
        self.stop()


def _percentile_summary(values: Sequence[float]) -> Dict[str, float]:
    """count/mean/p50/p99 (ms) helper shared by stats mirrors."""
    if not values:
        return {"count": 0, "mean_ms": 0.0, "p50_ms": 0.0, "p99_ms": 0.0}
    arr = np.asarray(values, dtype=np.float64) * 1e3
    p50, p99 = np.percentile(arr, [50.0, 99.0])
    return {
        "count": len(values),
        "mean_ms": float(arr.mean()),
        "p50_ms": float(p50),
        "p99_ms": float(p99),
    }
