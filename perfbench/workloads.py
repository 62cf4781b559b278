"""The serving workloads on the paper-config image.

* ``offline-batch256`` — closed loop, one thread, ``PackedModel`` on seeded
  (256, 49, 10) batches: the kernels do nearly all the work.
* ``kws-streams`` — 16 always-on ``StreamSessionManager`` sessions on a
  2-worker replicated ``ClusterRouter`` (shared memory on), fed real-time
  250 ms hops: parent-side MFCC plus cross-session ``submit_many`` bursts.

Each workload returns its verified outcomes, its end-to-end metrics and, in
a traced pass, the per-layer readings only that workload can take.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.deploy.image import ModelImage
from repro.evaluation.streaming import StreamingConfig, StreamingDetector
from repro.serving import AsyncServingFrontend, ClusterRouter, StreamSessionManager
from repro.serving.loadgen import build_arrivals
from repro.serving.packed import PackedModel
from repro.serving.telemetry import profile_kernels

from common import (
    MODEL_NAME,
    SCORE_RTOL,
    CallTimer,
    CpuMeter,
    peak_rss_mb,
    reference_scores,
    utterance_pool,
)
from metrics import Outcomes, due_latencies, relative_ok, summarize_ms

#: distinct utterances the offline batches are drawn from
POOL_SIZE = 256
OFFLINE_BATCH = 256
#: set-up is repeated and its median reported; cluster set-up spawns processes
CLUSTER_SETUP_REPS = 5
CLUSTER_WORKERS = 2

SESSIONS = 16
#: sessions start one quarter-hop apart, so 4 sessions share each feed tick
#: and their windows leave as cross-session bursts of about 4
PHASES = 4
#: a window's decision must arrive before the next hop is due
WINDOW_LIMIT_MS = 250.0
STREAM_POOL = 8

#: a generator running later than this at p99 is flagged in the report
LATE_FLAG_MS = 5.0
DRAIN_TIMEOUT_S = 60.0

#: kernel-profile kinds reported as kernel_profile.<kind>.layer_s
PROFILE_KINDS = ("conv", "dw", "pw", "linear")
#: error types reported as cluster.errors_by_type.<type>; others sum into "other"
ERROR_TYPES = (
    "AdmissionError", "DeadlineExceeded", "WorkerCrashed", "TransportError", "RoutingError"
)
TRACE_SPANS = (
    "admission", "encode", "dispatch", "transport", "queue", "kernel", "decode", "completion"
)


@dataclass
class WorkloadContext:
    """Inputs shared by every pass of one run."""

    blob: bytes
    image: ModelImage
    seed: int


@dataclass
class PassResult:
    """One measured pass: verified outcomes, end-to-end and per-layer metrics."""

    outcomes: Outcomes
    metrics: Dict[str, float]
    layers: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)


def _late_note(late_s: List[float]) -> Tuple[float, List[str]]:
    """p99 generator lateness in ms, plus a warning line when it fell behind."""
    late_ms = float(np.percentile(late_s, 99) * 1e3) if late_s else 0.0
    notes = [f"generator late p99 {late_ms:.3f} ms over {len(late_s)} ticks"]
    if late_ms > LATE_FLAG_MS:
        notes.append(
            f"WARNING: generator fell behind (late p99 {late_ms:.1f} ms > {LATE_FLAG_MS} ms); "
            "open-loop latencies include its stalls"
        )
    return late_ms, notes


def _latency_metrics(
    latencies_s: List[float], name: str
) -> Tuple[Dict[str, float], Dict[str, float], str]:
    """The gated median, the p90 and p99 tails (reported, not gated), and a report line."""
    p90 = summarize_ms(latencies_s, wanted=90.0)
    p99 = summarize_ms(latencies_s, wanted=99.0)
    line = (
        f"{name}: p50 {p90.p50_ms:.3f} ms, p{p90.tail_pct:g} {p90.tail_ms:.3f} ms, "
        f"p{p99.tail_pct:g} {p99.tail_ms:.3f} ms (n={p90.count})"
    )
    return (
        {"latency_p50_ms": p90.p50_ms},
        {"latency_p90_ms": p90.tail_ms, "latency_p99_ms": p99.tail_ms},
        line,
    )


# -- offline-batch256 ------------------------------------------------------- #


def _offline_setup(blob: bytes, x: np.ndarray) -> Tuple[PackedModel, float]:
    """Image bytes → ``PackedModel`` → first result, timed."""
    start = time.perf_counter()
    model = PackedModel(ModelImage.from_bytes(blob))
    model(x)
    return model, time.perf_counter() - start


def offline_batch256(ctx: WorkloadContext, seconds: float, traced: bool) -> PassResult:
    """Closed loop of batch-256 ``PackedModel`` calls, one thread.

    An untraced pass sets up once more after every call, so the set-up
    median samples the host over the whole run as the calls do (a ~10 ms
    set-up repeated back to back sees only the host's state of that
    moment); those set-ups are left out of the loop's wall and CPU time.
    """
    rng = np.random.default_rng([ctx.seed, 1])
    shape = tuple(ctx.image.header["input_shape"])
    pool = utterance_pool(rng, POOL_SIZE, shape)
    model, first_setup_s = _offline_setup(ctx.blob, pool[:1])
    setup = [first_setup_s]
    model(pool)  # warm-up at the measured shape

    batches: List[Tuple[np.ndarray, np.ndarray]] = []
    call_s: List[float] = []
    paused_s = paused_cpu_s = 0.0
    cpu = CpuMeter().begin()
    with profile_kernels() if traced else contextlib.nullcontext() as profile:
        start = time.perf_counter()
        while not call_s or time.perf_counter() - start - paused_s < seconds:
            idx = rng.integers(0, POOL_SIZE, OFFLINE_BATCH)
            t0 = time.perf_counter()
            scores = model(pool[idx])
            call_s.append(time.perf_counter() - t0)
            batches.append((idx, scores))
            if not traced:
                cpu0 = time.process_time()
                setup.append(_offline_setup(ctx.blob, pool[:1])[1])
                paused_s += setup[-1]
                paused_cpu_s += time.process_time() - cpu0
        wall = time.perf_counter() - start - paused_s
    cpu_s = cpu.elapsed_s() - paused_cpu_s
    rss = peak_rss_mb()

    expected = reference_scores(ctx.image, pool)
    outcomes = Outcomes(attempted=len(batches) * OFFLINE_BATCH)
    for idx, scores in batches:
        outcomes.fail("wrong_output", int((~relative_ok(scores, expected[idx], SCORE_RTOL)).sum()))
    latency, tails, line = _latency_metrics(call_s, "batch-256 call latency")
    metrics = {
        "setup_s": float(np.median(setup)),
        "throughput_rps": outcomes.attempted / wall,
        "goodput_rps": outcomes.succeeded / wall,
        "cpu_ms_per_req": cpu_s * 1e3 / outcomes.attempted,
        "peak_rss_mb": rss,
        **latency,
    }
    layers = _profile_layers(profile.snapshot()) if traced else tails
    notes = [line, f"{len(call_s)} calls in {wall:.2f} s, set-up median of {len(setup)}"]
    return PassResult(outcomes, metrics, layers, notes)


def _profile_layers(profile: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    return {
        f"kernel_profile.{kind}.layer_s": float(profile.get(kind, {}).get("layer_s", 0.0))
        for kind in PROFILE_KINDS
    }


# -- shared cluster plumbing ------------------------------------------------ #


def _start_router(
    blob: bytes, x0: np.ndarray, trace_rate: float
) -> Tuple[ClusterRouter, Dict[str, float]]:
    """Router start + register + first result, timed."""
    t0 = time.perf_counter()
    router = ClusterRouter(
        workers=CLUSTER_WORKERS, placement="replicated", trace_sample_rate=trace_rate
    )
    router.start()
    try:
        t1 = time.perf_counter()
        router.register(MODEL_NAME, blob)
        t2 = time.perf_counter()
        router.submit(x0, model=MODEL_NAME).result(timeout=DRAIN_TIMEOUT_S)
        t3 = time.perf_counter()
    except BaseException:
        router.stop()
        raise
    return router, {
        "setup_s": t3 - t0,
        "cluster.start_ms": (t1 - t0) * 1e3,
        "cluster.register_ms": (t2 - t1) * 1e3,
    }


def _setup_cluster(
    blob: bytes, pool: np.ndarray, traced: bool
) -> Tuple[ClusterRouter, Dict[str, float]]:
    """Repeat cluster set-up, keep the last router, report medians."""
    reps = 1 if traced else CLUSTER_SETUP_REPS
    readings: Dict[str, List[float]] = defaultdict(list)
    router = None
    for rep in range(reps):
        if router is not None:
            router.stop()
        router, times = _start_router(blob, pool[rep % len(pool)], 1.0 if traced else 0.0)
        for key, value in times.items():
            readings[key].append(value)
    try:
        # both replicas serve a few requests before timing starts
        for future in router.submit_many(list(pool[:8]), model=MODEL_NAME):
            future.result(timeout=DRAIN_TIMEOUT_S)
        for x in pool[8:24]:
            router.submit(x, model=MODEL_NAME).result(timeout=DRAIN_TIMEOUT_S)
    except BaseException:
        router.stop()
        raise
    return router, {key: float(np.median(values)) for key, values in readings.items()}


class _SubmitProbe:
    """Times ``ClusterRouter.submit_many`` from outside and when its futures resolve.

    ``submit`` delegates to ``submit_many``, so wrapping the instance
    attribute sees every request of both cluster workloads.
    """

    def __init__(self, router: ClusterRouter) -> None:
        self.submit = CallTimer()
        self.wait_s: List[float] = []
        original = router.submit_many

        def timed(*args, **kwargs):
            start = time.perf_counter()
            futures = original(*args, **kwargs)
            returned = time.perf_counter()
            self.submit.calls += 1
            self.submit.total_s += returned - start
            for future in futures:
                # registered before any caller's callback, so it runs first
                future.add_done_callback(
                    lambda _f, t0=returned: self.wait_s.append(time.perf_counter() - t0)
                )
            return futures

        router.submit_many = timed

    def layers(self) -> Dict[str, float]:
        waits = list(self.wait_s)
        return {
            "cluster.submit_ms": self.submit.mean_ms,
            "cluster.resolve_wait_ms": float(np.mean(waits)) * 1e3 if waits else 0.0,
        }


class _TraceCollector:
    """Accumulates the router's finished traces (its ring keeps only the last few)."""

    def __init__(self, router: ClusterRouter) -> None:
        self.router = router
        self.traces: Dict[int, object] = {}
        # set-up and warm-up requests are not part of the measured pass
        self.skip = {trace.trace_id for trace in router.traces()}

    def poll(self) -> None:
        for trace in self.router.traces():
            if trace.trace_id not in self.skip:
                self.traces[trace.trace_id] = trace

    def layers(self) -> Dict[str, float]:
        self.poll()
        totals = dict.fromkeys(TRACE_SPANS, 0.0)
        for trace in self.traces.values():
            for name, self_s in _span_self_times(trace.spans).items():
                if name in totals:
                    totals[name] += self_s
        count = max(1, len(self.traces))
        return {f"trace.{name}_ms": total * 1e3 / count for name, total in totals.items()}


def _span_self_times(spans) -> Dict[str, float]:
    """Per span name: duration minus the part covered by spans nested inside it."""
    result: Dict[str, float] = defaultdict(float)
    for span in spans:
        inner = sorted(
            (s.start_s, s.end_s)
            for s in spans
            if s is not span and s.start_s >= span.start_s and s.end_s <= span.end_s
            and (s.start_s, s.end_s) != (span.start_s, span.end_s)
        )
        covered, cursor = 0.0, span.start_s
        for lo, hi in inner:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.name] += span.end_s - span.start_s - covered
    return result


def _cluster_layers(router: ClusterRouter, transport_before: Dict[str, int]) -> Dict[str, float]:
    """Shed/error counters, shm use and the kernel profile of one traced pass."""
    snap = router.snapshot()
    transport = snap.transport
    shm = transport["shm_requests"] - transport_before["shm_requests"]
    pipe = transport["pipe_requests"] - transport_before["pipe_requests"]
    fallbacks = sum(
        transport[key] - transport_before[key]
        for key in ("fallbacks_exhausted", "fallbacks_oversize")
    )
    errors = dict(snap.errors_by_type)
    layers = {
        "cluster.shed": snap.shed,
        "shm.slab_ratio": shm / (shm + pipe) if shm + pipe else 0.0,
        "shm.fallbacks": fallbacks,
        **{f"cluster.errors_by_type.{name}": errors.pop(name, 0) for name in ERROR_TYPES},
        "cluster.errors_by_type.other": sum(errors.values()),
    }
    layers.update(_profile_layers(router.kernel_profile()))
    return layers


async def _frontend_self_ms(
    router: ClusterRouter, probe: _SubmitProbe, pool: np.ndarray
) -> Tuple[float, List[np.ndarray]]:
    """Mean ms a request spends in ``AsyncServingFrontend`` outside the router.

    One request at a time, so the probe's submit and resolve readings
    between two awaits belong to that request: the frontend's own share is
    the call minus the time inside ``submit`` minus the wait on its future.
    """
    frontend = AsyncServingFrontend(router)
    self_s, rows = [], []
    for x in pool:
        submitted, waits = probe.submit.total_s, len(probe.wait_s)
        start = time.perf_counter()
        rows.append(await frontend.predict(x, model=MODEL_NAME))
        elapsed = time.perf_counter() - start
        self_s.append(elapsed - (probe.submit.total_s - submitted) - sum(probe.wait_s[waits:]))
    return float(np.mean(self_s)) * 1e3, rows


# -- kws-streams ------------------------------------------------------------ #


@dataclass
class _Slot:
    """One always-on stream position: its current session and feed cursor."""

    arrival: object
    session: object
    start_tick: int
    fed: int = 0


def _expected_posteriors(
    image: ModelImage, arrivals, config: StreamingConfig
) -> Dict[int, np.ndarray]:
    """Solo ``StreamingDetector`` posteriors on the reference backend, per distinct waveform."""
    detector = StreamingDetector(PackedModel(image, kernel="reference"), config)
    expected: Dict[int, np.ndarray] = {}
    for arrival in arrivals:
        key = id(arrival.waveform)
        if key not in expected:
            expected[key] = detector.posteriors(arrival.waveform)[1]
    return expected


def kws_streams(ctx: WorkloadContext, seconds: float, traced: bool) -> PassResult:
    """16 real-time KWS sessions through a ``StreamSessionManager`` on the router."""
    config = StreamingConfig()
    hop = config.hop_samples
    tick_s = config.hop_ms / 1e3 / PHASES
    # every arrival lasts > 4 s, so each slot needs at most seconds/4 + 1 of them
    per_slot = int(seconds // 4) + 2
    arrivals = build_arrivals(
        SESSIONS * per_slot,
        arrivals_per_s=1.0 / tick_s,
        pool_size=STREAM_POOL,
        seed=ctx.seed,
        sample_rate=config.sample_rate,
    )
    expected = _expected_posteriors(ctx.image, arrivals, config)
    rng = np.random.default_rng([ctx.seed, 3])
    pool = utterance_pool(rng, 24, tuple(ctx.image.header["input_shape"]))
    router, setup = _setup_cluster(ctx.blob, pool, traced)
    try:
        manager = StreamSessionManager(cluster=router, model=MODEL_NAME, config=config)
        probe = _SubmitProbe(router) if traced else None
        traces = _TraceCollector(router) if traced else None
        transport_before = dict(router.snapshot().transport)
        if traced:
            router.profile_kernels(True)
        feed, pump, collect = CallTimer(), CallTimer(), CallTimer()
        done_s: Dict[Tuple[str, int], float] = {}
        hooked = set()
        start_tick: Dict[str, int] = {}
        arrival_of: Dict[str, object] = {}
        next_arrival = iter(arrivals)

        def open_slot(tick: int) -> _Slot:
            arrival = next(next_arrival)
            session = manager.open()
            start_tick[session.session_id] = tick
            arrival_of[session.session_id] = arrival
            return _Slot(arrival, session, tick)

        slots = [open_slot(round(a.at_s / tick_s)) for a in arrivals[:SESSIONS]]
        end_tick = round(seconds / tick_s)
        late_s: List[float] = []
        cpu = CpuMeter().begin()
        begin = time.perf_counter() + 0.05
        for tick in range(1, end_tick + 1):
            due = begin + tick * tick_s
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            late_s.append(time.perf_counter() - due)
            for j, slot in enumerate(slots):
                # chunk c of a session starting at tick s is complete at tick s + PHASES*(c+1)
                if tick <= slot.start_tick or (tick - slot.start_tick) % PHASES:
                    continue
                chunk = slot.arrival.waveform[slot.fed : slot.fed + hop]
                feed.wrap(slot.session.feed)(chunk)
                slot.fed += len(chunk)
                if slot.fed >= len(slot.arrival.waveform):
                    slot.session.close()
                    slots[j] = open_slot(tick)
            pump.wrap(manager.pump)()
            for session in manager.sessions:
                for index, future, _ in session.inflight:
                    key = (session.session_id, index)
                    if key not in hooked:
                        hooked.add(key)
                        future.add_done_callback(
                            lambda _f, key=key: done_s.__setitem__(key, time.perf_counter())
                        )
            collect.wrap(manager.collect)()
            if traces is not None:
                traces.poll()
        measured = time.perf_counter() - begin
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while time.perf_counter() < deadline and any(
            s.ready or s.inflight for s in manager.sessions
        ):
            manager.pump()
            manager.collect(wait=True, timeout_s=DRAIN_TIMEOUT_S)
        cpu_s = cpu.elapsed_s()
        rss = peak_rss_mb()
        layers: Dict[str, float] = {}
        if traced:
            stats = manager.snapshot()
            layers = {
                **_cluster_layers(router, transport_before),
                **traces.layers(),
                **probe.layers(),
                "streams.feed_ms": feed.mean_ms,
                "streams.pump_ms": pump.mean_ms,
                "streams.collect_ms": collect.mean_ms,
                "streams.burst_size": (
                    stats.windows_submitted / stats.bursts if stats.bursts else 0.0
                ),
                "streams.bursts_shed": stats.bursts_shed,
            }
            frontend_ms, frontend_rows = asyncio.run(_frontend_self_ms(router, probe, pool))
    finally:
        router.stop()

    outcomes = Outcomes()
    if traced:
        layers["frontend.self_ms"] = frontend_ms
        expected_rows = reference_scores(ctx.image, pool)
        outcomes.attempted += len(frontend_rows)
        ok = relative_ok(np.stack(frontend_rows), expected_rows, SCORE_RTOL)
        outcomes.fail("wrong_output", int((~ok).sum()))
    due_s, finished_s, unverified = [], [], 0
    sessions = {s.session_id: s for s in manager.sessions}
    for sid, session in sessions.items():
        st = session.stats
        outcomes.attempted += st.windows_featurized
        outcomes.fail("deadline", st.deadline_misses)
        outcomes.fail("error", st.windows_failed)
        outcomes.fail(
            "unresolved",
            st.windows_featurized - st.windows_served - st.windows_failed - st.deadline_misses,
        )
        _, probs = session.posteriors()
        if not len(probs):
            continue
        reference = expected[id(arrival_of[sid].waveform)]
        gaps = sorted(st.gap_windows)
        gap_set = set(gaps)
        served = [i for i in range(st.windows_served + len(gaps)) if i not in gap_set]
        # after a gap the smoother state differs from a solo run by design
        checkable = len(probs) if not gaps else sum(1 for i in served if i < gaps[0])
        ok = relative_ok(probs[:checkable], reference[:checkable], SCORE_RTOL)
        outcomes.fail("wrong_output", int((~ok).sum()))
        unverified += len(probs) - checkable
        for row, index in enumerate(served[: len(probs)]):
            if row < checkable and not ok[row]:
                continue
            due_tick = start_tick[sid] + PHASES * (index + config.window_samples // hop)
            due_s.append(begin + due_tick * tick_s)
            finished_s.append(done_s.get((sid, index)))
    latencies = due_latencies(due_s, finished_s)
    within_limit = sum(latency * 1e3 <= WINDOW_LIMIT_MS for latency in latencies)
    late_ms, late_notes = _late_note(late_s)
    latency, tails, line = _latency_metrics(latencies, "window latency from due")
    metrics = {
        "setup_s": setup["setup_s"],
        "throughput_rps": outcomes.succeeded / measured,
        "goodput_rps": within_limit / measured,
        "cpu_ms_per_req": cpu_s * 1e3 / max(1, outcomes.succeeded),
        "peak_rss_mb": rss,
        **latency,
    }
    notes = [
        line, f"{len(sessions)} sessions, {within_limit} windows within {WINDOW_LIMIT_MS:g} ms"
    ]
    if unverified:
        notes.append(f"{unverified} windows after a gap could not be compared to a solo run")
    if traced:
        layers["loadgen.late_p99_ms"] = late_ms
    else:
        layers = {k: v for k, v in setup.items() if k != "setup_s"}
        layers.update(tails)
    return PassResult(outcomes, metrics, layers, notes + late_notes)
