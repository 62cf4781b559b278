"""Micro-benchmarks of the substrate kernels.

Not a paper table — these keep the building blocks honest: MFCC extraction,
conv forward/backward, strassenified vs dense matmul layers, the
synthetic-corpus generator, and the packed bit-plane kernels' per-kind
gather breakdown (via :func:`repro.serving.telemetry.profile_kernels`).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from conftest import record_metrics
from repro.audio.mfcc import MFCC
from repro.autodiff.ops_conv import conv2d, depthwise_conv2d
from repro.autodiff.tensor import Tensor, no_grad
from repro.core.hybrid import HybridConfig, STHybridNet
from repro.core.strassen import freeze_all
from repro.core.strassen.layers import StrassenLinear
from repro.datasets.synthesizer import keyword_spec, synthesize
from repro.deploy import build_image
from repro.deploy.packing import pack_ternary
from repro.nn.linear import Linear
from repro.serving import (
    PackedModel,
    available_backends,
    decode_planes,
    get_backend,
    profile_kernels,
    ternary_matmul,
)
from repro.serving.kernels import as_block_diagonal
from repro.serving.kernels_fast import dense_error_bound

#: fused backend must beat the reference by this factor on linear+pw kinds
FUSED_SPEEDUP_FLOOR = 1.3
#: the speedup gate needs quiet parallel hardware, like the cluster benches
MIN_GATE_CPUS = 4

RNG = np.random.default_rng(0)

# per-kernel timings land in BENCH_kernels.json via the conftest summary
# hook when pytest-benchmark is enabled; the config rides along either way
record_metrics(
    "kernels",
    config={
        "kernels": [
            "mfcc",
            "synthesizer",
            "conv2d_forward",
            "depthwise_forward",
            "conv2d_backward",
            "linear_kinds",
            "packed_profile",
            "backend_speedups",
        ],
        "batch": 32,
    },
)


def test_benchmark_mfcc(benchmark):
    """MFCC pipeline on a 1-second clip."""
    extractor = MFCC()
    wave = RNG.standard_normal(16_000)
    features = benchmark(extractor, wave)
    assert features.shape == (49, 10)


def test_benchmark_synthesizer(benchmark):
    """Formant synthesis of one keyword utterance."""
    spec = keyword_spec("seven")
    wave = benchmark(lambda: synthesize(spec, 0))
    assert wave.shape == (16_000,)


def test_benchmark_conv2d_forward(benchmark):
    """DS-CNN-shaped conv forward (batch 32)."""
    x = Tensor(RNG.standard_normal((32, 1, 49, 10)).astype(np.float32))
    w = Tensor(RNG.standard_normal((64, 1, 10, 4)).astype(np.float32) * 0.1)

    def forward():
        with no_grad():
            return conv2d(x, w, stride=(2, 2), padding=(5, 1)).data

    out = benchmark(forward)
    assert out.shape == (32, 64, 25, 5)


def test_benchmark_depthwise_forward(benchmark):
    """Depthwise 3x3 forward on the DS-CNN feature map (batch 32)."""
    x = Tensor(RNG.standard_normal((32, 64, 25, 5)).astype(np.float32))
    w = Tensor(RNG.standard_normal((64, 3, 3)).astype(np.float32) * 0.1)

    def forward():
        with no_grad():
            return depthwise_conv2d(x, w, stride=1, padding=1).data

    out = benchmark(forward)
    assert out.shape == (32, 64, 25, 5)


def test_benchmark_conv2d_backward(benchmark):
    """Conv forward+backward (training-step cost driver)."""
    x = Tensor(RNG.standard_normal((16, 1, 49, 10)).astype(np.float32), requires_grad=True)
    w = Tensor(RNG.standard_normal((64, 1, 10, 4)).astype(np.float32) * 0.1, requires_grad=True)

    def step():
        x.zero_grad()
        w.zero_grad()
        out = conv2d(x, w, stride=(2, 2), padding=(5, 1))
        out.sum().backward()
        return w.grad

    grad = benchmark(step)
    assert grad.shape == (64, 1, 10, 4)


def test_packed_kernel_gather_breakdown():
    """Per-kind gather share of a packed forward, bitwise-unperturbed.

    ``profile_kernels`` attributes the two ``_plane_sums`` passes behind
    every ternary matmul to the active layer kind — the latency-accounting
    substrate for bit-plane kernel work.  Profiling must never change the
    result, every kind must report, and a kind's gather time can never
    exceed its layer time.
    """
    model = STHybridNet(HybridConfig(width=8), rng=0)
    freeze_all(model)
    model.eval()
    packed = PackedModel(build_image(model))
    x = RNG.standard_normal((32, 49, 10)).astype(np.float32)
    want = packed(x)
    with profile_kernels() as profile:
        got = packed(x)
    np.testing.assert_array_equal(got, want)
    breakdown = profile.snapshot()
    assert {"conv", "dw", "pw", "linear"} <= set(breakdown)
    backend_name = packed.kernel_backend.name
    for kind, row in breakdown.items():
        assert row["layers"] > 0 and row["gather_calls"] > 0, kind
        assert 0.0 <= row["gather_s"] <= row["layer_s"], kind
        # every gather pass is attributed to the backend that ran it
        per_backend = row["backends"]
        assert backend_name in per_backend, (kind, per_backend)
        assert sum(b["gather_calls"] for b in per_backend.values()) == row["gather_calls"]
    record_metrics(
        "kernels",
        packed_profile={
            kind: {
                "layer_ms": row["layer_s"] * 1e3,
                "gather_ms": row["gather_s"] * 1e3,
                "gather_share": row["gather_s"] / row["layer_s"]
                if row["layer_s"]
                else 0.0,
            }
            for kind, row in breakdown.items()
        },
    )


def available_cpus() -> int:
    """CPUs this process may actually use (affinity-aware)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _ternary_values(rng, rows: int, cols: int, density: float) -> np.ndarray:
    """Random {-1, 0, +1} matrix with the requested nonzero density."""
    mask = rng.random((rows, cols)) < density
    signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(rows, cols))
    return (mask * signs).astype(np.int8)


def _mean_seconds(fn, inner: int) -> float:
    """Mean wall time of ``inner`` back-to-back calls."""
    start = time.perf_counter()
    for _ in range(inner):
        fn()
    return (time.perf_counter() - start) / inner


def _interleaved_speedups(reference_fn, fn, pairs: int = 7, inner: int = 4):
    """Per-pair speedups of ``fn`` over ``reference_fn``, timed A B A B ….

    Alternating the two inside every pair exposes both to the same host
    state, so drift hits each pair's numerator and denominator alike.
    Returns the backend's per-pair seconds and the per-pair speedups.
    """
    ref_s, backend_s = [], []
    for _ in range(pairs):
        ref_s.append(_mean_seconds(reference_fn, inner))
        backend_s.append(_mean_seconds(fn, inner))
    return np.array(backend_s), np.array(ref_s) / np.array(backend_s)


#: per-kind geometries shaped like the packed model's hot layers:
#: (batch rows M, transform rows R, input cols C, nonzero density).
#: ``linear`` is the tree layers' 64-feature -> r=12 transform at serving
#: batch; ``pw`` is a pointwise conv over its N*OH*OW patch rows; ``dw``
#: is a 64-channel 3x3 depthwise filter over its (M, C*9) patch matrix
#: (block-diagonal planes for the gather backends, taps for dense).
BACKEND_CASES = {
    "linear": (256, 12, 64, 0.9),
    "pw": (4000, 64, 64, 0.9),
    "dw": (2000, 64, 9, 0.9),
}
DW_KERNEL = (3, 3)


def test_backend_speedups():
    """Every registered backend against the reference, timed interleaved.

    ``reference`` and ``fused`` must match :func:`ternary_matmul` bit for
    bit; ``dense`` must stay within its stated bound
    (:func:`~repro.serving.kernels_fast.dense_error_bound`).  Timings are
    interleaved reference/backend pairs, recorded as median and IQR of the
    per-pair speedups.  The fused-backend floor on the linear and pw kinds
    only gates on >= ``MIN_GATE_CPUS`` machines (like the cluster benches)
    — below that the timings are still recorded, just not enforced.
    """
    rng = np.random.default_rng(7)
    results: dict = {}
    for kind, (m, rows, cols, density) in BACKEND_CASES.items():
        values = _ternary_values(rng, rows, cols, density)
        blob, shape = pack_ternary(values)
        planes = decode_planes(blob, shape)
        if kind == "dw":
            reference_planes = as_block_diagonal(planes, cols)
            # row c of the block-diagonal matrix holds filter c in columns c*9..c*9+8
            values = (np.eye(rows)[:, :, None] * values[:, None, :]).reshape(rows, -1)
        else:
            reference_planes = planes
        x = rng.standard_normal((m, reference_planes.cols)).astype(np.float32)
        want = ternary_matmul(x, reference_planes)
        for name in sorted(available_backends()):
            backend = get_backend(name)
            if kind == "dw":
                prepared = backend.prepare_depthwise(planes, DW_KERNEL)
            else:
                prepared = backend.prepare(planes)
            got = backend.matmul(x, prepared)
            if name == "dense":
                assert np.all(np.abs(got - want) <= dense_error_bound(x, values, cols)), kind
            else:
                np.testing.assert_array_equal(got, want, err_msg=f"{name}/{kind}")
            seconds, speedups = _interleaved_speedups(
                lambda: ternary_matmul(x, reference_planes),
                lambda: backend.matmul(x, prepared),
            )
            q25, median, q75 = np.percentile(speedups, [25, 50, 75])
            results.setdefault(name, {})[kind] = {
                "ms": float(np.median(seconds)) * 1e3,
                "speedup_vs_reference": float(median),
                "speedup_iqr": [float(q25), float(q75)],
                "pairs": len(speedups),
            }
    cpus = available_cpus()
    enforced = cpus >= MIN_GATE_CPUS
    record_metrics(
        "kernels",
        backends=results,
        backend_gate={
            "floor": FUSED_SPEEDUP_FLOOR,
            "kinds": ["linear", "pw"],
            "cpus": cpus,
            "enforced": enforced,
        },
    )
    if enforced:
        for kind in ("linear", "pw"):
            speedup = results["fused"][kind]["speedup_vs_reference"]
            assert speedup >= FUSED_SPEEDUP_FLOOR, (kind, speedup)


@pytest.mark.parametrize("layer_kind", ["dense", "strassen"])
def test_benchmark_linear_kinds(benchmark, layer_kind):
    """Dense vs strassenified 64→12 matmul layer (batch 256)."""
    x = Tensor(RNG.standard_normal((256, 64)).astype(np.float32))
    if layer_kind == "dense":
        layer = Linear(64, 12, rng=0)
    else:
        layer = StrassenLinear(64, 12, r=12, rng=0)
        layer.freeze()
    layer.eval()

    def forward():
        with no_grad():
            return layer(x).data

    out = benchmark(forward)
    assert out.shape == (256, 12)
