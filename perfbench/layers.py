"""Per-layer timings taken from outside the program, plus cost-model calibration.

Each named layer's plans come from the public ``decode_layer`` on the image
records and run through ``KernelBackend.matmul`` on inputs of the layer's
real shape, at batch 1 and batch 256.  Beside each timing sits the paper's
analytic cost (``repro.costmodel``) for the same layer, so the report reads
as measured time per predicted addition on this host.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import numpy as np

from repro.audio.mfcc import MFCC
from repro.costmodel import (
    strassen_conv2d_counts,
    strassen_depthwise_counts,
    strassen_linear_counts,
)
from repro.deploy.image import LayerRecord, ModelImage
from repro.evaluation.streaming import StreamingConfig
from repro.serving.kernels_fast import resolve_backend
from repro.serving.packed import PackedModel, decode_layer

from common import median_time_s

#: the named layers of the paper config; ``tree`` gathers every tree.* plan
NAMED_LAYERS = ("conv1", "ds0.dw", "ds0.pw", "ds1.dw", "ds1.pw", "tree")
BATCHES = (1, 256)
#: repetitions per timing: many cheap batch-1 calls, few batch-256 calls
REPS = {1: 25, 256: 3}
SETUP_REPS = 5


def _out_hw(hw: Tuple[int, int], record: LayerRecord) -> Tuple[int, int]:
    """Spatial output size of a conv-like record from its meta and kernel."""
    kh, kw = record.wb_shape[-2:]
    (sh, sw), (ph, pw) = record.meta["stride"], record.meta["padding"]
    return (hw[0] + 2 * ph - kh) // sh + 1, (hw[1] + 2 * pw - kw) // sw + 1


def layer_groups(image: ModelImage) -> Dict[str, List[Tuple[LayerRecord, int, int]]]:
    """Named layer -> its records, each with (positions per utterance, predicted adds).

    Adds follow the paper's convention (ternary matmuls counted dense) and
    leave out the bias/epilogue adds, which the kernels do not perform.
    """
    groups: Dict[str, List[Tuple[LayerRecord, int, int]]] = {name: [] for name in NAMED_LAYERS}
    hw = tuple(image.header["input_shape"])
    for record in image.layers:
        if record.kind == "linear":
            r, din = record.wb_shape
            adds = strassen_linear_counts(din, record.wc_shape[0], r, bias=False).adds
            groups["tree"].append((record, 1, adds))
            continue
        hw = _out_hw(hw, record)
        if record.kind == "dw":
            adds = strassen_depthwise_counts(
                record.wb_shape[0], record.wb_shape[1:], hw, bias=False
            ).adds
        else:
            r, cin, kh, kw = record.wb_shape
            adds = strassen_conv2d_counts(
                cin, record.wc_shape[0], (kh, kw), hw, r, bias=False
            ).adds
        groups[record.name].append((record, hw[0] * hw[1], adds))
    return groups


def kernel_metrics(image: ModelImage, rng: np.random.Generator) -> Dict[str, float]:
    """``kernel.<L>.*`` timings, adds, ns per add and computed bytes moved."""
    backend = resolve_backend(None)
    metrics: Dict[str, float] = {}
    for name, members in layer_groups(image).items():
        plans = [(decode_layer(record, backend), positions) for record, positions, _ in members]
        metrics[f"kernel.{name}.adds"] = sum(adds for _, _, adds in members)
        moved = 0
        total_ms = {batch: 0.0 for batch in BATCHES}
        for stage in ("wb", "wc"):
            stage_plans = [
                (getattr(p, stage), pos) for p, pos in plans if getattr(p, stage) is not None
            ]
            if not stage_plans:
                continue  # depthwise applies its w_c as a per-channel scale
            for batch in BATCHES:
                calls = [
                    (rng.standard_normal((pos * batch, planes.cols)).astype(np.float32), planes)
                    for planes, pos in stage_plans
                ]
                seconds = median_time_s(
                    lambda calls=calls: [backend.matmul(x, planes) for x, planes in calls],
                    REPS[batch],
                )
                metrics[f"kernel.{name}.{stage}.b{batch}_ms"] = seconds * 1e3
                total_ms[batch] += seconds * 1e3
            # computed, not measured: input + prepared planes + output, float32, batch 1
            moved += sum(
                4 * pos * (planes.cols + planes.rows) + planes.nbytes for planes, pos in stage_plans
            )
        metrics[f"kernel.{name}.bytes"] = moved
        for batch in BATCHES:
            adds = metrics[f"kernel.{name}.adds"] * batch
            metrics[f"kernel.{name}.ns_per_add.b{batch}"] = total_ms[batch] * 1e6 / adds
    return metrics


def packed_metrics(
    blob: bytes, kernel_ms: Dict[str, float], rng: np.random.Generator
) -> Dict[str, float]:
    """Deploy/decode cost, decoded size, and whole-forward vs kernel-sum time."""
    from_bytes_s = median_time_s(lambda: ModelImage.from_bytes(blob), SETUP_REPS)
    image = ModelImage.from_bytes(blob)
    decode_s = median_time_s(lambda: PackedModel(image), SETUP_REPS)
    model = PackedModel(image)
    metrics = {
        "deploy.from_bytes_ms": from_bytes_s * 1e3,
        "packed.decode_ms": decode_s * 1e3,
        "packed.decoded_bytes": model.decoded_bytes(),
    }
    shape = tuple(image.header["input_shape"])
    for batch in BATCHES:
        x = rng.standard_normal((batch, *shape)).astype(np.float32)
        forward_ms = median_time_s(lambda x=x: model(x), REPS[batch]) * 1e3
        kernels = sum(
            value for key, value in kernel_ms.items() if key.endswith(f".b{batch}_ms")
        )
        metrics[f"packed.forward.b{batch}_ms"] = forward_ms
        metrics[f"packed.other.b{batch}_ms"] = forward_ms - kernels
    return metrics


def mfcc_ms(rng: np.random.Generator) -> float:
    """Median ms of one 1-s analysis window through the streams' MFCC config."""
    config = StreamingConfig()
    extractor = MFCC(config.mfcc)
    window = rng.standard_normal(config.window_samples) * 0.1
    return median_time_s(lambda: extractor(window), 20) * 1e3


def layer_metrics(blob: bytes, seed: int) -> Dict[str, float]:
    """Every workload-independent per-layer metric, in one pass."""
    rng = np.random.default_rng([seed, 7])
    image = ModelImage.from_bytes(blob)
    start = time.perf_counter()
    metrics = kernel_metrics(image, rng)
    metrics.update(packed_metrics(blob, metrics, rng))
    metrics["audio.mfcc_ms"] = mfcc_ms(rng)
    print(f"[layers] measured in {time.perf_counter() - start:.1f} s", flush=True)
    return metrics
