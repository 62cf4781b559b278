"""Cached packed-ternary runtime for ST-HybridNet model images.

:class:`PackedModel` is the serving-side counterpart of
:class:`repro.deploy.interpreter.ImageInterpreter`: it consumes the same
:class:`~repro.deploy.image.ModelImage` bytes, but decodes each layer's
2-bit blobs **once** into the kernel backend's execution layout — bit
planes for the gather backends (:mod:`repro.serving.kernels`), a
``{-1, 0, +1}`` float32 matrix for the dense default — so no call unpacks
anything.  Activations travel channels-last (NHWC) through every layer: a
convolution's window view then already has its columns in the ternary
transforms' ``(C, KH, KW)`` order, and a 1×1 pointwise conv is a reshape.

``cache=False`` keeps the microcontroller-faithful on-the-fly semantics
(decode on every call, nothing resident beyond the image) through the very
same kernels, so both modes are bitwise identical; the only difference is
when decoding happens.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.deploy.image import LayerRecord, ModelImage
from repro.deploy.packing import unpack_ternary
from repro.errors import ConfigError
from repro.serving.kernels import decode_planes, get_kernel_profile
from repro.serving.kernels_fast import KernelBackend, get_backend, resolve_backend


def _profiled(method):
    """Attribute a layer method's gather passes to its plan kind.

    With no profile installed this is one global load per layer call;
    with one, the wrapped call runs under ``profile.layer(plan.kind)``
    so nested ``_plane_sums`` timings land on the right kind.  Timing
    never touches the numerics — profiled and unprofiled calls are
    bitwise identical.
    """

    @functools.wraps(method)
    def wrapper(self, plan, x):
        profile = get_kernel_profile()
        if profile is None:
            return method(self, plan, x)
        with profile.layer(plan.kind):
            return method(self, plan, x)

    return wrapper


@dataclass(frozen=True)
class LayerPlan:
    """One decoded layer: bit-plane transforms + float tables, forward-ready.

    ``wb`` / ``wc`` hold the *backend-prepared* layout — the plain CSR
    :class:`~repro.serving.kernels.TernaryPlanes` for the reference
    backend, a fused segment layout or a dense matrix (per-channel taps for
    a depthwise ``wb``) for the others — so a plan only ever executes on
    the backend that decoded it.
    """

    kind: str  # "conv" | "dw" | "pw" | "linear"
    meta: Dict[str, object]
    wb: object  # backend-prepared planes
    kernel: Tuple[int, int]  # (KH, KW); (1, 1) for linear
    wc: Optional[object]  # None for depthwise (per-channel scalar w_c)
    wc_vector: Optional[np.ndarray]  # the depthwise per-channel ternary w_c
    a_hat: np.ndarray
    out_scale: np.ndarray
    out_shift: np.ndarray

    @property
    def nbytes(self) -> int:
        """Resident bytes of the decoded plan (planes + float tables)."""
        total = self.wb.nbytes + (self.wc.nbytes if self.wc is not None else 0)
        if self.wc_vector is not None:
            total += self.wc_vector.nbytes
        return total + self.a_hat.nbytes + self.out_scale.nbytes + self.out_shift.nbytes


def decode_layer(record: LayerRecord, backend: Optional[KernelBackend] = None) -> LayerPlan:
    """Decode one :class:`LayerRecord` into an executable :class:`LayerPlan`.

    ``backend`` prepares the decoded planes into its execution layout; the
    default is the reference backend, whose prepared layout *is* the CSR
    planes — existing callers keep seeing ``TernaryPlanes`` on the plan.
    """
    if backend is None:
        backend = get_backend("reference")
    if record.kind == "dw":
        # (C, KH, KW): one KH*KW-tap filter per channel
        _, kh, kw = record.wb_shape
        wb = backend.prepare_depthwise(
            decode_planes(record.wb_blob, record.wb_shape), (kh, kw)
        )
        wc_planes = None
        wc_vector = unpack_ternary(record.wc_blob, record.wc_shape).astype(np.float32)
    else:
        shape = record.wb_shape
        kh, kw = (shape[2], shape[3]) if len(shape) == 4 else (1, 1)
        wb = backend.prepare(decode_planes(record.wb_blob, shape))
        wc_planes = decode_planes(record.wc_blob, record.wc_shape)
        wc_vector = None
    return LayerPlan(
        kind=record.kind,
        meta=record.meta,
        wb=wb,
        kernel=(kh, kw),
        wc=None if wc_planes is None else backend.prepare(wc_planes),
        wc_vector=wc_vector,
        a_hat=record.a_hat,
        out_scale=record.out_scale,
        out_shift=record.out_shift,
    )


def _conv_windows(x: np.ndarray, kh: int, kw: int, stride, padding) -> np.ndarray:
    """(N, OH, OW, C, KH, KW) window view of a zero-padded NHWC activation."""
    sh, sw = stride
    ph, pw = padding
    if ph or pw:
        x = np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    return sliding_window_view(x, (kh, kw), axis=(1, 2))[:, ::sh, ::sw]


def _conv_patches(x: np.ndarray, kh: int, kw: int, stride, padding) -> np.ndarray:
    """(N, OH, OW, C*KH*KW) patch matrix of an NHWC activation.

    A 1×1 stride-1 unpadded conv reads the activation as it is; any other
    window view is copied once into the patch matrix (im2col).
    """
    if (kh, kw) == (1, 1) and tuple(stride) == (1, 1) and not any(padding):
        return x
    windows = _conv_windows(x, kh, kw, stride, padding)
    return windows.reshape(*windows.shape[:3], math.prod(windows.shape[3:]))


def _epilogue(out: np.ndarray, scale, shift, relu) -> np.ndarray:
    """``out * scale + shift``, ReLU'd when asked — in place on a fresh array."""
    out *= scale
    out += shift
    return np.maximum(out, 0.0, out=out) if relu else out


class PackedModel:
    """Executes an ST-HybridNet model image from packed bit-planes.

    ``cache=True`` decodes every layer once at construction; ``cache=False``
    re-decodes per call (the deploy-image reference semantics).  ``kernel``
    selects the execution backend from the
    :mod:`repro.serving.kernels_fast` registry — a registered name, a
    :class:`~repro.serving.kernels_fast.KernelBackend` instance, or
    ``None`` for the process default (``$REPRO_KERNEL_BACKEND``, falling
    back to the dense GEMM backend).  ``"fused"`` is bitwise identical to
    ``"reference"``; ``"dense"`` keeps the tolerance contract stated in
    :mod:`repro.serving.kernels_fast`.
    Instances are read-only after construction and safe to share across
    threads.
    """

    def __init__(
        self,
        image: ModelImage,
        cache: bool = True,
        kernel: Union[str, KernelBackend, None] = None,
    ) -> None:
        if image.header.get("arch") != "st-hybrid":
            raise ConfigError(f"unsupported arch {image.header.get('arch')!r}")
        self.image = image
        self.header = image.header
        self.cache = cache
        self.kernel_backend = resolve_backend(kernel)
        self._records: Dict[str, LayerRecord] = {r.name: r for r in image.layers}
        self._plans: Optional[Dict[str, LayerPlan]] = (
            {name: decode_layer(r, self.kernel_backend) for name, r in self._records.items()}
            if cache
            else None
        )
        # plans are fixed for the instance's lifetime, so the size is too
        self._decoded_bytes = (
            0 if self._plans is None else sum(plan.nbytes for plan in self._plans.values())
        )

    def _plan(self, name: str) -> LayerPlan:
        if self._plans is not None:
            return self._plans[name]
        return decode_layer(self._records[name], self.kernel_backend)

    def decoded_bytes(self) -> int:
        """Resident size of all cached plans (0 in on-the-fly mode)."""
        return self._decoded_bytes

    # -- layer kernels --------------------------------------------------- #

    @_profiled
    def _conv(self, plan: LayerPlan, x: np.ndarray) -> np.ndarray:
        """Strassen conv/pointwise: patches → ternary W_b → ⊙â → ternary W_c."""
        kh, kw = plan.kernel
        meta = plan.meta
        matmul = self.kernel_backend.matmul
        patches = _conv_patches(x, kh, kw, meta["stride"], meta["padding"])
        n, oh, ow, d = patches.shape
        hidden = matmul(patches.reshape(n * oh * ow, d), plan.wb)  # additions only
        hidden *= plan.a_hat  # the r multiplications
        out = matmul(hidden, plan.wc)  # additions only
        out = _epilogue(out, plan.out_scale, plan.out_shift, meta.get("relu"))
        return out.reshape(n, oh, ow, out.shape[1])

    @_profiled
    def _depthwise(self, plan: LayerPlan, x: np.ndarray) -> np.ndarray:
        """Grouped-SPN depthwise: ternary per-channel filter → ⊙(â·w_c)."""
        kh, kw = plan.kernel
        meta = plan.meta
        windows = _conv_windows(x, kh, kw, meta["stride"], meta["padding"])
        hidden = self.kernel_backend.depthwise(windows, plan.wb)  # (N, OH, OW, C)
        scale = plan.a_hat * plan.wc_vector * plan.out_scale
        return _epilogue(hidden, scale, plan.out_shift, meta.get("relu"))

    @_profiled
    def _linear(self, plan: LayerPlan, z: np.ndarray) -> np.ndarray:
        """Strassen matmul on feature vectors (tree nodes)."""
        matmul = self.kernel_backend.matmul
        hidden = matmul(z, plan.wb) * plan.a_hat
        out = matmul(hidden, plan.wc)
        return out * plan.out_scale + plan.out_shift

    # -- full network ----------------------------------------------------- #

    def features(self, x: np.ndarray) -> np.ndarray:
        """Conv feature extractor: (N, T, F) → (N, width)."""
        x = np.asarray(x, dtype=np.float32)
        if x.ndim == 2:
            x = x[None]
        x = x[..., None]  # NHWC, one input channel
        x = self._conv(self._plan("conv1"), x)
        for i in range(self.header["num_conv_layers"] - 1):
            x = self._depthwise(self._plan(f"ds{i}.dw"), x)
            x = self._conv(self._plan(f"ds{i}.pw"), x)
        return x.mean(axis=(1, 2))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Full inference: MFCC batch → (N, num_labels) class scores."""
        z = self.features(x)
        depth = self.header["tree_depth"]
        num_nodes = 2 ** (depth + 1) - 1
        num_internal = 2**depth - 1
        sigma = self.header["prediction_sigma"]
        n = z.shape[0]

        weights: List[np.ndarray] = [np.zeros((n, 1))] * num_nodes
        weights[0] = np.ones((n, 1), dtype=np.float32)
        for k in range(num_internal):
            theta = self._linear(self._plan(f"tree.theta{k}"), z)
            go_left = (theta > 0).astype(np.float32)
            weights[2 * k + 1] = weights[k] * go_left
            weights[2 * k + 2] = weights[k] * (1.0 - go_left)

        scores = np.zeros((n, self.header["num_labels"]), dtype=np.float32)
        for k in range(num_nodes):
            w_score = self._linear(self._plan(f"tree.w{k}"), z)
            v_score = self._linear(self._plan(f"tree.v{k}"), z)
            scores += weights[k] * w_score * np.tanh(sigma * v_score)
        return scores

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Argmax labels for a batch."""
        return np.argmax(self(x), axis=-1)
