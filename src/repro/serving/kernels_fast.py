"""Pluggable ternary kernel backends: fused gather and dense GEMM.

The reference kernel (:mod:`repro.serving.kernels`) executes a ternary
matmul as **two** gather-accumulate passes — one per sign plane — each
materialising its own scratch slab and walking the activations
independently.  This module makes the execution strategy pluggable: a
:class:`KernelBackend` registry (``"reference"`` / ``"fused"`` /
``"dense"``) selectable per :class:`~repro.serving.packed.PackedModel`
(``kernel=``), per cluster (``ClusterRouter(kernel=...)`` rides the
worker-init config so every replica runs the same backend) or
process-wide via the ``REPRO_KERNEL_BACKEND`` environment variable.

* :class:`FusedBackend` — **bitwise identical** to the reference: the +/−
  planes are concatenated into **one** index array at prepare time, so
  each matmul runs one gather, one ``reduceat`` over ``2 × rows`` segments,
  and one signed combine (``plus_half - minus_half``) instead of two full
  passes and two scratch slabs.  Orientation is adaptive: gather-heavy
  shapes transpose the activation chunk so ``reduceat`` runs along axis 0,
  where every accumulation step is a contiguous SIMD-friendly row addition
  — same summation order, measurably faster on the gather-dominated
  ``linear`` / ``pw`` layer kinds.
* :class:`DenseBackend` — the default.  The planes decode once into a
  float32 ``{-1, 0, +1}`` matrix and every matmul is a BLAS GEMM
  (``x @ W``); a depthwise filter stays a per-channel ``(KH, KW, C)`` tap
  array and runs as an elementwise tap sum.  BLAS reorders the sums, so
  dense is **not** bitwise equal to the reference.  Its contract instead:
  every output is within ``2 · n · eps · Σ|x·w|`` of the reference (``n``
  terms per output, ``eps`` the dtype's machine epsilon — the classic
  bound on two orderings of one sum; :func:`dense_error_bound`); a row's
  bits depend only on that row (deterministic, cached = on-the-fly,
  batch-invariant); and because it multiplies zero weights too, a
  non-finite activation gives ``NaN`` (``0 · inf``) where the gather
  would skip it.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import Dict, Tuple, Union

import numpy as np

from repro.errors import ConfigError
from repro.serving.kernels import (
    TernaryPlanes,
    as_block_diagonal,
    gather_chunk_rows,
    get_kernel_profile,
    ternary_matmul,
)

#: environment variable naming the process-wide default backend
ENV_KERNEL_BACKEND = "REPRO_KERNEL_BACKEND"

#: registry default when the environment does not override it
DEFAULT_BACKEND_NAME = "dense"

#: rows of every dense GEMM call (the tail block is zero-padded): see
#: :func:`_row_blocked_matmul`
GEMM_BLOCK_ROWS = 128

#: output bytes per depthwise tap-sum chunk: the running sum plus its
#: product scratch fit in a core's L2 (64–512 KB all measured alike)
TAP_CHUNK_BYTES = 256 * 1024

# --------------------------------------------------------------------------- #
# prepared plane layouts
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class FusedPlanes:
    """Both sign planes of one ternary matrix as a single segment array.

    ``indices`` is the reference's ``plus_indices`` and ``minus_indices``
    back to back; segment ``j < rows`` is row ``j``'s +1 columns and
    segment ``rows + j`` its −1 columns, delimited by ``bounds`` (the 2 ×
    rows segment starts).  ``empty`` lists the segments with no entries —
    ``reduceat`` emits a stray element for those, which the matmul zeroes —
    with ``nonempty`` / ``nonempty_bounds`` the prepare-time complement the
    hot path reduces over (fixed per layout, so never recomputed per call).
    """

    rows: int
    cols: int
    indices: np.ndarray
    bounds: np.ndarray
    empty: np.ndarray
    nonempty: np.ndarray
    nonempty_bounds: np.ndarray

    @property
    def nnz(self) -> int:
        """Non-zero weights across both sign planes."""
        return int(self.indices.size)

    @property
    def nbytes(self) -> int:
        """Decoded in-memory footprint of the fused layout."""
        return (
            self.indices.nbytes
            + self.bounds.nbytes
            + self.empty.nbytes
            + self.nonempty.nbytes
            + self.nonempty_bounds.nbytes
        )


@dataclass(frozen=True)
class DenseMatrix:
    """A ternary matrix decoded to float32 ``{-1, 0, +1}``, ``(cols, rows)``.

    Stored transposed so the transform is a plain ``x @ weights``.
    """

    weights: np.ndarray

    @property
    def rows(self) -> int:
        """Output rows of the ternary transform."""
        return self.weights.shape[1]

    @property
    def cols(self) -> int:
        """Input columns the transform reads."""
        return self.weights.shape[0]

    @property
    def nbytes(self) -> int:
        """Decoded in-memory footprint of the dense matrix."""
        return self.weights.nbytes


@dataclass(frozen=True)
class DepthwiseTaps:
    """A depthwise ternary filter as ``(KH, KW, C)`` float32 taps.

    ``taps[i, j]`` is the contiguous per-channel weight vector of tap
    ``(i, j)``.  As a matmul plan it reads the ``(M, C·KH·KW)`` patch
    matrix (``cols``) and yields one value per channel (``rows``).
    """

    taps: np.ndarray

    @property
    def rows(self) -> int:
        """Output channels."""
        return self.taps.shape[2]

    @property
    def cols(self) -> int:
        """Patch-matrix columns: channels × taps."""
        return self.taps.size

    @property
    def nbytes(self) -> int:
        """Decoded in-memory footprint of the taps."""
        return self.taps.nbytes


def _fuse(planes: TernaryPlanes) -> FusedPlanes:
    """Concatenate a plane pair into the single-gather segment layout."""
    indices = np.concatenate([planes.plus_indices, planes.minus_indices])
    starts = np.concatenate(
        [planes.plus_ptr[:-1], planes.plus_indices.size + planes.minus_ptr[:-1]]
    ).astype(np.intp)
    ends = np.concatenate(
        [planes.plus_ptr[1:], planes.plus_indices.size + planes.minus_ptr[1:]]
    ).astype(np.intp)
    lengths = ends - starts
    nonempty = np.flatnonzero(lengths)
    return FusedPlanes(
        rows=planes.rows,
        cols=planes.cols,
        indices=np.ascontiguousarray(indices, dtype=np.intp),
        bounds=np.ascontiguousarray(starts),
        empty=np.flatnonzero(lengths == 0),
        nonempty=nonempty,
        nonempty_bounds=np.ascontiguousarray(starts[nonempty]),
    )


def _check_cols(x: np.ndarray, prepared) -> None:
    """Reject shape mismatches with the reference kernel's message."""
    if x.shape[1] != prepared.cols:
        raise ValueError(
            f"input has {x.shape[1]} features, planes expect {prepared.cols}"
        )


# --------------------------------------------------------------------------- #
# backends
# --------------------------------------------------------------------------- #


class KernelBackend:
    """One ternary-matmul execution strategy.

    ``prepare`` runs once per decoded plane pair (at
    :class:`~repro.serving.packed.PackedModel` decode time) and returns the
    backend's plan-resident layout; ``matmul`` is the hot path.  The
    prepared object exposes ``rows`` / ``cols`` / ``nbytes`` so plan byte
    accounting stays honest, and ``matmul`` accepts any ``(M, cols)``
    input for every layer kind, depthwise included.

    Depthwise filters get their own pair of hooks.  The default runs them
    through the plain matmul over block-diagonal planes (each channel's
    gather confined to its own ``KH·KW`` patch columns); a backend with a
    cheaper per-channel form overrides both.
    """

    #: registry key; subclasses override
    name = "abstract"

    def prepare(self, planes: TernaryPlanes):
        """Build the backend's plan-resident layout for one plane pair."""
        raise NotImplementedError

    def matmul(self, x: np.ndarray, prepared) -> np.ndarray:
        """``x @ W.T`` against the prepared ternary layout."""
        raise NotImplementedError

    def prepare_depthwise(self, planes: TernaryPlanes, kernel: Tuple[int, int]):
        """Plan for a ``(C, KH·KW)`` depthwise filter: block-diagonal planes."""
        kh, kw = kernel
        return self.prepare(as_block_diagonal(planes, kh * kw))

    def depthwise(self, windows: np.ndarray, prepared) -> np.ndarray:
        """Filter ``(..., C, KH, KW)`` windows channel by channel → ``(..., C)``.

        The default copies the window view into the ``(M, C·KH·KW)`` patch
        matrix and runs :meth:`matmul` on it.
        """
        lead = windows.shape[:-3]
        patches = windows.reshape(math.prod(lead), prepared.cols)
        return self.matmul(patches, prepared).reshape(*lead, prepared.rows)

    def _record(self, start_s: float, profile) -> None:
        """Attribute one fused pass to this backend in the active profile."""
        if profile is not None:
            profile.record_gather(time.perf_counter() - start_s, self.name)


class ReferenceBackend(KernelBackend):
    """The two-pass reference kernel, unchanged — the identity baseline."""

    name = "reference"

    def prepare(self, planes: TernaryPlanes) -> TernaryPlanes:
        """The reference executes straight off the CSR planes."""
        return planes

    def matmul(self, x: np.ndarray, prepared: TernaryPlanes) -> np.ndarray:
        """Two gather-accumulate passes (profiling is recorded inside)."""
        return ternary_matmul(x, prepared)


class FusedBackend(KernelBackend):
    """Single-pass gather: one scratch slab, one ``reduceat``, one combine.

    ``layout`` picks the gather orientation: ``"batch"`` gathers
    ``x[chunk, indices]`` and reduces along axis 1 (the reference's
    orientation), ``"feature"`` transposes the activation chunk and reduces
    along axis 0 — every accumulation step is then a contiguous row-wise
    vector add, which wins whenever the gather volume amortises the
    transpose.  ``"auto"`` (default) chooses per call from the measured
    heuristic: feature-major when the plane has at least as many non-zeros
    as input columns *and* segments are long enough to vectorise.

    Both orientations perform the per-segment additions in the exact same
    left-to-right order, so the choice never changes a single output bit.
    """

    name = "fused"

    #: ``"auto"`` needs segments at least this long before the axis-0
    #: vector adds beat the reference's axis-1 scalar loop
    MIN_VECTOR_SEGMENT = 8

    def __init__(self, layout: str = "auto") -> None:
        if layout not in ("auto", "batch", "feature"):
            raise ConfigError(
                f"unknown fused layout {layout!r}: pick auto, batch or feature"
            )
        self.layout = layout

    def prepare(self, planes: TernaryPlanes) -> FusedPlanes:
        """Concatenate the sign planes into the single-gather layout."""
        return _fuse(planes)

    def matmul(self, x: np.ndarray, prepared: FusedPlanes) -> np.ndarray:
        """One gather + one ``reduceat`` + one signed combine."""
        _check_cols(x, prepared)
        profile = get_kernel_profile()
        start = time.perf_counter() if profile is not None else 0.0
        out = self._segment_sums(x, prepared)
        result = out[:, : prepared.rows] - out[:, prepared.rows :]
        self._record(start, profile)
        return result

    def _feature_major(self, x: np.ndarray, prepared: FusedPlanes) -> bool:
        """The orientation heuristic (overridable via ``layout=``)."""
        if self.layout != "auto":
            return self.layout == "feature"
        segments = 2 * prepared.rows
        if not segments:
            return False
        return (
            prepared.nnz >= prepared.cols
            and prepared.nnz // segments >= self.MIN_VECTOR_SEGMENT
        )

    def _segment_sums(self, x: np.ndarray, prepared: FusedPlanes) -> np.ndarray:
        """The ``(M, 2 * rows)`` per-segment sums, empty segments zeroed."""
        segments = 2 * prepared.rows
        if prepared.nnz == 0 or x.shape[0] == 0:
            return np.zeros((x.shape[0], segments), dtype=x.dtype)
        if self._feature_major(x, prepared):
            return self._sums_feature_major(x, prepared)
        return self._sums_batch_major(x, prepared)

    def _sums_batch_major(self, x: np.ndarray, prepared: FusedPlanes) -> np.ndarray:
        """Gather ``x[chunk, indices]`` and reduce along axis 1."""
        segments = 2 * prepared.rows
        out = np.empty((x.shape[0], segments), dtype=x.dtype)
        # scratch per batch row: the gathered slab + the reduceat output
        chunk = gather_chunk_rows(prepared.nnz + segments, x.dtype.itemsize)
        if prepared.empty.size == 0:
            # every bound starts a real segment, so reduceat can write
            # straight into the output — no scatter pass
            for lo in range(0, x.shape[0], chunk):
                gathered = x[lo : lo + chunk, prepared.indices]
                np.add.reduceat(gathered, prepared.bounds, axis=1, out=out[lo : lo + chunk])
            return out
        # empty segments would make reduceat read past the index array (a
        # trailing empty bound equals nnz) or emit strays — reduce only the
        # populated segments and scatter, exactly like the reference
        nonempty = prepared.nonempty
        bounds = prepared.nonempty_bounds
        out[:] = 0
        for lo in range(0, x.shape[0], chunk):
            gathered = x[lo : lo + chunk, prepared.indices]
            out[lo : lo + chunk, nonempty] = np.add.reduceat(gathered, bounds, axis=1)
        return out

    def _sums_feature_major(self, x: np.ndarray, prepared: FusedPlanes) -> np.ndarray:
        """Transpose the chunk, gather whole rows, reduce along axis 0.

        ``reduceat`` along the leading axis accumulates full contiguous
        batch rows per step — SIMD-width adds instead of per-element scalar
        loops — while visiting each segment's entries in the identical
        order, so the sums are bit-for-bit the batch-major ones.
        """
        segments = 2 * prepared.rows
        out = np.empty((x.shape[0], segments), dtype=x.dtype)
        # scratch per batch row: transposed copy + gathered slab + reduce out
        chunk = gather_chunk_rows(
            prepared.nnz + segments + prepared.cols, x.dtype.itemsize
        )
        if prepared.empty.size == 0:
            nonempty = None
            bounds = prepared.bounds
        else:
            nonempty = prepared.nonempty
            bounds = prepared.nonempty_bounds
            out[:] = 0
        for lo in range(0, x.shape[0], chunk):
            xt = np.ascontiguousarray(x[lo : lo + chunk].T)
            gathered = xt[prepared.indices]
            sums = np.add.reduceat(gathered, bounds, axis=0)
            if nonempty is None:
                out[lo : lo + chunk] = sums.T
            else:
                out[lo : lo + chunk, nonempty] = sums.T
        return out


def _dense_values(planes: TernaryPlanes) -> np.ndarray:
    """The ``(rows, cols)`` float32 ``{-1, 0, +1}`` matrix of a plane pair."""
    values = np.zeros((planes.rows, planes.cols), dtype=np.float32)
    for indices, ptr, sign in (
        (planes.plus_indices, planes.plus_ptr, 1.0),
        (planes.minus_indices, planes.minus_ptr, -1.0),
    ):
        values[np.repeat(np.arange(planes.rows), np.diff(ptr)), indices] = sign
    return values


def _row_blocked_matmul(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``x @ weights`` as GEMM calls of exactly :data:`GEMM_BLOCK_ROWS` rows.

    BLAS chooses its kernel by problem size, and the kernels round
    differently: OpenBLAS 0.3.31 (AVX-512) switches sgemm kernels near
    ``M·N·K = 10**6``, which changes the bits of a width-8 conv1 row once
    a batch reaches ~32 utterances, and numpy hands single-row products to
    gemv.  Running every call at one fixed shape — the tail block
    zero-padded — makes a row's result depend on that row alone, so the
    dense backend is batch-invariant by construction.
    """
    x = np.ascontiguousarray(x)
    m = x.shape[0]
    out = np.empty((m, weights.shape[1]), dtype=np.result_type(x, weights))
    block = GEMM_BLOCK_ROWS
    full = m - m % block
    for lo in range(0, full, block):
        np.matmul(x[lo : lo + block], weights, out=out[lo : lo + block])
    if full < m:
        tail = np.zeros((block, x.shape[1]), dtype=x.dtype)
        tail[: m - full] = x[full:]
        out[full:] = (tail @ weights)[: m - full]
    return out


def _tap_sum(windows: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Depthwise filter as ``Σ_ij windows[..., i, j] * taps[i, j]`` → ``(..., C)``.

    ``windows`` is ``(..., C, KH, KW)`` — a strided window view works as
    is — and the taps accumulate in row-major order through in-place
    multiply / add.  Every output depends only on its own window, so the
    leading axis is processed in :data:`TAP_CHUNK_BYTES` chunks whose
    running sum stays in cache across the ``KH·KW`` passes (~1.3× on a
    batch-256 paper-config forward) without changing a bit.
    """
    kh, kw, _ = taps.shape
    alloc = np.empty if kh * kw else np.zeros
    out = alloc(windows.shape[:-2], dtype=np.result_type(windows, taps))
    rows = max(1, TAP_CHUNK_BYTES // max(1, out[:1].nbytes))
    scratch = np.empty_like(out[:rows])
    for lo in range(0, out.shape[0], rows):
        window, acc = windows[lo : lo + rows], out[lo : lo + rows]
        product = scratch[: acc.shape[0]]
        for tap, (i, j) in enumerate(np.ndindex(kh, kw)):
            if tap == 0:
                np.multiply(window[..., i, j], taps[i, j], out=acc)
            else:
                np.multiply(window[..., i, j], taps[i, j], out=product)
                np.add(acc, product, out=acc)
    return out


def dense_error_bound(x: np.ndarray, values: np.ndarray, terms: int) -> np.ndarray:
    """The dense contract as numbers: ``2 · n · eps · Σ|x·w|`` per output.

    ``values`` is the ``(rows, cols)`` ternary matrix and ``terms`` the
    number ``n`` of products each output sums (``cols``, or the taps of a
    depthwise filter).  Both the reference and the dense backend add the
    same exact products (``w`` is ±1 or 0), each within
    ``γ_n · Σ|x·w|`` of the exact sum whatever the order; integer inputs
    are exact, so their bound is zero.
    """
    eps = np.finfo(x.dtype).eps if np.issubdtype(x.dtype, np.floating) else 0.0
    magnitude = np.abs(x.astype(np.float64)) @ np.abs(values.astype(np.float64)).T
    return 2 * terms * eps * magnitude


class DenseBackend(KernelBackend):
    """BLAS GEMM against the decoded ``{-1, 0, +1}`` matrix; tap sums for depthwise.

    Not bitwise equal to the reference — see the module docstring for the
    contract this backend keeps instead.  Inputs of a dtype other than
    float32 multiply against the weights cast to theirs, so the result
    keeps ``x``'s dtype as in the reference (integer inputs stay exact).
    """

    name = "dense"

    def prepare(self, planes: TernaryPlanes) -> DenseMatrix:
        """Decode the planes once into the ``(cols, rows)`` float32 matrix."""
        return DenseMatrix(np.ascontiguousarray(_dense_values(planes).T))

    def prepare_depthwise(self, planes: TernaryPlanes, kernel: Tuple[int, int]) -> DepthwiseTaps:
        """Per-channel taps instead of a block-diagonal matrix of mostly zeros."""
        kh, kw = kernel
        taps = _dense_values(planes).reshape(planes.rows, kh, kw).transpose(1, 2, 0)
        return DepthwiseTaps(np.ascontiguousarray(taps))

    def matmul(self, x: np.ndarray, prepared) -> np.ndarray:
        """Row-blocked GEMM; a depthwise plan tap-sums the reshaped patches."""
        _check_cols(x, prepared)
        if isinstance(prepared, DepthwiseTaps):
            kh, kw, c = prepared.taps.shape
            return self.depthwise(x.reshape(x.shape[0], c, kh, kw), prepared)
        profile = get_kernel_profile()
        start = time.perf_counter() if profile is not None else 0.0
        out = _row_blocked_matmul(x, prepared.weights.astype(x.dtype, copy=False))
        self._record(start, profile)
        return out

    def depthwise(self, windows: np.ndarray, prepared: DepthwiseTaps) -> np.ndarray:
        """The per-channel tap sum, straight off the window view."""
        profile = get_kernel_profile()
        start = time.perf_counter() if profile is not None else 0.0
        out = _tap_sum(windows, prepared.taps.astype(windows.dtype, copy=False))
        self._record(start, profile)
        return out


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #

_REGISTRY: Dict[str, KernelBackend] = {}


def register_backend(backend: KernelBackend, *, replace: bool = False) -> KernelBackend:
    """Add a backend to the registry under ``backend.name``; returns it.

    Registering over an existing name needs ``replace=True`` — silent
    shadowing of a measured backend is how perf regressions hide.
    """
    if not replace and backend.name in _REGISTRY:
        raise ConfigError(f"kernel backend {backend.name!r} is already registered")
    _REGISTRY[backend.name] = backend
    return backend


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, registration order."""
    return tuple(_REGISTRY)


def get_backend(name: str) -> KernelBackend:
    """Look up a registered backend by name."""
    backend = _REGISTRY.get(name)
    if backend is None:
        raise ConfigError(
            f"unknown kernel backend {name!r}: available {sorted(_REGISTRY)}"
        )
    return backend


def default_backend_name() -> str:
    """The process default: ``$REPRO_KERNEL_BACKEND`` or ``"dense"``."""
    return os.environ.get(ENV_KERNEL_BACKEND) or DEFAULT_BACKEND_NAME


def resolve_backend(kernel: Union[str, KernelBackend, None] = None) -> KernelBackend:
    """Resolve a ``kernel=`` argument: instance, registered name, or default."""
    if kernel is None:
        return get_backend(default_backend_name())
    if isinstance(kernel, KernelBackend):
        return kernel
    if isinstance(kernel, str):
        return get_backend(kernel)
    raise ConfigError(
        f"kernel must be a backend name or KernelBackend, got {type(kernel).__name__}"
    )


def registered_backend_name(kernel: Union[str, KernelBackend, None] = None) -> str:
    """Resolve ``kernel`` to a name that re-resolves identically elsewhere.

    Worker pools ship the backend across the process boundary as a registry
    *name* (instances don't survive spawn pickling), so an instance is only
    acceptable when it **is** the registered backend for its name — a
    configured instance (``FusedBackend(layout="feature")``) would
    otherwise silently run as the registered default in every worker, and
    an unregistered custom backend would fail every model load.
    """
    backend = resolve_backend(kernel)
    if isinstance(kernel, KernelBackend) and _REGISTRY.get(backend.name) is not backend:
        raise ConfigError(
            f"worker pools ship kernel backends by registered name, and "
            f"{backend.name!r} does not resolve back to the instance passed: "
            "pass a registered backend name instead (workers re-resolve the "
            "name in their own process, so a configured instance would not "
            "survive the trip)"
        )
    return backend.name


register_backend(ReferenceBackend())
register_backend(FusedBackend())
register_backend(DenseBackend())


__all__ = [
    "ENV_KERNEL_BACKEND",
    "DEFAULT_BACKEND_NAME",
    "GEMM_BLOCK_ROWS",
    "DenseMatrix",
    "DepthwiseTaps",
    "FusedPlanes",
    "KernelBackend",
    "ReferenceBackend",
    "FusedBackend",
    "DenseBackend",
    "available_backends",
    "default_backend_name",
    "dense_error_bound",
    "get_backend",
    "register_backend",
    "registered_backend_name",
    "resolve_backend",
]
