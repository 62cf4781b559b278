"""Ternary kernel backends: the reference gather and the dense GEMM.

The reference kernel (:mod:`repro.serving.kernels`) executes a ternary
matmul as **two** gather-accumulate passes — one per sign plane.  This
module puts it beside the served kernel in a fixed table of two backends
(:class:`KernelBackend`), ``"reference"`` and ``"dense"``, selectable per
:class:`~repro.serving.packed.PackedModel` (``kernel=``) or per cluster
(``ClusterRouter(kernel=...)`` ships the *name* in the worker-init config
so every replica runs the same backend).  ``kernel=None`` means
``"dense"``.

* :class:`ReferenceBackend` — the two-pass gather, unchanged: the oracle
  the tests and the serving benchmark check every other output against.
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
import time
from dataclasses import dataclass
from typing import Dict, Tuple, Union

import numpy as np

from repro.errors import ConfigError
from repro.serving.kernels import (
    TernaryPlanes,
    as_block_diagonal,
    get_kernel_profile,
    ternary_matmul,
)

#: the backend ``kernel=None`` resolves to
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

    #: backend-table key; subclasses override
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
        """Attribute one kernel pass to this backend in the active profile."""
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
# backend table
# --------------------------------------------------------------------------- #

#: the two backends, by name: the oracle and the served default
_BACKENDS: Dict[str, KernelBackend] = {
    backend.name: backend for backend in (ReferenceBackend(), DenseBackend())
}


def available_backends() -> Tuple[str, ...]:
    """The backend names: ``("reference", "dense")``."""
    return tuple(_BACKENDS)


def get_backend(name: str) -> KernelBackend:
    """Look up a backend by name."""
    backend = _BACKENDS.get(name)
    if backend is None:
        raise ConfigError(
            f"unknown kernel backend {name!r}: available {sorted(_BACKENDS)}"
        )
    return backend


def resolve_backend(kernel: Union[str, KernelBackend, None] = None) -> KernelBackend:
    """Resolve a ``kernel=`` argument: instance, backend name, or ``"dense"``."""
    if kernel is None:
        return get_backend(DEFAULT_BACKEND_NAME)
    if isinstance(kernel, KernelBackend):
        return kernel
    if isinstance(kernel, str):
        return get_backend(kernel)
    raise ConfigError(
        f"kernel must be a backend name or KernelBackend, got {type(kernel).__name__}"
    )


__all__ = [
    "DEFAULT_BACKEND_NAME",
    "GEMM_BLOCK_ROWS",
    "DenseMatrix",
    "DepthwiseTaps",
    "KernelBackend",
    "ReferenceBackend",
    "DenseBackend",
    "available_backends",
    "dense_error_bound",
    "get_backend",
    "resolve_backend",
]
