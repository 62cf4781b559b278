"""Shared set-up for the serving benchmark: the paper-config image, reference
outputs, process CPU/memory readings, layer timing helpers and provenance.

Everything here calls the program through its public API only.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import platform
import resource
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.core.hybrid import HybridConfig, STHybridNet
from repro.core.strassen import freeze_all
from repro.deploy import build_image
from repro.deploy.image import ModelImage
from repro.serving.kernels_fast import resolve_backend
from repro.serving.packed import PackedModel

#: float32 score tolerance, relative to a row's largest reference score: a
#: reordered float32 sum over a few hundred terms moves scores by ~1e-6,
#: while a wrong layer moves them by order 1
SCORE_RTOL = 1e-4

#: model name every cluster workload registers the image under
MODEL_NAME = "kws"

#: rows per reference forward: keeps the reference's activations (and so
#: the benchmark process's own peak memory) small
REFERENCE_CHUNK = 32


def cpu_count() -> int:
    """CPUs this process may run on (affinity-aware)."""
    return len(os.sched_getaffinity(0))


def paper_image_bytes() -> bytes:
    """The paper-config ST-HybridNet (width 64, depth-2 tree), frozen and imaged."""
    model = STHybridNet(HybridConfig(), rng=0)
    freeze_all(model)
    model.eval()
    return build_image(model).to_bytes()


def ternary_zero_fraction(image: ModelImage) -> float:
    """Share of zero weights over every ternary transform of the image."""
    zeros = total = 0
    for record in image.layers:
        for weights in (record.wb(), record.wc()):
            zeros += int(np.count_nonzero(weights == 0))
            total += weights.size
    return zeros / total


def reference_scores(image: ModelImage, inputs: np.ndarray) -> np.ndarray:
    """Expected score rows from the reference kernel backend, in small chunks."""
    model = PackedModel(image, kernel="reference")
    return np.concatenate(
        [model(inputs[lo : lo + REFERENCE_CHUNK]) for lo in range(0, len(inputs), REFERENCE_CHUNK)]
    )


def utterance_pool(rng: np.random.Generator, size: int, input_shape: Sequence[int]) -> np.ndarray:
    """``size`` seeded MFCC-shaped inputs (standard normal, float32)."""
    return rng.standard_normal((size, *input_shape)).astype(np.float32)


def provenance(
    seed: int, blob: bytes, image: ModelImage, blas_env: Sequence[str], steal_s: float
) -> Dict[str, object]:
    """Where and on what a result was measured.

    ``steal_s`` is the CPU time the hypervisor gave to other guests during
    the run; on a shared VM it is what makes a whole run slow.
    """
    return {
        "cpu_count": cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": resolve_backend(None).name,
        "blas_env": {name: os.environ.get(name) for name in blas_env},
        "seed": seed,
        "image_sha256": hashlib.sha256(blob).hexdigest(),
        "ternary_zero_fraction": round(ternary_zero_fraction(image), 6),
        "host_steal_s": round(steal_s, 2),
    }


# -- process readings ------------------------------------------------------- #

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def host_steal_s() -> float:
    """CPU seconds stolen from this VM by the hypervisor since boot (all CPUs)."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / _CLOCK_TICKS if len(fields) > 8 else 0.0


def _child_pids() -> List[int]:
    return [p.pid for p in multiprocessing.active_children() if p.pid is not None]


def _proc_cpu_s(pid: int) -> float:
    """utime + stime of a live child from ``/proc`` (0 if it is gone)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    # fields after "comm)": state is index 0, utime 11, stime 12
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def _proc_peak_rss_kb(pid: int) -> int:
    """VmHWM (peak resident set) of a live process from ``/proc`` in KiB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


@dataclass
class CpuMeter:
    """CPU seconds of this process plus its live child processes over a phase."""

    start: Dict[int, float] = field(default_factory=dict)
    self_start: float = 0.0

    def begin(self) -> "CpuMeter":
        self.self_start = time.process_time()
        self.start = {pid: _proc_cpu_s(pid) for pid in _child_pids()}
        return self

    def elapsed_s(self) -> float:
        """CPU seconds since :meth:`begin` (children that appeared since count from 0)."""
        own = time.process_time() - self.self_start
        children = sum(_proc_cpu_s(pid) - self.start.get(pid, 0.0) for pid in _child_pids())
        return own + children


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live children, in MiB."""
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own_kb + sum(_proc_peak_rss_kb(pid) for pid in _child_pids())) / 1024.0


# -- timing helpers --------------------------------------------------------- #


def median_time_s(fn: Callable[[], object], reps: int) -> float:
    """Median wall time of ``reps`` calls of ``fn``."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


@dataclass
class CallTimer:
    """Total time and call count of one wrapped layer entry point."""

    calls: int = 0
    total_s: float = 0.0

    def wrap(self, fn: Callable) -> Callable:
        """``fn`` with every call timed into this record."""

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.total_s += time.perf_counter() - start
                self.calls += 1

        return timed

    @property
    def mean_ms(self) -> float:
        """Mean ms per call (0 when the layer was never called)."""
        return self.total_s * 1e3 / self.calls if self.calls else 0.0
