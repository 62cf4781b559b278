"""Reference interpreter executing inference from a packed model image.

Independent of the training stack on purpose: it consumes only the bytes of
a :class:`~repro.deploy.image.ModelImage` and NumPy primitives, so agreement
with the live :class:`~repro.core.hybrid.strassenified.STHybridNet` is a
real end-to-end check that the image contains everything a device needs.

With ``kernel="reference"`` the arithmetic mirrors a microcontroller
kernel: ternary transforms are applied as gather-accumulate passes over the
+1/−1 bit planes (TNN-style packed execution), and the only multiplications
are the per-hidden-unit ⊙â and the per-channel output scale — exactly the
operation census of the cost model.  The default is the process-default
kernel backend (the dense GEMM backend unless ``$REPRO_KERNEL_BACKEND``
says otherwise).  The hot path is the shared packed runtime in
:mod:`repro.serving.packed`: by default (``cache=True``) each layer's
2-bit blobs are decoded once and reused across calls; ``cache=False``
re-decodes on every call — the original on-the-fly semantics, with nothing
resident beyond the image bytes.  Both modes run the identical kernels, so
their outputs are bitwise equal.
"""

from __future__ import annotations

import numpy as np

from repro.deploy.image import ModelImage


class ImageInterpreter:
    """Runs a (batch, 49, 10) MFCC tensor through a packed model image."""

    def __init__(self, image: ModelImage, cache: bool = True, kernel=None) -> None:
        # Deferred import: repro.serving.packed imports repro.deploy.image,
        # so a module-level import would cycle through the package inits.
        from repro.serving.packed import PackedModel

        self._packed = PackedModel(image, cache=cache, kernel=kernel)
        self.image = image
        self.header = image.header
        self.cache = cache
        self.kernel_backend = self._packed.kernel_backend

    def features(self, x: np.ndarray) -> np.ndarray:
        """Conv feature extractor: (N, T, F) → (N, width)."""
        return self._packed.features(x)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Full inference: MFCC batch → (N, num_labels) class scores."""
        return self._packed(x)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Argmax labels for a batch."""
        return self._packed.predict(x)
