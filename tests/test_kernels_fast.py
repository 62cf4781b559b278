"""Pluggable kernel backends: identity, the dense contract, cluster homogeneity.

Two contracts are under test.  The gather backends (``reference`` and
``fused``) produce **bit-for-bit** the reference kernel's output — across
shapes, sparsities, layouts and gather-chunk boundaries.  The default
``dense`` backend is held to its stated tolerance instead: within
``2 · n · eps · Σ|x·w|`` of the reference, deterministic, and
batch-invariant.  A cluster's ``kernel=`` choice survives worker spawn
*and* crash restart.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hybrid import HybridConfig, STHybridNet
from repro.core.strassen import freeze_all
from repro.deploy import build_image
from repro.deploy.packing import pack_ternary
from repro.errors import ConfigError
from repro.serving import kernels
from repro.serving.kernels import (
    TernaryPlanes,
    as_block_diagonal,
    decode_planes,
    gather_chunk_rows,
    ternary_matmul,
)
from repro.serving.kernels_fast import (
    DEFAULT_BACKEND_NAME,
    DenseBackend,
    DenseMatrix,
    DepthwiseTaps,
    FusedBackend,
    FusedPlanes,
    KernelBackend,
    available_backends,
    default_backend_name,
    dense_error_bound,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.serving.packed import PackedModel, decode_layer


def ternary(rng: np.random.Generator, rows: int, cols: int, density: float) -> np.ndarray:
    """Random {-1, 0, +1} matrix with roughly the requested density."""
    mask = rng.random((rows, cols)) < density
    signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(rows, cols))
    return (mask * signs).astype(np.int8)


def planes_for(values: np.ndarray) -> TernaryPlanes:
    """Pack + decode a ternary matrix into reference CSR planes."""
    blob, shape = pack_ternary(values)
    return decode_planes(blob, shape)


#: the backends held to bitwise identity with the reference
BITWISE_BACKENDS = ("reference", "fused")
ALL_BACKENDS = BITWISE_BACKENDS + ("dense",)


def build_packed_image(width: int = 64):
    """The seeded ST-HybridNet (paper config by default), frozen and imaged."""
    model = STHybridNet(HybridConfig(width=width), rng=0)
    freeze_all(model)
    model.eval()
    return build_image(model)


@pytest.fixture(scope="module")
def paper_image():
    return build_packed_image()


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert set(ALL_BACKENDS) <= set(available_backends())
        assert DEFAULT_BACKEND_NAME == "dense"

    def test_unknown_backend_is_config_error(self):
        with pytest.raises(ConfigError, match="unknown kernel backend"):
            get_backend("warp-drive")

    def test_duplicate_registration_needs_replace(self):
        class Dup(FusedBackend):
            name = "fused"

        with pytest.raises(ConfigError, match="already registered"):
            register_backend(Dup())
        register_backend(Dup(), replace=True)  # explicit shadowing allowed
        register_backend(FusedBackend(), replace=True)  # restore

    def test_resolve_precedence(self, monkeypatch):
        assert resolve_backend("fused").name == "fused"
        instance = FusedBackend(layout="batch")
        assert resolve_backend(instance) is instance
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        assert default_backend_name() == DEFAULT_BACKEND_NAME
        assert resolve_backend(None).name == DEFAULT_BACKEND_NAME
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "reference")
        assert resolve_backend(None).name == "reference"
        with pytest.raises(ConfigError, match="kernel must be"):
            resolve_backend(3.14)

    def test_bad_fused_layout_is_config_error(self):
        with pytest.raises(ConfigError, match="unknown fused layout"):
            FusedBackend(layout="diagonal")


class TestDecodeValidation:
    def test_scalar_shape_is_config_error(self):
        """Satellite: shape=() must fail loud, not die on prod(())."""
        with pytest.raises(ConfigError, match=r"shape=\(\) has no rows"):
            decode_planes(b"", ())

    def test_negative_dim_is_config_error(self):
        with pytest.raises(ConfigError, match="negative dimension"):
            decode_planes(b"", (4, -1))


class TestEdgeShapes:
    """0-row / 0-col transforms must work identically on every backend."""

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    @pytest.mark.parametrize("rows,cols", [(0, 5), (5, 0), (0, 0)])
    def test_degenerate_planes(self, name, rows, cols):
        planes = planes_for(np.zeros((rows, cols), dtype=np.int8))
        x = np.ones((3, cols), dtype=np.float32)
        want = ternary_matmul(x, planes)
        backend = get_backend(name)
        got = backend.matmul(x, backend.prepare(planes))
        assert got.shape == (3, rows)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_empty_batch(self, name):
        planes = planes_for(ternary(np.random.default_rng(0), 4, 6, 0.5))
        x = np.empty((0, 6), dtype=np.float32)
        backend = get_backend(name)
        got = backend.matmul(x, backend.prepare(planes))
        assert got.shape == (0, 4)
        np.testing.assert_array_equal(got, ternary_matmul(x, planes))

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_packed_model_empty_batch(self, name):
        """Zero utterances in, zero score rows out — no reshape error."""
        model = PackedModel(build_packed_image(width=8), kernel=name)
        assert model(np.empty((0, 49, 10), dtype=np.float32)).shape == (0, 12)

    @pytest.mark.parametrize("name", ["fused", "dense"])
    def test_feature_mismatch_matches_reference_error(self, name):
        planes = planes_for(ternary(np.random.default_rng(0), 4, 6, 0.5))
        backend = get_backend(name)
        prepared = backend.prepare(planes)
        with pytest.raises(ValueError, match="planes expect 6"):
            backend.matmul(np.ones((2, 7), dtype=np.float32), prepared)


class TestScratchBound:
    """Satellite: the chunk bound counts gather slab + reduceat output."""

    def test_gather_chunk_rows_counts_coexisting_scratch(self):
        itemsize = 4
        scratch_cols = 1000
        chunk = gather_chunk_rows(scratch_cols, itemsize)
        assert chunk * scratch_cols * itemsize <= kernels.GATHER_SCRATCH_BYTES
        # regression: a bound that only counted the gathered slab would
        # admit more rows than the budget once the reduce output coexists
        assert gather_chunk_rows(scratch_cols, itemsize) <= (
            kernels.GATHER_SCRATCH_BYTES // (scratch_cols * itemsize)
        )
        assert gather_chunk_rows(10**9, 8) == 1  # never zero rows

    def test_reference_peak_scratch_respects_budget(self, monkeypatch):
        """Peak scratch of `_plane_sums` = gathered + reduceat out <= budget."""
        rng = np.random.default_rng(3)
        planes = planes_for(ternary(rng, 16, 64, 0.8))
        x = rng.standard_normal((64, 64)).astype(np.float32)
        want = ternary_matmul(x, planes)
        budget = 4096
        monkeypatch.setattr(kernels, "GATHER_SCRATCH_BYTES", budget)
        nnz_plus = planes.plus_indices.size
        chunk = gather_chunk_rows(nnz_plus + 16, x.dtype.itemsize)
        peak = chunk * (nnz_plus + 16) * x.dtype.itemsize
        assert 1 <= chunk and peak <= budget
        np.testing.assert_array_equal(ternary_matmul(x, planes), want)

    @pytest.mark.parametrize("name", ["fused"])
    def test_backends_identical_under_tiny_budget(self, name, monkeypatch):
        """Chunk boundaries at every few rows never change a bit."""
        rng = np.random.default_rng(4)
        planes = planes_for(ternary(rng, 12, 40, 0.6))
        x = rng.standard_normal((37, 40)).astype(np.float32)
        want = ternary_matmul(x, planes)
        backend = get_backend(name)
        prepared = backend.prepare(planes)
        monkeypatch.setattr(kernels, "GATHER_SCRATCH_BYTES", 512)
        np.testing.assert_array_equal(backend.matmul(x, prepared), want)


DTYPES = {
    "float32": np.float32,
    "float64": np.float64,
    "int64": np.int64,
    "int32": np.int32,
}


class TestBitwiseIdentity:
    """Every gather backend == reference, bit for bit, on every dtype."""

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(min_value=1, max_value=24),
        cols=st.integers(min_value=1, max_value=48),
        batch=st.integers(min_value=1, max_value=17),
        density=st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0]),
        dtype=st.sampled_from(sorted(DTYPES)),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        scratch=st.sampled_from([None, 256, 4096]),
    )
    def test_property_identity(self, rows, cols, batch, density, dtype, seed, scratch):
        rng = np.random.default_rng(seed)
        planes = planes_for(ternary(rng, rows, cols, density))
        np_dtype = DTYPES[dtype]
        if np.issubdtype(np_dtype, np.floating):
            x = (rng.standard_normal((batch, cols)) * 10).astype(np_dtype)
        else:
            x = rng.integers(-1000, 1000, size=(batch, cols)).astype(np_dtype)
        with pytest.MonkeyPatch.context() as mp:
            if scratch is not None:
                mp.setattr(kernels, "GATHER_SCRATCH_BYTES", scratch)
            want = ternary_matmul(x, planes)
            for name in BITWISE_BACKENDS:
                backend = get_backend(name)
                got = backend.matmul(x, backend.prepare(planes))
                assert got.dtype == want.dtype, (name, dtype)
                np.testing.assert_array_equal(got, want, err_msg=f"{name}/{dtype}")

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        layout=st.sampled_from(["batch", "feature"]),
    )
    def test_forced_layouts_identical(self, seed, layout):
        """Both fused orientations keep the exact summation order."""
        rng = np.random.default_rng(seed)
        planes = planes_for(ternary(rng, 10, 30, 0.5))
        x = rng.standard_normal((13, 30)).astype(np.float32)
        backend = FusedBackend(layout=layout)
        np.testing.assert_array_equal(
            backend.matmul(x, backend.prepare(planes)), ternary_matmul(x, planes)
        )


class TestPlanAccounting:
    def test_fused_planes_nbytes_and_nnz(self):
        planes = planes_for(ternary(np.random.default_rng(10), 6, 12, 0.5))
        prepared = FusedBackend().prepare(planes)
        assert isinstance(prepared, FusedPlanes)
        assert prepared.nnz == planes.nnz
        assert prepared.nbytes > 0

    def test_dense_plans_shape_and_nbytes(self):
        values = ternary(np.random.default_rng(10), 6, 12, 0.5)
        dense = DenseBackend().prepare(planes_for(values))
        assert isinstance(dense, DenseMatrix)
        assert (dense.rows, dense.cols, dense.nbytes) == (6, 12, 6 * 12 * 4)
        np.testing.assert_array_equal(dense.weights, values.T)
        taps = DenseBackend().prepare_depthwise(planes_for(values), (3, 4))
        assert isinstance(taps, DepthwiseTaps)
        # a (C, KH*KW) filter reads the (M, C*KH*KW) patch matrix
        assert (taps.rows, taps.cols, taps.nbytes) == (6, 72, 72 * 4)
        np.testing.assert_array_equal(
            taps.taps, values.reshape(6, 3, 4).transpose(1, 2, 0)
        )

    def test_nonempty_segments_precomputed_at_fuse_time(self):
        """The hot path reads prepare-time arrays, never re-derives them."""
        values = np.zeros((5, 9), dtype=np.int8)
        values[0, :3] = 1
        values[2, 4:6] = -1  # rows 1, 3, 4 (and their sign twins) are empty
        prepared = FusedBackend().prepare(planes_for(values))
        segments = 2 * prepared.rows
        want = np.setdiff1d(np.arange(segments), prepared.empty, assume_unique=True)
        np.testing.assert_array_equal(prepared.nonempty, want)
        np.testing.assert_array_equal(
            prepared.nonempty_bounds, prepared.bounds[prepared.nonempty]
        )
        assert prepared.nonempty.size + prepared.empty.size == segments

    def test_packed_model_kernel_selection(self):
        image = build_packed_image(width=8)
        rng = np.random.default_rng(12)
        x = rng.standard_normal((3, 49, 10)).astype(np.float32)
        want = PackedModel(image, kernel="reference")(x)
        for name in available_backends():
            packed = PackedModel(image, kernel=name)
            assert packed.kernel_backend.name == name
            assert packed.decoded_bytes() > 0
            if name in BITWISE_BACKENDS:
                np.testing.assert_array_equal(packed(x), want, err_msg=name)
            else:
                np.testing.assert_allclose(packed(x), want, rtol=1e-5, atol=1e-5)
        custom = PackedModel(image, kernel=FusedBackend(layout="feature"))
        np.testing.assert_array_equal(custom(x), want)
        with pytest.raises(ConfigError, match="unknown kernel backend"):
            PackedModel(image, kernel="warp-drive")


class TestDenseContract:
    """The default backend: a stated bound instead of bitwise identity."""

    @settings(max_examples=80, deadline=None)
    @given(
        rows=st.integers(min_value=1, max_value=24),
        cols=st.integers(min_value=1, max_value=48),
        batch=st.integers(min_value=1, max_value=17),
        density=st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0]),
        dtype=st.sampled_from(sorted(DTYPES)),
        depthwise=st.booleans(),
        taps=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_property_within_bound(
        self, rows, cols, batch, density, dtype, depthwise, taps, seed
    ):
        rng = np.random.default_rng(seed)
        backend = get_backend("dense")
        if depthwise:
            # rows channels, each a (KH, KW) filter over its own patch columns
            k = taps[0] * taps[1]
            filters = ternary(rng, rows, k, density)
            planes = planes_for(filters)
            prepared = backend.prepare_depthwise(planes, taps)
            planes = as_block_diagonal(planes, k)
            values = np.zeros((rows, rows * k), dtype=np.int8)
            for c in range(rows):
                values[c, c * k : (c + 1) * k] = filters[c]
            terms = k
        else:
            values = ternary(rng, rows, cols, density)
            planes = planes_for(values)
            prepared = backend.prepare(planes)
            terms = cols
        np_dtype = DTYPES[dtype]
        shape = (batch, planes.cols)
        if np.issubdtype(np_dtype, np.floating):
            x = (rng.standard_normal(shape) * 10).astype(np_dtype)
        else:
            x = rng.integers(-1000, 1000, size=shape).astype(np_dtype)
        want = ternary_matmul(x, planes)
        got = backend.matmul(x, prepared)
        assert got.dtype == want.dtype and got.shape == want.shape
        error = np.abs(got.astype(np.float64) - want.astype(np.float64))
        assert np.all(error <= dense_error_bound(x, values, terms))

    @pytest.mark.parametrize("width", [8, 64])
    @pytest.mark.parametrize(
        "layer", ["conv1", "ds0.dw", "ds0.pw", "tree.w0", "tree.theta0"]
    )
    def test_batch_composition_invariant_per_layer(self, width, layer):
        """A row's bits never depend on how many rows share the call.

        8195 rows puts the width-8 conv1 GEMM past the size where OpenBLAS
        switches sgemm kernels; slices of 1, 2 and odd sizes at several
        offsets must reproduce the full call bit for bit.
        """
        backend = get_backend("dense")
        plan = decode_layer(build_packed_image(width).layer(layer), backend)
        rng = np.random.default_rng(17)
        for stage in (plan.wb, plan.wc):
            if stage is None:
                continue  # depthwise w_c is a per-channel scale
            x = rng.standard_normal((8195, stage.cols)).astype(np.float32)
            full = backend.matmul(x, stage)
            for m in (1, 2, 3, 7, 125, 129):
                for lo in (0, 1, 130):
                    np.testing.assert_array_equal(
                        backend.matmul(x[lo : lo + m], stage),
                        full[lo : lo + m],
                        err_msg=f"{layer} rows {lo}:{lo + m}",
                    )

    def test_depthwise_window_view_and_patch_matmul_agree(self, paper_image):
        """One tap-sum implementation serves both entry points."""
        from repro.serving.packed import _conv_patches, _conv_windows

        backend = get_backend("dense")
        plan = decode_layer(paper_image.layer("ds0.dw"), backend)
        x = np.random.default_rng(18).standard_normal((3, 25, 5, 64)).astype(np.float32)
        stride, padding = plan.meta["stride"], plan.meta["padding"]
        windows = _conv_windows(x, 3, 3, stride, padding)
        patches = _conv_patches(x, 3, 3, stride, padding)
        via_matmul = backend.matmul(patches.reshape(-1, plan.wb.cols), plan.wb)
        np.testing.assert_array_equal(
            backend.depthwise(windows, plan.wb), via_matmul.reshape(3, 25, 5, 64)
        )

    def test_packed_model_batch_invariant(self, paper_image):
        x = np.random.default_rng(19).standard_normal((9, 49, 10)).astype(np.float32)
        model = PackedModel(paper_image, kernel="dense")
        batched = model(x)
        singles = np.concatenate([model(x[i : i + 1]) for i in range(len(x))])
        np.testing.assert_array_equal(batched, singles)
        np.testing.assert_array_equal(batched, np.concatenate([model(x[:4]), model(x[4:])]))

    def test_cached_on_the_fly_and_fresh_instance_agree(self, paper_image):
        x = np.random.default_rng(20).standard_normal((5, 49, 10)).astype(np.float32)
        cached = PackedModel(paper_image, kernel="dense")(x)
        on_the_fly = PackedModel(paper_image, kernel="dense", cache=False)(x)
        fresh = PackedModel(paper_image, kernel=DenseBackend())(x)
        np.testing.assert_array_equal(on_the_fly, cached)
        np.testing.assert_array_equal(fresh, cached)

    def test_paper_config_agrees_with_reference(self, paper_image):
        """512 seeded inputs: same argmax everywhere, row-relative error <= 1e-5."""
        x = np.random.default_rng(21).standard_normal((512, 49, 10)).astype(np.float32)
        reference = PackedModel(paper_image, kernel="reference")
        want = np.concatenate([reference(x[lo : lo + 64]) for lo in range(0, 512, 64)])
        got = PackedModel(paper_image, kernel="dense")(x)
        np.testing.assert_array_equal(got.argmax(axis=1), want.argmax(axis=1))
        row_rel = np.abs(got - want).max(axis=1) / np.abs(want).max(axis=1)
        assert row_rel.max() <= 1e-5

    def test_zero_weight_times_inf_is_nan(self):
        """Dense multiplies the zero weights the gather skips: 0 · inf = NaN."""
        planes = planes_for(np.array([[1, 0]], dtype=np.int8))
        x = np.array([[1.0, np.inf]], dtype=np.float32)
        assert ternary_matmul(x, planes)[0, 0] == 1.0
        backend = get_backend("dense")
        with np.errstate(invalid="ignore"):
            assert np.isnan(backend.matmul(x, backend.prepare(planes))[0, 0])

    def test_profile_attributes_every_kind_to_dense(self, paper_image):
        from repro.serving.telemetry import profile_kernels

        model = PackedModel(paper_image, kernel="dense")
        x = np.random.default_rng(22).standard_normal((2, 49, 10)).astype(np.float32)
        with profile_kernels() as profile:
            model(x)
        snapshot = profile.snapshot()
        for kind in ("conv", "dw", "pw", "linear"):
            assert snapshot[kind]["layer_s"] > 0, kind
            assert snapshot[kind]["backends"]["dense"]["gather_calls"] > 0, kind


class TestReferenceGolden:
    """Channels-last activations must not move a single gather-backend bit.

    The digests were taken from the paper-config image's scores and
    features while the runtime still carried activations channels-first
    (NumPy 2.4, x86-64); the reference and fused backends must keep
    reproducing them exactly.
    """

    SCORES_SHA256 = "0fdddceb8b3d4b98733ff48d68dc147c5e53e23043bd2c8a491e83a44497bc3e"
    FEATURES_SHA256 = "c9a20d274259ffc7739c2825eca5b5a2149cdf8f0ad5e3bbb7a1eb6906fbac2d"

    @pytest.mark.parametrize("cache", [True, False])
    @pytest.mark.parametrize("name", BITWISE_BACKENDS)
    def test_paper_config_digest(self, paper_image, name, cache):
        x = np.random.default_rng(2024).standard_normal((16, 49, 10)).astype(np.float32)
        model = PackedModel(paper_image, kernel=name, cache=cache)
        assert hashlib.sha256(model(x).tobytes()).hexdigest() == self.SCORES_SHA256
        features = model.features(x)
        assert hashlib.sha256(features.tobytes()).hexdigest() == self.FEATURES_SHA256


class TestClusterKernelRoundTrip:
    """Satellite: ``kernel=`` rides worker init and survives crash restart."""

    def test_kernel_survives_spawn_and_restart(self):
        import time

        from repro.errors import WorkerCrashed
        from repro.serving import ClusterRouter

        image = build_packed_image(width=8)
        rng = np.random.default_rng(13)
        x = rng.standard_normal((49, 10)).astype(np.float32)
        want = PackedModel(image, kernel="reference")(x[None])[0]

        def observed_backends(router):
            """Backend names the workers' kernel profiles attribute to."""
            profile = router.kernel_profile()
            return {b for row in profile.values() for b in row.get("backends", {})}

        # "reference" is distinct from the process default ("dense"), so the
        # profile proves the name rode the spawn args, not the environment
        assert default_backend_name() != "reference"
        router = ClusterRouter(workers=1, kernel="reference")
        assert router.kernel == "reference"
        router.register("m", image)
        with router:
            router.profile_kernels(True)
            np.testing.assert_array_equal(router.predict(x, model="m"), want)
            assert observed_backends(router) == {"reference"}

            router.pool.inject_crash(0)
            deadline = time.monotonic() + 15.0
            while True:  # the retry loop a real client would run
                try:
                    got = router.predict(x, model="m")
                    break
                except WorkerCrashed:
                    assert time.monotonic() < deadline, "restart never came up"
                    time.sleep(0.01)
            np.testing.assert_array_equal(got, want)
            # profiling is per-process state, so re-arm on the replacement;
            # the replacement must have inherited the same backend name
            router.profile_kernels(True)
            np.testing.assert_array_equal(router.predict(x, model="m"), want)
            assert observed_backends(router) == {"reference"}

    def test_prebuilt_pool_rejects_router_kernel(self):
        from repro.serving import ClusterRouter, WorkerPool

        pool = WorkerPool(1, kernel="fused")
        assert pool.kernel == "fused"
        with pytest.raises(ConfigError, match="pass kernel only when"):
            ClusterRouter(pool, kernel="fused")
        router = ClusterRouter(pool)
        assert router.kernel == "fused"  # adopted from the prebuilt pool

    def test_pool_rejects_unregistered_backend_instances(self):
        """Pools ship names: a configured instance would silently run as
        the registered default in every worker, so reject it up front."""
        from repro.serving import ClusterRouter, WorkerPool

        with pytest.raises(ConfigError, match="by registered name"):
            WorkerPool(1, kernel=FusedBackend(layout="feature"))
        with pytest.raises(ConfigError, match="by registered name"):
            ClusterRouter(workers=1, kernel=DenseBackend())

        class Custom(KernelBackend):
            name = "custom-unregistered"

        with pytest.raises(ConfigError, match="by registered name"):
            WorkerPool(1, kernel=Custom())
        # the registered instance itself still round-trips by identity
        pool = WorkerPool(1, kernel=get_backend("dense"))
        assert pool.kernel == "dense"
