"""Tensor substrate: shapes, kernels, counting."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cuenet import tensor
from cuenet.errors import ParamError, ShapeError
from cuenet.instrument import MacCounter, MemoryMeter, counting, metering

from util import (assert_close, conv3d_oracle, conv3d_reference,
                  dwconv3d_oracle, dwconv3d_reference, layer_norm_reference,
                  matmul_oracle)

REFERENCE_CASES = settings(max_examples=60, deadline=None)
# the single-precision GELU's stated bounds against the double-precision
# GELU: absolute, and scaled by 1 / max(1, |x|)
GELU32_BOUND = 1.4e-6
GELU32_SCALED_BOUND = 2.7e-7
dtypes = st.sampled_from((np.float32, np.float64))
odd_extents = st.sampled_from((1, 3, 5))


def draw_volume(seed, shape, dtype, strided):
    """A seeded (T,H,W,C) volume; ``strided`` takes every other row of a
    taller one, so the input is not contiguous."""
    rng = np.random.default_rng(seed)
    if not strided:
        return rng.standard_normal(shape).astype(dtype)
    t, h, w, c = shape
    return rng.standard_normal((t, 2 * h, w, c)).astype(dtype)[:, ::2]


class TestMatmul:
    def test_identity(self):
        a = np.random.default_rng(0).standard_normal((4, 4))
        assert np.array_equal(tensor.matmul(a, np.eye(4)), a)

    def test_hand_value(self):
        out = tensor.matmul(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
        assert out.shape == (1, 1)
        assert out[0, 0] == 11.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((7, 5))
        b = rng.standard_normal((5, 3))
        assert_close(tensor.matmul(a, b), matmul_oracle(a, b), rel=1e-12)

    def test_shape_mismatch_names_both_operands(self):
        a = np.zeros((2, 3))
        b = np.zeros((4, 2))
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            tensor.matmul(a, b)

    def test_mixed_precision_rejected(self):
        a = np.zeros((2, 2), dtype=np.float32)
        b = np.zeros((2, 2), dtype=np.float64)
        with pytest.raises(ShapeError, match="mixed precisions"):
            tensor.matmul(a, b)

    def test_non_float_rejected(self):
        with pytest.raises(ShapeError):
            tensor.matmul(np.zeros((2, 2), dtype=np.int64), np.zeros((2, 2)))

    def test_counts_one_unit_per_multiply_add(self):
        # 4x4 by 4x4 is 64 fused multiply-adds; under the convention that
        # prices the multiply and the accumulate separately the same run
        # reads as 128.
        counter = MacCounter()
        with counting(counter):
            tensor.matmul(np.ones((4, 4)), np.ones((4, 4)))
        assert counter.total == 4 * 4 * 4 == 64
        assert 2 * counter.total == 128

    def test_count_scales_with_extents(self):
        counter = MacCounter()
        with counting(counter):
            tensor.matmul(np.ones((3, 5)), np.ones((5, 7)))
        assert counter.total == 3 * 5 * 7

    def test_repeat_runs_bit_identical(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((12, 12))
        b = rng.standard_normal((12, 12))
        assert tensor.matmul(a, b).tobytes() == tensor.matmul(a, b).tobytes()

    def test_association_reorder_stays_tight(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6))
        c = rng.standard_normal((6, 6))
        left = tensor.matmul(tensor.matmul(a, b), c)
        right = tensor.matmul(a, tensor.matmul(b, c))
        assert_close(left, right, rel=1e-8)

    def test_stacks_match_per_batch_products(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 4, 5))
        b = rng.standard_normal((3, 5, 2))
        want = np.stack([tensor.matmul(a[i], b[i]) for i in range(3)])
        assert tensor.matmul(a, b).tobytes() == want.tobytes()

    def test_stack_counts_batch_times_matrix_work(self):
        counter = MacCounter()
        with counting(counter):
            out = tensor.matmul(np.ones((3, 4, 5)), np.ones((3, 5, 2)))
        assert out.shape == (3, 4, 2)
        assert counter.total == 3 * 4 * 5 * 2

    def test_stack_batch_of_one_is_shared(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((3, 4, 5))
        b = rng.standard_normal((1, 5, 2))
        counter = MacCounter()
        with counting(counter):
            got = tensor.matmul(a, b)
            back = tensor.matmul(b.transpose(0, 2, 1), a.transpose(0, 2, 1))
        want = np.stack([tensor.matmul(a[i], b[0]) for i in range(3)])
        assert got.tobytes() == want.tobytes()
        assert back.shape == (3, 2, 4)
        assert counter.total == 2 * 3 * 4 * 5 * 2

    @pytest.mark.parametrize("a_shape, b_shape, message", [
        ((4, 5), (3, 5, 2), "rank"),
        ((3, 4, 5), (5, 2), "rank"),
        ((3, 4, 5, 1), (3, 5, 2), "rank"),
        ((3, 4, 5), (2, 5, 2), "batch"),
        ((3, 4, 5), (3, 6, 2), "inner"),
    ], ids=("rank2_by_rank3", "rank3_by_rank2", "rank4", "batch", "inner"))
    def test_stack_shape_errors(self, a_shape, b_shape, message):
        counter = MacCounter()
        with counting(counter), pytest.raises(ShapeError, match=message):
            tensor.matmul(np.zeros(a_shape), np.zeros(b_shape))
        assert counter.total == 0

    def test_stack_mixed_precision_rejected(self):
        a = np.zeros((2, 2, 2), dtype=np.float32)
        b = np.zeros((2, 2, 2), dtype=np.float64)
        with pytest.raises(ShapeError, match="mixed precisions"):
            tensor.matmul(a, b)

    def test_mixed_ranks_refused_where_numpy_broadcasts(self):
        # np.matmul broadcasts a 2-d operand against a 3-d stack; the
        # counted product takes one rank for both, so it counts what it runs
        rng = np.random.default_rng(9)
        stack = rng.standard_normal((3, 4, 4))
        matrix = rng.standard_normal((4, 4))
        assert (stack @ matrix).shape == (matrix @ stack).shape == (3, 4, 4)
        counter = MacCounter()
        with counting(counter):
            for a, b in ((stack, matrix), (matrix, stack)):
                with pytest.raises(ShapeError, match="both rank 3"):
                    tensor.matmul(a, b)
        assert counter.total == 0


class TestElementwise:
    def test_mul_broadcast_counts_output_elements(self):
        counter = MacCounter()
        with counting(counter):
            out = tensor.mul(np.ones((4, 3)), np.full((1, 3), 2.0))
        assert out.shape == (4, 3)
        assert np.all(out == 2.0)
        assert counter.total == 12

    def test_scale_counts_elements(self):
        counter = MacCounter()
        with counting(counter):
            out = tensor.scale(np.ones((2, 5)), 3.0)
        assert np.all(out == 3.0)
        assert counter.total == 10

    def test_mean_rows_value_and_count(self):
        x = np.array([[1.0, 2.0], [3.0, 6.0]])
        counter = MacCounter()
        with counting(counter):
            out = tensor.mean_rows(x)
        assert out.shape == (1, 2)
        assert np.array_equal(out, np.array([[2.0, 4.0]]))
        assert counter.total == 2

    def test_mean_rows_empty_rejected(self):
        with pytest.raises(ShapeError):
            tensor.mean_rows(np.zeros((0, 3)))

    def test_mean_rows_refuses_a_frame_stack(self):
        # a (t, n, d) stack of attention rows is never pooled across frames
        with pytest.raises(ShapeError, match=r"^mean_rows operand must have "
                           r"rank 2, got shape \(3, 17, 8\)$"):
            tensor.mean_rows(np.zeros((3, 17, 8)))

    def test_sigmoid_midpoint_and_symmetry(self):
        x = np.array([0.0, 2.0, -2.0])
        s = tensor.sigmoid(x)
        assert s[0] == 0.5
        assert abs(s[1] + s[2] - 1.0) < 1e-15

    def test_single_precision_sigmoid_symmetric_and_monotone(self):
        x = np.linspace(-30.0, 30.0, 60_001, dtype=np.float32)
        s = tensor.sigmoid(x)
        assert s.dtype == np.float32
        assert s[30_000] == 0.5
        assert np.all(np.diff(s) >= 0.0)
        # s(x) + s(-x) = 1 to within one unit in the last place of 1
        assert np.max(np.abs(s + s[::-1] - 1.0)) <= np.finfo(np.float32).eps
        # within four units in the last place of the double-precision value
        exact = 1.0 / (1.0 + np.exp(-x.astype(np.float64)))
        eps = np.finfo(np.float32).eps
        assert np.all(np.abs(s - exact) <= 4 * eps * exact)


class TestLayerNorm:
    def test_constant_row_maps_to_beta(self):
        x = np.full((1, 3), 5.0)
        gamma = np.ones(3)
        beta = np.zeros(3)
        assert np.allclose(tensor.layer_norm(x, gamma, beta), 0.0)

    def test_two_point_row(self):
        x = np.array([[0.0, 2.0]])
        out = tensor.layer_norm(x, np.ones(2), np.zeros(2))
        assert_close(out, np.array([[-1.0, 1.0]]), rel=1e-6)

    def test_random_rows_statistics(self):
        rng = np.random.default_rng(8)
        x = 3.0 * rng.standard_normal((4, 8))
        out = tensor.layer_norm(x, np.ones(8), np.zeros(8))
        means = out.mean(axis=1)
        variances = out.var(axis=1)
        assert np.all(np.abs(means) <= 1e-10)
        assert np.all(np.abs(variances - 1.0) <= 1e-6)

    def test_affine_terms_applied_last(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 5))
        gamma = rng.standard_normal(5)
        beta = rng.standard_normal(5)
        base = tensor.layer_norm(x, np.ones(5), np.zeros(5))
        full = tensor.layer_norm(x, gamma, beta)
        assert np.array_equal(full, base * gamma + beta)

    def test_extent_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            tensor.layer_norm(np.zeros((2, 4)), np.ones(3), np.zeros(3))

    @pytest.mark.parametrize("dtype, huge", ((np.float64, 1e160),
                                             (np.float64, 1e308),
                                             (np.float32, 1e30)))
    def test_overflowing_variance_row_comes_out_nan(self, dtype, huge):
        # the square of ``huge`` overflows, so the row's variance is
        # infinite: the row must not pass on as finite (zeroed) values
        x = np.array([[huge, 1.0, 2.0, 3.0], [0.5, -1.0, 2.0, 4.0]],
                     dtype=dtype)
        gamma, beta = np.ones(4, dtype=dtype), np.zeros(4, dtype=dtype)
        with np.errstate(over="ignore", invalid="ignore"):
            out = tensor.layer_norm(x, gamma, beta)
        assert np.all(np.isnan(out[0]))
        finite = layer_norm_reference(x[1:], gamma, beta)
        assert out[1:].tobytes() == finite.tobytes()


class TestGelu:
    def test_zero(self):
        assert tensor.gelu(np.zeros(1))[0] == 0.0

    def test_large_positive_passes_through(self):
        assert abs(tensor.gelu(np.array([10.0]))[0] - 10.0) < 1e-6

    def test_large_negative_vanishes(self):
        assert abs(tensor.gelu(np.array([-10.0]))[0]) < 1e-6

    def test_matches_quadrature_oracle(self):
        # x * Phi(x) with Phi computed by numeric integration of the
        # standard normal density, an independent route from erf.
        for x in (0.5, 1.0, -0.7, 2.3):
            phi, _ = quad(lambda t: np.exp(-t * t / 2.0)
                          / np.sqrt(2.0 * np.pi), -np.inf, x)
            expected = x * phi
            got = tensor.gelu(np.array([x]))[0]
            assert abs(got - expected) < 1e-8

    def test_single_precision_matches_quadrature_oracle(self):
        for x in (0.5, 1.0, -0.7, 2.3):
            x32 = np.float32(x)
            phi, _ = quad(lambda t: np.exp(-t * t / 2.0)
                          / np.sqrt(2.0 * np.pi), -np.inf, float(x32))
            got = tensor.gelu(np.array([x32]))[0]
            assert got.dtype == np.float32
            assert abs(got - float(x32) * phi) < GELU32_BOUND

    def test_single_precision_error_bound_on_dense_grid(self):
        # 4M points over [-12, 12] in four chunks, against the
        # double-precision GELU of the same (single-precision) inputs
        worst = worst_scaled = 0.0
        for chunk in np.array_split(np.linspace(-12.0, 12.0, 4_000_001), 4):
            x = chunk.astype(np.float32)
            exact = tensor.gelu(x.astype(np.float64))
            err = np.abs(tensor.gelu(x) - exact)
            worst = max(worst, float(err.max()))
            worst_scaled = max(worst_scaled, float(
                (err / np.maximum(1.0, np.abs(chunk))).max()))
        assert worst <= GELU32_BOUND
        assert worst_scaled <= GELU32_SCALED_BOUND

    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    def test_non_finite_inputs(self, dtype):
        with np.errstate(invalid="ignore"):
            out = tensor.gelu(np.array([np.nan, np.inf, -np.inf], dtype=dtype))
        assert out.dtype == dtype
        assert np.isnan(out[0])
        assert out[1] == np.inf
        assert np.isnan(out[2])

    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    def test_extreme_finite_inputs_raise_nothing(self, dtype):
        # (0.5 x) is formed before (1 + erf): x (1 + erf) would overflow
        big = 0.9 * np.finfo(dtype).max
        x = np.array([big, -big, 3e38, -3e38, 1e30, -1e30, 100.0, -100.0,
                      0.0], dtype=dtype)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            g = tensor.gelu(x)
            s = tensor.sigmoid(x)
        assert np.array_equal(g, np.array([big, 0.0, 3e38, 0.0, 1e30, 0.0,
                                           100.0, 0.0, 0.0], dtype=dtype))
        assert np.all(np.signbit(g[[1, 3, 5, 7]]))
        assert np.array_equal(s[[0, 1, 2, 3, 4, 5, 6, 8]],
                              [1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.5])
        # sigmoid(-100) is about 3.7e-44, subnormal in single precision
        exact = 1.0 / (1.0 + np.exp(100.0))
        tol = max(float(np.finfo(dtype).smallest_subnormal),
                  4 * float(np.finfo(dtype).eps) * exact)
        assert abs(float(s[7]) - exact) <= tol


class TestSoftmax:
    def test_uniform(self):
        out = tensor.softmax_rows(np.zeros((1, 4)))
        assert np.allclose(out, 0.25)

    def test_overflow_safe(self):
        out = tensor.softmax_rows(np.array([[1000.0, 1000.0]]))
        assert np.allclose(out, 0.5)
        assert np.all(np.isfinite(out))

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(12)
        out = tensor.softmax_rows(rng.standard_normal((3, 5)))
        assert np.all(np.abs(out.sum(axis=1) - 1.0) <= 1e-12)
        assert np.all((out >= 0.0) & (out <= 1.0))

    def test_matches_naive_form_at_small_magnitude(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((2, 6))
        naive = np.exp(x) / np.exp(x).sum(axis=1, keepdims=True)
        assert_close(tensor.softmax_rows(x), naive, rel=1e-14)

    def test_normalizes_in_place(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((4, 7))
        out = tensor.softmax_rows(x)
        assert out is x
        assert np.all(np.abs(x.sum(axis=1) - 1.0) <= 1e-12)


class TestPatchEmbed:
    def test_delta_kernel_identity(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((3, 4, 4, 2))
        kernel = np.zeros((1, 1, 1, 2, 2))
        kernel[0, 0, 0, 0, 0] = 1.0
        kernel[0, 0, 0, 1, 1] = 1.0
        out = tensor.patch_embed(x, kernel)
        assert_close(out, x, rel=1e-15)

    def test_ones_kernel_sums_window(self):
        # the end frames see one zero padding frame, the middle one none
        x = np.ones((3, 2, 2, 1))
        kernel = np.ones((3, 2, 2, 1, 1))
        out = tensor.patch_embed(x, kernel)
        assert out.shape == (3, 1, 1, 1)
        assert out[:, 0, 0, 0].tolist() == [8.0, 12.0, 8.0]

    def test_matches_loop_oracle(self):
        # patch geometry: spatial stride equal to the spatial kernel extent,
        # temporal padding as in the backbone
        rng = np.random.default_rng(21)
        x = rng.standard_normal((5, 8, 12, 3))
        kernel = rng.standard_normal((3, 4, 4, 3, 2))
        got = tensor.patch_embed(x, kernel)
        want = conv3d_oracle(x, kernel, (1, 4, 4), (1, 0, 0))
        assert got.shape == want.shape
        assert_close(got, want, rel=1e-10)

    def test_backbone_geometry_copies_the_clip_once(self):
        # 16x112x112 RGB clip, 16x16 patches, three temporal taps padded by
        # one frame: the transient peak is one row copy of the clip (18/16
        # of its bytes with the padding frames) plus the small output and
        # one tap's product, the three buffers the meter holds
        rng = np.random.default_rng(24)
        x = rng.standard_normal((16, 112, 112, 3)).astype(np.float32)
        kernel = rng.standard_normal((3, 16, 16, 3, 64)).astype(np.float32)
        meter = MemoryMeter()
        tracemalloc.start()
        try:
            with metering(meter):
                tensor.patch_embed(x, kernel)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * x.nbytes
        assert meter.live == 0
        assert meter.high_water == 18 * 49 * 768 + 2 * 16 * 49 * 64
        assert peak <= 1.01 * meter.high_water * x.itemsize

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            tensor.patch_embed(np.zeros((2, 2, 2, 3)),
                               np.zeros((1, 1, 1, 2, 1)))

    @pytest.mark.parametrize("x_shape, kernel_shape, message", (
        ((2, 4, 4, 1), (3, 2, 1, 1, 1), "square"),
        ((2, 4, 4, 1), (2, 2, 2, 1, 1), "odd"),
        ((2, 5, 4, 1), (3, 2, 2, 1, 1), "whole number"),
        ((2, 4, 6, 1), (3, 4, 4, 1, 1), "whole number"),
        ((2, 4, 4, 1), (3, 0, 0, 1, 1), "whole number")),
        ids=("non_square", "even_kt", "ragged_h", "ragged_w", "empty_patch"))
    def test_bad_geometry_rejected(self, x_shape, kernel_shape, message):
        with pytest.raises(ShapeError, match=message):
            tensor.patch_embed(np.zeros(x_shape), np.zeros(kernel_shape))

    def test_mixed_precision_rejected(self):
        with pytest.raises(ShapeError, match="mixed precisions"):
            tensor.patch_embed(np.zeros((2, 2, 2, 1)),
                               np.zeros((1, 1, 1, 1, 1), dtype=np.float32))

    def test_counts_window_times_output(self):
        x = np.zeros((4, 8, 8, 3))
        kernel = np.zeros((3, 2, 2, 3, 5))
        counter = MacCounter()
        with counting(counter):
            out = tensor.patch_embed(x, kernel)
        assert counter.total == out.size * 3 * 2 * 2 * 3

    @pytest.mark.parametrize("kt", (1, 3, 5))
    def test_count_is_window_times_output_for_any_tap_count(self, kt):
        # the taps' products are all the work, counted where they run
        rng = np.random.default_rng(25)
        x = rng.standard_normal((6, 8, 12, 3))
        kernel = rng.standard_normal((kt, 4, 4, 3, 7))
        counter = MacCounter()
        with counting(counter):
            out = tensor.patch_embed(x, kernel)
        assert out.shape == (6, 2, 3, 7)
        assert counter.total == out.size * kt * 4 * 4 * 3


class TestDwconv3d:
    def test_delta_kernel_identity(self):
        rng = np.random.default_rng(30)
        x = rng.standard_normal((3, 4, 4, 2))
        kernel = np.zeros((3, 3, 3, 2))
        kernel[1, 1, 1, :] = 1.0
        assert_close(tensor.dwconv3d(x, kernel), x, rel=1e-15)

    def test_channels_do_not_mix(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((3, 4, 4, 2))
        x[..., 1] = 0.0
        kernel = rng.standard_normal((3, 3, 3, 2))
        out = tensor.dwconv3d(x, kernel)
        assert np.all(out[..., 1] == 0.0)
        x2 = x.copy()
        x2[..., 1] = rng.standard_normal(x2[..., 1].shape)
        out2 = tensor.dwconv3d(x2, kernel)
        assert np.array_equal(out[..., 0], out2[..., 0])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(32)
        x = rng.standard_normal((3, 4, 4, 2))
        kernel = rng.standard_normal((3, 1, 3, 2))
        assert_close(tensor.dwconv3d(x, kernel), dwconv3d_oracle(x, kernel),
                     rel=1e-10)

    def test_even_extent_rejected(self):
        with pytest.raises(ParamError):
            tensor.dwconv3d(np.zeros((2, 2, 2, 1)), np.zeros((2, 1, 1, 1)))

    def test_counts_taps_times_elements(self):
        x = np.zeros((2, 3, 3, 4))
        kernel = np.zeros((3, 1, 1, 4))
        counter = MacCounter()
        with counting(counter):
            tensor.dwconv3d(x, kernel)
        assert counter.total == x.size * 3


class TestByteReferences:
    """The hand-built buffers, window views and statistics give the bytes of
    the numpy-helper formulations in ``util``."""

    @REFERENCE_CASES
    @given(seed=st.integers(0, 2 ** 32 - 1), dtype=dtypes,
           window=st.tuples(odd_extents, odd_extents, odd_extents),
           extents=st.tuples(st.integers(1, 6), st.integers(1, 6),
                             st.integers(1, 6), st.integers(1, 4)),
           strided=st.booleans())
    def test_dwconv3d(self, seed, dtype, window, extents, strided):
        x = draw_volume(seed, extents, dtype, strided)
        kernel = np.random.default_rng(seed + 1).standard_normal(
            window + extents[3:]).astype(dtype)
        got = tensor.dwconv3d(x, kernel)
        want = dwconv3d_reference(x, kernel)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @REFERENCE_CASES
    @given(seed=st.integers(0, 2 ** 32 - 1), dtype=dtypes, kt=odd_extents,
           p=st.integers(1, 4),
           extents=st.tuples(st.integers(1, 6), st.integers(1, 4),
                             st.integers(1, 4)),
           channels=st.tuples(st.integers(1, 3), st.integers(1, 3)),
           strided=st.booleans())
    def test_patch_embed(self, seed, dtype, kt, p, extents, channels,
                         strided):
        t, gh, gw = extents
        x = draw_volume(seed, (t, gh * p, gw * p, channels[0]), dtype,
                        strided)
        kernel = np.random.default_rng(seed + 1).standard_normal(
            (kt, p, p) + channels).astype(dtype)
        got = tensor.patch_embed(x, kernel)
        want = conv3d_reference(x, kernel, (1, p, p), (kt // 2, 0, 0))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @REFERENCE_CASES
    @given(seed=st.integers(0, 2 ** 32 - 1), dtype=dtypes,
           rows=st.integers(1, 12), d=st.integers(1, 80),
           scale=st.sampled_from((1e-3, 1.0, 1e3)),
           offset=st.sampled_from((0.0, 1.0, -50.0)),
           strided=st.booleans())
    def test_layer_norm(self, seed, dtype, rows, d, scale, offset, strided):
        rng = np.random.default_rng(seed)
        x = (offset + scale * rng.standard_normal((rows, 2 * d)))
        x = (x[:, ::2] if strided else x[:, :d]).astype(dtype)
        gamma = rng.standard_normal(d).astype(dtype)
        beta = rng.standard_normal(d).astype(dtype)
        got = tensor.layer_norm(x, gamma, beta)
        want = layer_norm_reference(x, gamma, beta)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestWindowViews:
    """The depthwise convolution reads its input through a read-only window
    view, the patch embedding through a reshape; neither writes its
    input."""

    @pytest.fixture
    def views(self, monkeypatch):
        made = []

        def recording(*args):
            view = window_view(*args)
            made.append(view)
            return view

        window_view = tensor._window_view
        monkeypatch.setattr(tensor, "_window_view", recording)
        return made

    @pytest.mark.parametrize("padding", (0, 1, 2),
                             ids=lambda frames: f"padding{frames}")
    def test_patch_embed(self, views, padding):
        # ``padding`` zero frames at each end: a temporal extent of 2p+1
        rng = np.random.default_rng(40)
        x = rng.standard_normal((4, 12, 10, 2))[:, ::2]
        x.flags.writeable = False
        kernel = rng.standard_normal((2 * padding + 1, 2, 2, 2, 4))
        before = x.tobytes()
        tensor.patch_embed(x, kernel)
        assert x.tobytes() == before
        assert not views

    def test_dwconv3d(self, views):
        rng = np.random.default_rng(41)
        x = rng.standard_normal((4, 5, 6, 3))
        kernel = rng.standard_normal((3, 3, 3, 3))
        before = x.tobytes()
        tensor.dwconv3d(x, kernel)
        assert x.tobytes() == before
        assert len(views) == 1
        assert not views[0].flags.writeable
        with pytest.raises(ValueError):
            views[0][(0,) * views[0].ndim] = 1.0

    def test_view_matches_sliding_window_view(self):
        from numpy.lib.stride_tricks import sliding_window_view
        x = np.arange(5 * 9 * 7 * 3, dtype=np.float64).reshape(
            5, 9, 7, 3)[:, ::2]
        got = tensor._window_view(x, (3, 3, 2))
        want = sliding_window_view(x, (3, 3, 2), axis=(0, 1, 2))
        assert got.shape == want.shape and got.strides == want.strides
        assert np.array_equal(got, want)


class TestPrecisionNames:
    def test_round_trip(self):
        assert tensor.precision_of(np.zeros(1, dtype=np.float32)) == "single"
        assert tensor.precision_of(np.zeros(1, dtype=np.float64)) == "double"
        assert tensor.dtype_of("single") == np.float32
        assert tensor.dtype_of("double") == np.float64

    def test_unknown_rejected(self):
        with pytest.raises(ParamError):
            tensor.dtype_of("half")
        with pytest.raises(ShapeError):
            tensor.precision_of(np.zeros(1, dtype=np.int32))
