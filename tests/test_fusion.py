"""Global reduction block and the gated two-pathway fusion head."""

import numpy as np
import pytest

from cuenet import blocks, fusion, global_block
from cuenet.attention import ATTENTION_KINDS, ATTENTION_MEAA, ATTENTION_SELF
from cuenet.errors import ParamError, ShapeError
from cuenet.global_block import GlobalBlockParams
from cuenet.instrument import UNATTRIBUTED, MacCounter, counting, tracing
from cuenet.tensor import gelu, layer_norm

from test_blocks import random_attention, random_ffn, random_ln, random_tokens
from util import (assert_close, dpe_reference, dwconv3d_oracle,
                  global_block_reference, matmul_oracle)


def random_global(rng, d, kind, hidden=None, dtype=np.float64):
    hidden = hidden or 2 * d
    attn = random_attention(rng, d, kind, dtype)
    return GlobalBlockParams(
        dpe_kernel=rng.standard_normal((3, 3, 3, d)).astype(dtype),
        ln_tokens=random_ln(rng, d, dtype), attn_kind=kind, attn=attn,
        ln_ffn=random_ln(rng, d, dtype), ffn=random_ffn(rng, d, hidden, dtype))


class TestDpe:
    def test_zero_kernel_is_identity(self):
        rng = np.random.default_rng(60)
        x, grid = random_tokens(rng, frames=3, d=5)
        out = global_block.dpe(x, grid, np.zeros((3, 3, 3, 5)))
        assert np.array_equal(out, x)

    def test_even_extent_rejected(self):
        x, grid = random_tokens(np.random.default_rng(61), d=4)
        with pytest.raises(ParamError):
            global_block.dpe(x, grid, np.zeros((2, 3, 3, 4)))

    def test_class_tokens_bypass(self):
        rng = np.random.default_rng(62)
        x, grid = random_tokens(rng, frames=4, d=4)
        out = global_block.dpe(x, grid, rng.standard_normal((3, 3, 3, 4)))
        assert np.array_equal(out[:, 0, :], x[:, 0, :])
        assert not np.allclose(out[:, 1:, :], x[:, 1:, :])

    def test_matches_residual_oracle(self):
        rng = np.random.default_rng(63)
        x, grid = random_tokens(rng, frames=3, gh=2, gw=2, d=4)
        kernel = rng.standard_normal((3, 1, 3, 4))
        out = global_block.dpe(x, grid, kernel)
        want = x.copy()
        want[:, 1:, :] += dwconv3d_oracle(x[:, 1:, :].reshape(3, 2, 2, 4),
                                          kernel).reshape(3, 4, 4)
        assert_close(out, want, rel=1e-12)
        for dtype in (np.float64, np.float32):
            x32, k32 = x.astype(dtype), kernel.astype(dtype)
            assert global_block.dpe(x32, grid, k32).tobytes() \
                == dpe_reference(x32, grid, k32).tobytes()


class TestRowFfn:
    """:func:`blocks.ffn` on the global block's single (1, d) row."""

    def test_matches_composition(self):
        rng = np.random.default_rng(70)
        d, hidden = 4, 9
        x = rng.standard_normal((1, d))
        p = random_ffn(rng, d, hidden)
        ln = random_ln(rng, d)
        got = blocks.ffn(x, ln, p)
        normed = layer_norm(x, ln.gamma, ln.beta)
        want = x + (gelu(matmul_oracle(normed, p.w1) + p.b1) @ p.w2 + p.b2)
        assert_close(got, want, rel=1e-10)

    def test_zero_output_weights_keep_residual(self):
        rng = np.random.default_rng(71)
        x = rng.standard_normal((1, 5))
        p = random_ffn(rng, 5, 7)
        p.w2[:] = 0.0
        p.b2[:] = 0.0
        got = blocks.ffn(x, random_ln(rng, 5), p)
        assert np.array_equal(got, x)


class TestGlobalBlock:
    @pytest.mark.parametrize("kind", ATTENTION_KINDS)
    def test_matches_manual_staging(self, kind):
        # byte for byte against the earlier composition, in both
        # precisions; that composition adds the feed-forward bias after the
        # residual, which gives the same bytes only for a zero bias
        d, heads = 8, 2
        for dtype in (np.float64, np.float32):
            rng = np.random.default_rng(80)
            x, grid = random_tokens(rng, frames=3, d=d)
            x = x.astype(dtype)
            p = random_global(rng, d, kind, dtype=dtype)
            p.ffn.b2[:] = 0.0
            got = global_block.global_uniblock_forward(x, grid, p, heads)
            want = global_block_reference(x, grid, p, heads)
            assert got.shape == (1, d)
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes()

    def test_pooled_vector_carries_no_token_residual(self):
        # zeroed attention and feed-forward output maps force an exact
        # zero clip vector; any residual from the token rows would leak
        rng = np.random.default_rng(81)
        d = 6
        x, grid = random_tokens(rng, frames=3, d=d)
        p = random_global(rng, d, ATTENTION_MEAA)
        p.attn.w2[:] = 0.0
        p.attn.b2[:] = 0.0
        p.ffn.w2[:] = 0.0
        p.ffn.b2[:] = 0.0
        out = global_block.global_uniblock_forward(x, grid, p, heads=2)
        assert np.all(out == 0.0)

    def test_stage_attribution_and_counts(self):
        rng = np.random.default_rng(82)
        d, heads = 8, 2
        x, (gh, gw) = random_tokens(rng, frames=3, gh=2, gw=2, d=d)
        p = random_global(rng, d, ATTENTION_SELF)
        counter = MacCounter()
        with counting(counter):
            global_block.global_uniblock_forward(x, (gh, gw), p, heads)
        assert set(counter.stages) == {"global.dpe", "global.attn",
                                       "global.ffn"}
        assert counter.stages.get(UNATTRIBUTED, 0) == 0
        n = x.shape[0] * x.shape[1]
        hidden = p.ffn.w1.shape[1]
        assert counter.stages["global.dpe"] \
            == x.shape[0] * gh * gw * d * 27
        assert counter.stages["global.attn"] \
            == 4 * n * d * d + n * d + 2 * n * n * d + d
        assert counter.stages["global.ffn"] == 2 * d * hidden

    def test_trace_records_intermediate_shapes(self):
        rng = np.random.default_rng(83)
        d = 8
        x, grid = random_tokens(rng, frames=3, gh=2, gw=2, d=d)
        p = random_global(rng, d, ATTENTION_MEAA)
        trace = {}
        with tracing(trace):
            global_block.global_uniblock_forward(x, grid, p, heads=2)
        assert trace == {"global.dpe": (3, 5, d),
                         "global.tokens": (15, d),
                         "global.pooled": (1, d),
                         "global.out": (1, d)}


class TestExtractClassToken:
    def test_single_frame_returns_class_token(self):
        rng = np.random.default_rng(90)
        x, _ = random_tokens(rng, frames=1, d=5)
        out = fusion.extract_class_token(x)
        assert_close(out, x[:1, 0, :], rel=1e-15)

    def test_mean_oracle(self):
        rng = np.random.default_rng(91)
        x, _ = random_tokens(rng, frames=5, d=6)
        out = fusion.extract_class_token(x)
        want = x[:, 0, :].mean(axis=0, keepdims=True)
        assert out.shape == (1, 6)
        assert_close(out, want, rel=1e-14)

    def test_ignores_spatial_tokens(self):
        rng = np.random.default_rng(92)
        x, _ = random_tokens(rng, frames=3, d=4)
        base = fusion.extract_class_token(x)
        bumped = x.copy()
        bumped[:, 1:, :] += 100.0
        redone = fusion.extract_class_token(bumped)
        assert np.array_equal(redone, base)


class TestFuse:
    def test_zero_gate_mixes_equally(self):
        rng = np.random.default_rng(100)
        a = rng.standard_normal((1, 7))
        b = rng.standard_normal((1, 7))
        out = fusion.fuse(a, b, np.zeros((1, 7)))
        assert_close(out, 0.5 * (a + b), rel=1e-15)

    def test_saturated_gate_selects_one_pathway(self):
        rng = np.random.default_rng(101)
        a = rng.standard_normal((1, 6))
        b = rng.standard_normal((1, 6))
        only_local = fusion.fuse(a, b, np.full((1, 6), 40.0))
        only_global = fusion.fuse(a, b, np.full((1, 6), -40.0))
        assert_close(only_local, b, rel=1e-10)
        assert_close(only_global, a, rel=1e-10)

    def test_elementwise_convexity(self):
        rng = np.random.default_rng(102)
        for _ in range(50):
            a = rng.standard_normal((1, 8))
            b = rng.standard_normal((1, 8))
            beta = 5.0 * rng.standard_normal((1, 8))
            out = fusion.fuse(a, b, beta)
            low = np.minimum(a, b) - 1e-12
            high = np.maximum(a, b) + 1e-12
            assert np.all(out >= low)
            assert np.all(out <= high)

    def test_swapping_pathways_negates_gate(self):
        rng = np.random.default_rng(103)
        a = rng.standard_normal((1, 5))
        b = rng.standard_normal((1, 5))
        beta = rng.standard_normal((1, 5))
        assert_close(fusion.fuse(a, b, beta), fusion.fuse(b, a, -beta),
                     rel=1e-12)

    def test_shape_disagreement_rejected(self):
        with pytest.raises(ShapeError):
            fusion.fuse(np.zeros((1, 4)), np.zeros((1, 5)),
                        np.zeros((1, 4)))

    def test_fusion_head_work_count(self):
        rng = np.random.default_rng(104)
        d, classes = 8, 2
        x, _ = random_tokens(rng, frames=3, d=d)
        p = fusion.FusionParams(beta=rng.standard_normal((1, d)),
                                proj=rng.standard_normal((d, classes)),
                                bias=rng.standard_normal(classes))
        counter = MacCounter()
        with counting(counter):
            local_vec = fusion.extract_class_token(x)
            z = fusion.fuse(rng.standard_normal((1, d)), local_vec, p.beta)
            fusion.classify(z, p)
        assert counter.total == 3 * d + d * classes


class TestFuseGrad:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(110)
        d, eps = 6, 1e-6
        a = rng.standard_normal((1, d))
        b = rng.standard_normal((1, d))
        beta = rng.standard_normal((1, d))
        upstream = rng.standard_normal((1, d))
        g_global, g_local, g_beta = fusion.fuse_grad(a, b, beta, upstream)
        for array, analytic in ((a, g_global), (b, g_local), (beta, g_beta)):
            numeric = np.zeros_like(array)
            for i in range(d):
                original = array[0, i]
                array[0, i] = original + eps
                high = float((upstream * fusion.fuse(a, b, beta)).sum())
                array[0, i] = original - eps
                low = float((upstream * fusion.fuse(a, b, beta)).sum())
                array[0, i] = original
                numeric[0, i] = (high - low) / (2 * eps)
            assert np.allclose(analytic, numeric, rtol=1e-6, atol=1e-6)


class TestClassify:
    def test_zero_projection_emits_bias(self):
        p = fusion.FusionParams(beta=np.zeros((1, 4)),
                                proj=np.zeros((4, 2)),
                                bias=np.array([0.25, -1.5]))
        logits = fusion.classify(np.ones((1, 4)), p)
        assert np.array_equal(logits, p.bias)

    def test_matches_matmul_oracle(self):
        rng = np.random.default_rng(120)
        d, classes = 6, 2
        z = rng.standard_normal((1, d))
        p = fusion.FusionParams(beta=np.zeros((1, d)),
                                proj=rng.standard_normal((d, classes)),
                                bias=rng.standard_normal(classes))
        logits = fusion.classify(z, p)
        want = (matmul_oracle(z, p.proj) + p.bias).reshape(-1)
        assert logits.shape == (classes,)
        assert_close(logits, want, rel=1e-13)

    def test_grad_matches_central_differences(self):
        rng = np.random.default_rng(121)
        d, classes, eps = 5, 2, 1e-6
        z = rng.standard_normal((1, d))
        p = fusion.FusionParams(beta=np.zeros((1, d)),
                                proj=rng.standard_normal((d, classes)),
                                bias=rng.standard_normal(classes))
        upstream = rng.standard_normal(classes)
        g_z, g_proj, g_bias = fusion.classify_grad(z, p, upstream)
        targets = ((z, g_z), (p.proj, g_proj), (p.bias, g_bias))
        for array, analytic in targets:
            numeric = np.zeros_like(array)
            flat = array.reshape(-1)
            num_flat = numeric.reshape(-1)
            for i in range(flat.size):
                original = flat[i]
                flat[i] = original + eps
                high = float((upstream * fusion.classify(z, p)).sum())
                flat[i] = original - eps
                low = float((upstream * fusion.classify(z, p)).sum())
                flat[i] = original
                num_flat[i] = (high - low) / (2 * eps)
            assert np.allclose(np.asarray(analytic).reshape(numeric.shape),
                               numeric, rtol=1e-6, atol=1e-6)


class TestDecision:
    def test_probabilities_normalize_and_order(self):
        probs = fusion.probabilities(np.array([2.0, -1.0]))
        assert abs(probs.sum() - 1.0) < 1e-12
        assert probs[0] > probs[1]

    def test_probabilities_survive_large_logits(self):
        probs = fusion.probabilities(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(probs))
        assert abs(probs[0] - 1.0) < 1e-12

    def test_equal_logits_split_evenly(self):
        probs = fusion.probabilities(np.array([3.0, 3.0]))
        assert_close(probs, np.array([0.5, 0.5]), rel=1e-15)

    def test_labels(self):
        assert fusion.predicted_label(np.array([1.0, -1.0])) == "NonViolent"
        assert fusion.predicted_label(np.array([-0.5, 0.5])) == "Violent"
        assert fusion.predicted_label(np.array([0.0, 0.0])) == "NonViolent"
