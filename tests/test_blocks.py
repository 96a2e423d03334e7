"""Local block sub-units: temporal affinity, per-frame mixers, feed-forward."""

import numpy as np
import pytest

from cuenet import attention, blocks
from cuenet.attention import ATTENTION_KINDS, ATTENTION_MEAA, ATTENTION_SELF
from cuenet.blocks import FfnParams, LnParams, LocalBlockParams, LtParams
from cuenet.errors import ShapeError
from cuenet.instrument import (UNATTRIBUTED, MacCounter, MemoryMeter,
                               counting, metering)
from cuenet.tensor import gelu, layer_norm

from util import (assert_close, dwconv3d_oracle, eaa_oracle,
                  local_block_reference, matmul_oracle, meaa_oracle,
                  mhsa_oracle, random_additive_params, random_mhsa_params)


def random_tokens(rng, frames=3, gh=2, gw=2, d=8):
    """A (frames, 1 + gh*gw, d) token array and its grid."""
    return rng.standard_normal((frames, gh * gw + 1, d)), (gh, gw)


def random_ln(rng, d, dtype=np.float64):
    return LnParams(gamma=(1.0 + 0.1 * rng.standard_normal(d)).astype(dtype),
                    beta=(0.1 * rng.standard_normal(d)).astype(dtype))


def random_lt(rng, d, kt=3, dtype=np.float64):
    return LtParams(
        value=(rng.standard_normal((d, d)) / np.sqrt(d)).astype(dtype),
        kernel=rng.standard_normal((kt, 1, 1, d)).astype(dtype),
        fuse=(rng.standard_normal((d, d)) / np.sqrt(d)).astype(dtype))


def random_ffn(rng, d, hidden, dtype=np.float64):
    return FfnParams(
        w1=(rng.standard_normal((d, hidden)) / np.sqrt(d)).astype(dtype),
        b1=(0.1 * rng.standard_normal(hidden)).astype(dtype),
        w2=(rng.standard_normal((hidden, d)) / np.sqrt(hidden)).astype(dtype),
        b2=(0.1 * rng.standard_normal(d)).astype(dtype))


def random_attention(rng, d, kind, dtype=np.float64):
    """Seeded parameter group for one attention kind."""
    if kind == ATTENTION_SELF:
        return random_mhsa_params(rng, d, 2, dtype)
    p = random_additive_params(rng, d, with_q=kind == ATTENTION_MEAA,
                               dtype=dtype)
    if kind == ATTENTION_MEAA:
        p.q_ln = random_ln(rng, d, dtype)
    return p


def random_block(rng, d, kind, kt=3, hidden=None, dtype=np.float64):
    hidden = hidden or 2 * d
    attn = random_attention(rng, d, kind, dtype)
    return LocalBlockParams(ln1=random_ln(rng, d, dtype),
                            lt=random_lt(rng, d, kt, dtype),
                            ln2=random_ln(rng, d, dtype), attn=attn,
                            ln3=random_ln(rng, d, dtype),
                            ffn=random_ffn(rng, d, hidden, dtype))


class TestTokenField:
    """The (frames, 1 + gh*gw, d) token layout, as
    :func:`blocks.spatial_dwconv` checks and reads it."""

    def test_token_count_must_match_grid(self):
        with pytest.raises(ShapeError):
            blocks.spatial_dwconv(np.zeros((2, 6, 3)), (2, 2),
                                  np.ones((1, 1, 1, 3)))

    def test_negative_grid_rejected(self):
        with pytest.raises(ShapeError):
            blocks.spatial_dwconv(np.zeros((2, 5, 3)), (-2, -2),
                                  np.ones((1, 1, 1, 3)))

    def test_rank_checked(self):
        with pytest.raises(ShapeError):
            blocks.spatial_dwconv(np.zeros((2, 5)), (2, 2),
                                  np.ones((1, 1, 1, 3)))

    def test_spatial_volume_layout(self):
        # a kernel whose only tap reads the left neighbour moves volume
        # [i, j - 1] to [i, j]; the output's token order then shows where
        # each input token sat in the volume
        rng = np.random.default_rng(2)
        x, (gh, gw) = random_tokens(rng, frames=2, gh=2, gw=3, d=4)
        kernel = np.zeros((1, 1, 3, 4))
        kernel[0, 0, 0] = 1.0
        out = blocks.spatial_dwconv(x, (gh, gw), kernel)
        assert out.shape == (2, 6, 4)
        for t in range(2):
            for i in range(gh):
                assert np.all(out[t, i * gw] == 0.0)
                for j in range(1, gw):
                    assert np.array_equal(out[t, i * gw + j],
                                          x[t, 1 + i * gw + j - 1])


class TestLtMhra:
    def test_identity_configuration_is_identity(self):
        rng = np.random.default_rng(10)
        d = 6
        x, grid = random_tokens(rng, d=d)
        p = LtParams(value=np.eye(d), kernel=np.ones((1, 1, 1, d)),
                     fuse=np.eye(d))
        out = blocks.lt_mhra(x, grid, p)
        assert np.array_equal(out, x)

    def test_center_tap_kernel_skips_temporal_mixing(self):
        rng = np.random.default_rng(11)
        d = 5
        x, grid = random_tokens(rng, frames=4, d=d)
        kernel = np.zeros((3, 1, 1, d))
        kernel[1] = 1.0
        p = LtParams(value=np.eye(d), kernel=kernel, fuse=np.eye(d))
        out = blocks.lt_mhra(x, grid, p)
        assert_close(out, x, rel=1e-14)

    def test_unit_sum_taps_preserve_static_interior_frames(self):
        # time-constant tokens are a fixed point of the temporal taps away
        # from the zero-padded boundary when the taps sum to one
        rng = np.random.default_rng(12)
        d, frames = 4, 6
        taps = rng.standard_normal((3, 1, 1, d))
        taps /= taps.sum(axis=0, keepdims=True)
        p = LtParams(value=np.eye(d), kernel=taps, fuse=np.eye(d))
        frame = rng.standard_normal((1, 5, d))
        x = np.repeat(frame, frames, axis=0)
        out = blocks.lt_mhra(x, (2, 2), p)
        assert_close(out[1:-1], x[1:-1], rel=1e-12)

    def test_class_token_bypasses_temporal_taps(self):
        rng = np.random.default_rng(13)
        d = 4
        x, grid = random_tokens(rng, frames=5, d=d)
        p = random_lt(rng, d)
        out = blocks.lt_mhra(x, grid, p)
        expected_class = matmul_oracle(
            matmul_oracle(x[:, 0, :], p.value), p.fuse)
        assert_close(out[:, 0, :], expected_class, rel=1e-12)

    def test_matches_composition_oracle(self):
        rng = np.random.default_rng(14)
        d, frames, gh, gw = 4, 4, 2, 2
        x, grid = random_tokens(rng, frames=frames, gh=gh, gw=gw, d=d)
        p = random_lt(rng, d)
        out = blocks.lt_mhra(x, grid, p)

        proj = matmul_oracle(x.reshape(-1, d), p.value).reshape(x.shape)
        mixed = proj.copy()
        volume = proj[:, 1:, :].reshape(frames, gh, gw, d)
        mixed[:, 1:, :] = dwconv3d_oracle(volume, p.kernel).reshape(
            frames, gh * gw, d)
        want = matmul_oracle(mixed.reshape(-1, d), p.fuse).reshape(x.shape)
        assert_close(out, want, rel=1e-10)


class TestGsMhra:
    """The local block's mixer: one row-preserving ``attention.attend`` call
    on the (frames, tokens, d) stack, each frame attending within itself."""

    def test_matches_per_frame_oracle(self):
        rng = np.random.default_rng(20)
        d = 8
        x, _ = random_tokens(rng, frames=3, d=d)
        p = random_mhsa_params(rng, d, 2)
        out = attention.attend(x, p)
        for t in range(x.shape[0]):
            assert_close(out[t], mhsa_oracle(x[t], p), rel=1e-12)

    def test_frames_do_not_interact(self):
        rng = np.random.default_rng(21)
        x, _ = random_tokens(rng, frames=3, d=8)
        p = random_mhsa_params(rng, 8, 2)
        base = attention.attend(x, p)
        bumped = x.copy()
        bumped[1] += 10.0
        redone = attention.attend(bumped, p)
        assert np.array_equal(redone[0], base[0])
        assert np.array_equal(redone[2], base[2])
        assert not np.allclose(redone[1], base[1])

    def test_head_count_must_divide_width(self):
        rng = np.random.default_rng(22)
        x, _ = random_tokens(rng, d=6)
        with pytest.raises(ShapeError):
            attention.attend(x, random_mhsa_params(rng, 6, 4))


class TestAdditiveMixer:
    def test_modified_kind_normalizes_shared_query_once(self):
        rng = np.random.default_rng(30)
        d = 6
        x, _ = random_tokens(rng, frames=3, d=d)
        p = random_additive_params(rng, d, with_q=True)
        p.q_ln = q_ln = random_ln(rng, d)
        out = attention.attend(x, p)
        q_normed = layer_norm(p.q, q_ln.gamma, q_ln.beta)
        for t in range(x.shape[0]):
            assert_close(out[t], meaa_oracle(q_normed, x[t], p, pooled=False),
                         rel=1e-12)

    def test_original_kind_matches_oracle(self):
        rng = np.random.default_rng(31)
        d = 6
        x, _ = random_tokens(rng, frames=2, d=d)
        p = random_additive_params(rng, d, with_q=False)
        out = attention.attend(x, p)
        for t in range(x.shape[0]):
            assert_close(out[t], eaa_oracle(x[t], p, pooled=False),
                         rel=1e-12)


class TestFfn:
    """:func:`blocks.ffn` returns ``x`` plus the unit's output, so each
    check is on ``out - x`` or on ``out`` against ``x`` plus a known
    output."""

    def test_zero_weights_give_zero(self):
        rng = np.random.default_rng(40)
        x, _ = random_tokens(rng, d=4)
        p = FfnParams(w1=np.zeros((4, 8)), b1=np.zeros(8),
                      w2=np.zeros((8, 4)), b2=np.zeros(4))
        out = blocks.ffn(x, random_ln(rng, 4), p)
        assert np.all(out - x == 0.0)

    def test_matches_composition(self):
        rng = np.random.default_rng(41)
        x, _ = random_tokens(rng, d=4)
        p = random_ffn(rng, 4, 8)
        ln = random_ln(rng, 4)
        out = blocks.ffn(x, ln, p)
        normed = layer_norm(x, ln.gamma, ln.beta).reshape(-1, 4)
        want = x + (gelu(matmul_oracle(normed, p.w1) + p.b1) @ p.w2
                    + p.b2).reshape(x.shape)
        assert_close(out, want, rel=1e-10)

    def test_bias_only_network_emits_bias(self):
        rng = np.random.default_rng(42)
        d, hidden = 3, 5
        x, _ = random_tokens(rng, d=d)
        b2 = rng.standard_normal(d)
        p = FfnParams(w1=np.zeros((d, hidden)), b1=np.zeros(hidden),
                      w2=np.zeros((hidden, d)), b2=b2)
        out = blocks.ffn(x, random_ln(rng, d), p)
        assert np.array_equal(out, x + np.broadcast_to(b2, x.shape))

    def test_meter_holds_the_gelu_output_until_return(self):
        rng = np.random.default_rng(43)
        x, _ = random_tokens(rng, d=4)
        meter = MemoryMeter()
        with metering(meter):
            blocks.ffn(x, random_ln(rng, 4), random_ffn(rng, 4, 8))
        assert meter.live == 0
        assert meter.high_water == x.size // 4 * 8


class TestLocalBlock:
    @pytest.mark.parametrize("kind", ATTENTION_KINDS)
    def test_matches_manual_staging(self, kind):
        # byte for byte against the block as composed from separately
        # normalized sub-units, in both precisions
        d = 8
        for dtype in (np.float64, np.float32):
            rng = np.random.default_rng(50)
            x, grid = random_tokens(rng, frames=4, d=d)
            x = x.astype(dtype)
            p = random_block(rng, d, kind, dtype=dtype)
            got = blocks.local_uniblock_forward(x, grid, p, "local0")
            want = local_block_reference(x, grid, p)
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes()

    def test_zero_subunit_outputs_leave_residual_stream_unchanged(self):
        # zeroed fuse, value-path and ffn output weights make every
        # sub-unit emit zeros, so the block is the identity
        rng = np.random.default_rng(51)
        d = 6
        x, grid = random_tokens(rng, d=d)
        p = random_block(rng, d, ATTENTION_SELF)
        p.lt.fuse[:] = 0.0
        p.attn.fuse[:] = 0.0
        p.ffn.w2[:] = 0.0
        p.ffn.b2[:] = 0.0
        out = blocks.local_uniblock_forward(x, grid, p, "local0")
        assert np.array_equal(out, x)

    def test_stage_attribution(self):
        rng = np.random.default_rng(52)
        d = 8
        x, (gh, gw) = random_tokens(rng, frames=2, d=d)
        p = random_block(rng, d, ATTENTION_SELF)
        counter = MacCounter()
        with counting(counter):
            blocks.local_uniblock_forward(x, (gh, gw), p, "local0")
        assert set(counter.stages) == {"local0.lt", "local0.attn",
                                       "local0.ffn"}
        assert counter.stages.get(UNATTRIBUTED, 0) == 0

        frames, m = x.shape[:2]
        tokens = frames * m
        s = gh * gw
        kt = p.lt.kernel.shape[0]
        hidden = p.ffn.w1.shape[1]
        assert counter.stages["local0.lt"] \
            == 2 * tokens * d * d + frames * s * d * kt
        assert counter.stages["local0.attn"] \
            == frames * (4 * m * d * d + m * d + 2 * m * m * d)
        assert counter.stages["local0.ffn"] == 2 * tokens * d * hidden
