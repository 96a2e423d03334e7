"""Local block sub-units: temporal affinity, per-frame mixers, feed-forward."""

import numpy as np
import pytest

from cuenet import blocks
from cuenet.blocks import (FfnParams, LnParams, LocalBlockParams, LtParams,
                           TokenField)
from cuenet.errors import ConfigError, ShapeError
from cuenet.instrument import UNATTRIBUTED, MacCounter, counting
from cuenet.tensor import gelu, layer_norm, matmul

from util import (assert_close, dwconv3d_oracle, eaa_oracle, matmul_oracle,
                  meaa_oracle, mhsa_oracle, random_additive_params,
                  random_mhsa_params)


def random_field(rng, frames=3, gh=2, gw=2, d=8):
    data = rng.standard_normal((frames, gh * gw + 1, d))
    return TokenField(data=data, grid=(gh, gw))


def random_ln(rng, d):
    return LnParams(gamma=1.0 + 0.1 * rng.standard_normal(d),
                    beta=0.1 * rng.standard_normal(d))


def random_lt(rng, d, kt=3):
    return LtParams(value=rng.standard_normal((d, d)) / np.sqrt(d),
                    kernel=rng.standard_normal((kt, 1, 1, d)),
                    fuse=rng.standard_normal((d, d)) / np.sqrt(d))


def random_ffn(rng, d, hidden):
    return FfnParams(w1=rng.standard_normal((d, hidden)) / np.sqrt(d),
                     b1=0.1 * rng.standard_normal(hidden),
                     w2=rng.standard_normal((hidden, d)) / np.sqrt(hidden),
                     b2=0.1 * rng.standard_normal(d))


def random_attention(rng, d, kind):
    """Seeded parameter group for one attention kind."""
    if kind == blocks.ATTENTION_SELF:
        return random_mhsa_params(rng, d)
    p = random_additive_params(rng, d, with_q=kind == blocks.ATTENTION_MEAA)
    if kind == blocks.ATTENTION_MEAA:
        p.q_ln = random_ln(rng, d)
    return p


def random_block(rng, d, kind, kt=3, hidden=None):
    hidden = hidden or 2 * d
    attn = random_attention(rng, d, kind)
    return LocalBlockParams(ln1=random_ln(rng, d), lt=random_lt(rng, d, kt),
                            ln2=random_ln(rng, d), attn_kind=kind, attn=attn,
                            ln3=random_ln(rng, d),
                            ffn=random_ffn(rng, d, hidden))


class TestTokenField:
    def test_properties(self):
        field = random_field(np.random.default_rng(0), frames=4, gh=3, gw=2,
                             d=5)
        assert field.frames == 4
        assert field.spatial_tokens == 6
        assert field.hidden == 5
        assert field.data.shape == (4, 7, 5)

    def test_token_count_must_match_grid(self):
        with pytest.raises(ShapeError):
            TokenField(data=np.zeros((2, 6, 3)), grid=(2, 2))

    def test_negative_grid_rejected(self):
        with pytest.raises(ShapeError):
            TokenField(data=np.zeros((2, 5, 3)), grid=(-2, -2))

    def test_rank_checked(self):
        with pytest.raises(ShapeError):
            TokenField(data=np.zeros((2, 5)), grid=(2, 2))

    def test_with_data_shape_checked(self):
        field = random_field(np.random.default_rng(1))
        with pytest.raises(ShapeError):
            field.with_data(np.zeros((1, 1, 1)))

    def test_spatial_volume_layout(self):
        rng = np.random.default_rng(2)
        field = random_field(rng, frames=2, gh=2, gw=3, d=4)
        volume = field.spatial_volume()
        assert volume.shape == (2, 2, 3, 4)
        for t in range(2):
            for i in range(2):
                for j in range(3):
                    assert np.array_equal(volume[t, i, j],
                                          field.data[t, 1 + i * 3 + j])

    def test_flat_is_frame_major(self):
        rng = np.random.default_rng(3)
        field = random_field(rng, frames=2, gh=1, gw=2, d=3)
        flat = field.flat()
        assert flat.shape == (6, 3)
        assert np.array_equal(flat[3], field.data[1, 0])


class TestLtMhra:
    def test_identity_configuration_is_identity(self):
        rng = np.random.default_rng(10)
        d = 6
        field = random_field(rng, d=d)
        p = LtParams(value=np.eye(d), kernel=np.ones((1, 1, 1, d)),
                     fuse=np.eye(d))
        out = blocks.lt_mhra(field, p)
        assert np.array_equal(out.data, field.data)

    def test_center_tap_kernel_skips_temporal_mixing(self):
        rng = np.random.default_rng(11)
        d = 5
        field = random_field(rng, frames=4, d=d)
        kernel = np.zeros((3, 1, 1, d))
        kernel[1] = 1.0
        p = LtParams(value=np.eye(d), kernel=kernel, fuse=np.eye(d))
        out = blocks.lt_mhra(field, p)
        assert_close(out.data, field.data, rel=1e-14)

    def test_unit_sum_taps_preserve_static_interior_frames(self):
        # a time-constant field is a fixed point of the temporal taps away
        # from the zero-padded boundary when the taps sum to one
        rng = np.random.default_rng(12)
        d, frames = 4, 6
        taps = rng.standard_normal((3, 1, 1, d))
        taps /= taps.sum(axis=0, keepdims=True)
        p = LtParams(value=np.eye(d), kernel=taps, fuse=np.eye(d))
        frame = rng.standard_normal((1, 5, d))
        field = TokenField(data=np.repeat(frame, frames, axis=0), grid=(2, 2))
        out = blocks.lt_mhra(field, p)
        assert_close(out.data[1:-1], field.data[1:-1], rel=1e-12)

    def test_class_token_bypasses_temporal_taps(self):
        rng = np.random.default_rng(13)
        d = 4
        field = random_field(rng, frames=5, d=d)
        p = random_lt(rng, d)
        out = blocks.lt_mhra(field, p)
        expected_class = matmul_oracle(
            matmul_oracle(field.data[:, 0, :], p.value), p.fuse)
        assert_close(out.data[:, 0, :], expected_class, rel=1e-12)

    def test_matches_composition_oracle(self):
        rng = np.random.default_rng(14)
        d, frames, gh, gw = 4, 4, 2, 2
        field = random_field(rng, frames=frames, gh=gh, gw=gw, d=d)
        p = random_lt(rng, d)
        out = blocks.lt_mhra(field, p)

        proj = matmul_oracle(field.flat(), p.value).reshape(field.data.shape)
        mixed = proj.copy()
        volume = proj[:, 1:, :].reshape(frames, gh, gw, d)
        mixed[:, 1:, :] = dwconv3d_oracle(volume, p.kernel).reshape(
            frames, gh * gw, d)
        want = matmul_oracle(mixed.reshape(-1, d), p.fuse).reshape(
            field.data.shape)
        assert_close(out.data, want, rel=1e-10)


class TestGsMhra:
    def test_matches_per_frame_oracle(self):
        rng = np.random.default_rng(20)
        d, heads = 8, 2
        field = random_field(rng, frames=3, d=d)
        p = random_mhsa_params(rng, d)
        out = blocks.frame_mixer(field, blocks.ATTENTION_SELF, p, heads)
        for t in range(field.frames):
            assert_close(out.data[t], mhsa_oracle(field.data[t], p, heads),
                         rel=1e-12)

    def test_frames_do_not_interact(self):
        rng = np.random.default_rng(21)
        field = random_field(rng, frames=3, d=8)
        p = random_mhsa_params(rng, 8)
        base = blocks.frame_mixer(field, blocks.ATTENTION_SELF, p, heads=2)
        bumped = field.data.copy()
        bumped[1] += 10.0
        redone = blocks.frame_mixer(field.with_data(bumped),
                                    blocks.ATTENTION_SELF, p, heads=2)
        assert np.array_equal(redone.data[0], base.data[0])
        assert np.array_equal(redone.data[2], base.data[2])
        assert not np.allclose(redone.data[1], base.data[1])

    def test_head_count_must_divide_width(self):
        rng = np.random.default_rng(22)
        field = random_field(rng, d=6)
        with pytest.raises(ShapeError):
            blocks.frame_mixer(field, blocks.ATTENTION_SELF,
                               random_mhsa_params(rng, 6), heads=4)


class TestAdditiveMixer:
    def test_modified_kind_normalizes_shared_query_once(self):
        rng = np.random.default_rng(30)
        d = 6
        field = random_field(rng, frames=3, d=d)
        p = random_additive_params(rng, d, with_q=True)
        p.q_ln = q_ln = random_ln(rng, d)
        out = blocks.frame_mixer(field, blocks.ATTENTION_MEAA, p, heads=1)
        q_normed = layer_norm(p.q, q_ln.gamma, q_ln.beta)
        for t in range(field.frames):
            assert_close(out.data[t],
                         meaa_oracle(q_normed, field.data[t], p,
                                     pooled=False), rel=1e-12)

    def test_original_kind_matches_oracle(self):
        rng = np.random.default_rng(31)
        d = 6
        field = random_field(rng, frames=2, d=d)
        p = random_additive_params(rng, d, with_q=False)
        out = blocks.frame_mixer(field, blocks.ATTENTION_EAA, p, heads=1)
        for t in range(field.frames):
            assert_close(out.data[t],
                         eaa_oracle(field.data[t], p, pooled=False),
                         rel=1e-12)


class TestFfn:
    def test_zero_weights_give_zero(self):
        rng = np.random.default_rng(40)
        field = random_field(rng, d=4)
        p = FfnParams(w1=np.zeros((4, 8)), b1=np.zeros(8),
                      w2=np.zeros((8, 4)), b2=np.zeros(4))
        out = blocks.ffn(field, p)
        assert np.all(out.data == 0.0)

    def test_matches_composition(self):
        rng = np.random.default_rng(41)
        field = random_field(rng, d=4)
        p = random_ffn(rng, 4, 8)
        out = blocks.ffn(field, p)
        flat = field.flat()
        want = (gelu(matmul_oracle(flat, p.w1) + p.b1) @ p.w2
                + p.b2).reshape(field.data.shape)
        assert_close(out.data, want, rel=1e-10)

    def test_bias_only_network_emits_bias(self):
        rng = np.random.default_rng(42)
        d, hidden = 3, 5
        field = random_field(rng, d=d)
        b2 = rng.standard_normal(d)
        p = FfnParams(w1=np.zeros((d, hidden)), b1=np.zeros(hidden),
                      w2=np.zeros((hidden, d)), b2=b2)
        out = blocks.ffn(field, p)
        assert np.array_equal(out.data, np.broadcast_to(
            b2, field.data.shape))


class TestLocalBlock:
    @pytest.mark.parametrize("kind", blocks.ATTENTION_KINDS)
    def test_matches_manual_staging(self, kind):
        rng = np.random.default_rng(50)
        d, heads = 8, 2
        field = random_field(rng, frames=4, d=d)
        p = random_block(rng, d, kind)
        got = blocks.local_uniblock_forward(field, p, heads)

        def normed(f, ln):
            return f.with_data(layer_norm(f.data, ln.gamma, ln.beta))

        stagewise = field
        mixed = blocks.lt_mhra(normed(stagewise, p.ln1), p.lt)
        stagewise = stagewise.with_data(stagewise.data + mixed.data)
        mixed = blocks.frame_mixer(normed(stagewise, p.ln2), kind, p.attn,
                                   heads)
        stagewise = stagewise.with_data(stagewise.data + mixed.data)
        lifted = blocks.ffn(normed(stagewise, p.ln3), p.ffn)
        stagewise = stagewise.with_data(stagewise.data + lifted.data)

        assert np.array_equal(got.data, stagewise.data)
        assert got.grid == field.grid

    def test_zero_subunit_outputs_leave_residual_stream_unchanged(self):
        # zeroed fuse, value-path and ffn output weights make every
        # sub-unit emit zeros, so the block is the identity
        rng = np.random.default_rng(51)
        d = 6
        field = random_field(rng, d=d)
        p = random_block(rng, d, blocks.ATTENTION_SELF)
        p.lt.fuse[:] = 0.0
        p.attn.fuse[:] = 0.0
        p.ffn.w2[:] = 0.0
        p.ffn.b2[:] = 0.0
        out = blocks.local_uniblock_forward(field, p, heads=2)
        assert np.array_equal(out.data, field.data)

    def test_stage_attribution(self):
        rng = np.random.default_rng(52)
        d = 8
        field = random_field(rng, frames=2, d=d)
        p = random_block(rng, d, blocks.ATTENTION_SELF)
        counter = MacCounter()
        with counting(counter):
            blocks.local_uniblock_forward(field, p, heads=2,
                                          stage_prefix="local0")
        assert set(counter.stages) == {"local0.lt", "local0.attn",
                                       "local0.ffn"}
        assert counter.stages.get(UNATTRIBUTED, 0) == 0

        frames, m = field.frames, field.data.shape[1]
        tokens = frames * m
        s = field.spatial_tokens
        kt = p.lt.kernel.shape[0]
        hidden = p.ffn.w1.shape[1]
        assert counter.stages["local0.lt"] \
            == 2 * tokens * d * d + frames * s * d * kt
        assert counter.stages["local0.attn"] \
            == frames * (4 * m * d * d + m * d + 2 * m * m * d)
        assert counter.stages["local0.ffn"] == 2 * tokens * d * hidden

    def test_unknown_kind_rejected_at_construction(self):
        rng = np.random.default_rng(53)
        with pytest.raises(ConfigError):
            random_block(rng, 4, "windowed")
