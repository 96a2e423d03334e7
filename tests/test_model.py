"""Model assembly: binding, resampling, backbone, staged full forward."""

import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuenet import fusion as fusion_ops
from cuenet import analysis, ctf, model, weights
from cuenet.attention import (ATTENTION_EAA, ATTENTION_KINDS, ATTENTION_MEAA,
                              ATTENTION_SELF, AdditiveParams, MeaaParams,
                              MhsaParams)
from cuenet.blocks import local_uniblock_forward
from cuenet.config import desk_preset
from cuenet.crop import parse_detections
from cuenet.errors import ConfigError, FormatError, ShapeError
from cuenet.global_block import global_uniblock_forward
from cuenet.instrument import (UNATTRIBUTED, MacCounter, MemoryMeter,
                               counting, metering, record_shape, tracing)
from cuenet.tensor import dtype_of

from util import (assert_close, conv3d_reference, resize_oracle,
                  resize_reference)


def small_config(**overrides):
    base = dict(frames=4, height=32, width=32, local_depth=1,
                local_attention=(ATTENTION_SELF,))
    base.update(overrides)
    return desk_preset(**base)


def random_clip(rng, cfg, height=None, width=None):
    shape = (cfg.frames, height or cfg.height, width or cfg.width,
             cfg.channels)
    return rng.standard_normal(shape)


class TestBindParameters:
    def test_binds_every_group(self):
        cfg = desk_preset()
        params = model.bind_parameters(weights.init_weights(cfg), cfg)
        assert params.patch_kernel.shape == (3, 16, 16, 3, 64)
        assert len(params.local_blocks) == 2
        assert type(params.local_blocks[0].attn) is MhsaParams
        assert type(params.global_block.attn) is MeaaParams
        assert params.global_block.attn.q.shape == (1, 64)
        assert params.global_block.attn.q_ln.gamma.shape == (64,)
        assert params.fusion.proj.shape == (64, 2)

    def test_kind_selects_parameter_family(self):
        # the group's type is the one statement of the mechanism; the
        # original additive form carries no query fields at all
        for kind, family in ((ATTENTION_SELF, MhsaParams),
                             (ATTENTION_MEAA, MeaaParams),
                             (ATTENTION_EAA, AdditiveParams)):
            cfg = small_config(global_attention=kind)
            params = model.bind_parameters(weights.init_weights(cfg), cfg)
            assert type(params.global_block.attn) is family
        assert not hasattr(params.global_block.attn, "q")
        assert not hasattr(params.global_block.attn, "q_ln")

    def test_rejects_mismatched_container(self):
        cfg = small_config()
        other = small_config(global_attention=ATTENTION_SELF)
        with pytest.raises(ConfigError):
            model.bind_parameters(weights.init_weights(other), cfg)


class TestResize:
    def test_identity_returns_same_object(self):
        rng = np.random.default_rng(0)
        video = rng.standard_normal((2, 8, 6, 3))
        assert model.resize_bilinear(video, 8, 6) is video

    def test_constant_clip_stays_constant(self):
        video = np.full((2, 5, 7, 3), 2.5)
        out = model.resize_bilinear(video, 11, 4)
        assert out.shape == (2, 11, 4, 3)
        assert_close(out, np.full((2, 11, 4, 3), 2.5), rel=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        video = rng.standard_normal((2, 4, 5, 2))
        out_h, out_w = 7, 3
        got = model.resize_bilinear(video, out_h, out_w)

        t, h, w, c = video.shape
        want = np.zeros((t, out_h, out_w, c))
        for i in range(out_h):
            cy = min(max((i + 0.5) * h / out_h - 0.5, 0.0), h - 1.0)
            y0, fy = int(np.floor(cy)), cy - int(np.floor(cy))
            y1 = min(y0 + 1, h - 1)
            for j in range(out_w):
                cx = min(max((j + 0.5) * w / out_w - 0.5, 0.0), w - 1.0)
                x0, fx = int(np.floor(cx)), cx - int(np.floor(cx))
                x1 = min(x0 + 1, w - 1)
                want[:, i, j, :] = (
                    video[:, y0, x0] * (1 - fy) * (1 - fx)
                    + video[:, y0, x1] * (1 - fy) * fx
                    + video[:, y1, x0] * fy * (1 - fx)
                    + video[:, y1, x1] * fy * fx)
        assert_close(got, want, rel=1e-12)

    def test_uneven_single_precision_downscale_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        video = rng.standard_normal((2, 13, 17, 3)).astype(np.float32)
        got = model.resize_bilinear(video, 5, 7)
        assert got.dtype == np.float32
        assert_close(got, resize_oracle(video.astype(np.float64), 5, 7),
                     rel=1e-6)

    def test_input_left_unchanged(self):
        rng = np.random.default_rng(3)
        video = rng.standard_normal((2, 9, 6, 3))
        before = video.copy()
        model.resize_bilinear(video, 4, 11)
        assert np.array_equal(video, before)

    def test_axis_aligned_doubling_interpolates_midpoints(self):
        video = np.arange(4.0).reshape(1, 1, 4, 1)
        out = model.resize_bilinear(video, 1, 8).reshape(-1)
        assert_close(out, np.array([0.0, 0.25, 0.75, 1.25, 1.75, 2.25,
                                    2.75, 3.0]), rel=1e-12)

    def test_preserves_dtype(self):
        video = np.zeros((1, 4, 4, 1), dtype=np.float32)
        assert model.resize_bilinear(video, 6, 6).dtype == np.float32

    def test_rejects_empty_target(self):
        with pytest.raises(ConfigError):
            model.resize_bilinear(np.zeros((1, 4, 4, 1)), 0, 4)

    @pytest.mark.parametrize("shape", [(2, 0, 5, 3), (2, 5, 0, 3),
                                       (2, 0, 0, 3)])
    def test_rejects_empty_source(self, shape):
        with pytest.raises(ShapeError, match="empty"):
            model.resize_bilinear(np.zeros(shape), 4, 4)
        cfg = small_config(frames=2)
        with pytest.raises(ShapeError, match="empty"):
            model.forward(np.zeros(shape), None, weights.init_weights(cfg),
                          cfg)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           dtype=st.sampled_from((np.float32, np.float64)),
           extents=st.tuples(st.integers(1, 3), st.integers(1, 12),
                             st.integers(1, 12), st.integers(1, 4)),
           margins=st.tuples(*[st.integers(0, 3)] * 4),
           layout=st.sampled_from(("contiguous", "cropped", "misaligned",
                                   "misaligned cropped")),
           target=st.tuples(st.integers(1, 24), st.integers(1, 24)))
    def test_any_view_matches_whole_clip_reference_bytes(
            self, seed, dtype, extents, margins, layout, target):
        # the clip as decoding and cropping hand it over: a strided region
        # and/or a read-only view at an odd byte offset of a file's bytes
        t, h, w, c = extents
        top, bottom, left, right = margins if "cropped" in layout \
            else (0, 0, 0, 0)
        source = np.random.default_rng(seed).standard_normal(
            (t, top + h + bottom, left + w + right, c)).astype(dtype)
        if "misaligned" in layout:
            source = np.frombuffer(b"\0\0" + source.tobytes(), dtype,
                                   offset=2).reshape(source.shape)
            assert not source.flags.aligned and not source.flags.writeable
        video = source[:, top:top + h, left:left + w]
        before = source.tobytes()
        got = model.resize_bilinear(video, *target)
        want = resize_reference(np.ascontiguousarray(video), *target)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got.flags.aligned and got.flags.c_contiguous
        assert source.tobytes() == before

    @pytest.mark.parametrize("layout", ["cropped", "misaligned"])
    def test_equal_extents_give_aligned_contiguous_copy_of_a_view(self,
                                                                  layout):
        rng = np.random.default_rng(4)
        clip = rng.standard_normal((2, 8, 6, 3)).astype(np.float32)
        if layout == "cropped":
            video = clip[:, 1:6, 2:5]
        else:
            video = np.frombuffer(b"\0\0" + clip.tobytes(), np.float32,
                                  offset=2).reshape(clip.shape)
        out = model.resize_bilinear(video, *video.shape[1:3])
        assert out.flags.aligned and out.flags.c_contiguous
        assert not np.shares_memory(out, video)
        assert np.array_equal(out, video)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           dtype=st.sampled_from((np.float32, np.float64)),
           extents=st.tuples(st.integers(1, 3), st.integers(1, 12),
                             st.integers(1, 12), st.integers(1, 4)),
           target=st.tuples(st.integers(1, 24), st.integers(1, 24)))
    def test_matches_per_axis_weight_reference_bytes(self, seed, dtype,
                                                     extents, target):
        # up- and downsampling in either axis; the channel-spread W weights
        # give the bytes of the per-axis broadcast
        video = np.random.default_rng(seed).standard_normal(extents) \
            .astype(dtype)
        got = model.resize_bilinear(video, *target)
        want = resize_reference(video, *target)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestBackbone:
    def test_token_field_geometry(self):
        rng = np.random.default_rng(10)
        cfg = small_config()
        params = model.bind_parameters(weights.init_weights(cfg), cfg)
        x = model.backbone_forward(random_clip(rng, cfg), params, cfg)
        assert x.shape == (2, 5, 64)
        assert (cfg.grid_h, cfg.grid_w) == (2, 2)

    def test_zero_kernel_emits_bias_and_class_token(self):
        rng = np.random.default_rng(11)
        cfg = small_config()
        params = model.bind_parameters(weights.init_weights(cfg), cfg)
        params.patch_kernel[...] = 0.0
        x = model.backbone_forward(random_clip(rng, cfg), params, cfg)
        assert np.array_equal(
            x[:, 0, :],
            np.broadcast_to(params.class_token, (2, 64)))
        assert np.array_equal(
            x[:, 1:, :],
            np.broadcast_to(params.patch_bias, (2, 4, 64)))

    def test_matches_strided_convolution_composition(self):
        rng = np.random.default_rng(12)
        cfg = small_config()
        params = model.bind_parameters(weights.init_weights(cfg), cfg)
        video = random_clip(rng, cfg)
        x = model.backbone_forward(video, params, cfg)
        conv = conv3d_reference(video, params.patch_kernel, (1, 16, 16),
                                (1, 0, 0)) + params.patch_bias
        want = conv[::2].reshape(2, 4, 64)
        assert np.array_equal(x[:, 1:, :], want)

    def test_temporal_selection_keeps_even_frames(self):
        # frames 0 and 2 of the convolution output survive; zeroing the
        # video frames that only feed odd outputs must not change tokens
        rng = np.random.default_rng(13)
        cfg = small_config()
        params = model.bind_parameters(weights.init_weights(cfg), cfg)
        video = random_clip(rng, cfg)
        base = model.backbone_forward(video, params, cfg)
        # conv frame t reads video frames t-1..t+1; outputs 0 and 2 never
        # read a frame that is exclusive to outputs 1 and 3, so perturb the
        # kernel instead: identical results prove pure even-index selection
        conv = conv3d_reference(video, params.patch_kernel, (1, 16, 16),
                                (1, 0, 0)) + params.patch_bias
        assert np.array_equal(base[:, 1:, :],
                              conv[[0, 2]].reshape(2, 4, 64))

    def test_shape_and_dtype_guards(self):
        rng = np.random.default_rng(14)
        cfg = small_config()
        params = model.bind_parameters(weights.init_weights(cfg), cfg)
        with pytest.raises(ConfigError, match="shape"):
            model.backbone_forward(rng.standard_normal((4, 16, 32, 3)),
                                   params, cfg)
        with pytest.raises(ConfigError, match="precision"):
            model.backbone_forward(
                random_clip(rng, cfg).astype(np.float32), params, cfg)


class TestNetworkForward:
    def test_matches_manual_staging(self):
        rng = np.random.default_rng(20)
        cfg = desk_preset()
        container = weights.init_weights(cfg)
        params = model.bind_parameters(container, cfg)
        video = random_clip(rng, cfg)
        got = model.network_forward(video, params, cfg)

        grid = (cfg.grid_h, cfg.grid_w)
        x = model.backbone_forward(video, params, cfg)
        for i, block in enumerate(params.local_blocks):
            x = local_uniblock_forward(x, grid, block, f"local{i}")
        clip_vec = global_uniblock_forward(x, grid, params.global_block)
        summary = fusion_ops.extract_class_token(x)
        fused = fusion_ops.fuse(clip_vec, summary, params.fusion.beta)
        want = fusion_ops.classify(fused, params.fusion)
        assert np.array_equal(got, want)

    def test_stage_names_cover_all_work(self):
        rng = np.random.default_rng(21)
        cfg = desk_preset()
        params = model.bind_parameters(weights.init_weights(cfg), cfg)
        counter = MacCounter()
        with counting(counter):
            model.network_forward(random_clip(rng, cfg), params, cfg)
        assert set(counter.stages) == {
            "backbone", "local0.lt", "local0.attn", "local0.ffn",
            "local1.lt", "local1.attn", "local1.ffn", "global.dpe",
            "global.attn", "global.ffn", "fusion"}
        assert counter.stages.get(UNATTRIBUTED, 0) == 0

    def test_tracing_records_network_shapes(self):
        rng = np.random.default_rng(23)
        cfg = desk_preset()
        params = model.bind_parameters(weights.init_weights(cfg), cfg)
        trace = {}
        with tracing(trace):
            model.network_forward(random_clip(rng, cfg), params, cfg)
        expected = model.expected_trace(cfg)
        del expected["resized"]
        assert trace == expected

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(22)
        cfg = small_config()
        params = model.bind_parameters(weights.init_weights(cfg), cfg)
        video = random_clip(rng, cfg)
        first = model.network_forward(video, params, cfg)
        second = model.network_forward(video, params, cfg)
        assert np.array_equal(first, second)


class TestForward:
    def test_full_pipeline_composition(self):
        rng = np.random.default_rng(30)
        cfg = small_config()
        container = weights.init_weights(cfg)
        video = random_clip(rng, cfg, height=48, width=40)
        detections = parse_detections(
            "\n".join('{"frame": %d, "boxes": [[2, 3, 30, 40], '
                      '[10, 8, 38, 44]]}' % t for t in range(cfg.frames)),
            height=48, width=40)
        got = model.forward(video, detections, container, cfg)

        from cuenet.crop import apply_crop, compute_crop_box
        cropped = apply_crop(video, compute_crop_box(detections))
        resized = model.resize_bilinear(cropped, cfg.height, cfg.width)
        params = model.bind_parameters(container, cfg)
        want = model.network_forward(resized, params, cfg)
        assert np.array_equal(got, want)

    def test_trace_matches_expected(self):
        rng = np.random.default_rng(31)
        cfg = desk_preset()
        container = weights.init_weights(cfg)
        video = random_clip(rng, cfg, height=48, width=64)
        trace = {}
        model.forward(video, None, container, cfg, trace=trace)
        expected = model.expected_trace(cfg)
        for key, shape in expected.items():
            assert trace[key] == shape, key
        assert trace["input"] == (8, 48, 64, 3)
        assert trace["cropped"] == (8, 48, 64, 3)

    def test_no_detections_skips_crop(self):
        rng = np.random.default_rng(32)
        cfg = small_config()
        container = weights.init_weights(cfg)
        video = random_clip(rng, cfg)
        trace = {}
        model.forward(video, None, container, cfg, trace=trace)
        assert trace["cropped"] == trace["input"]

    def test_single_person_detections_leave_clip_whole(self):
        rng = np.random.default_rng(33)
        cfg = small_config()
        container = weights.init_weights(cfg)
        video = random_clip(rng, cfg)
        detections = parse_detections(
            "\n".join('{"frame": %d, "boxes": [[1, 1, 9, 9]]}' % t
                      for t in range(cfg.frames)),
            height=cfg.height, width=cfg.width)
        trace = {}
        with_boxes = model.forward(video, detections, container, cfg,
                                   trace=trace)
        without = model.forward(video, None, container, cfg)
        assert trace["cropped"] == trace["input"]
        assert np.array_equal(with_boxes, without)

    @pytest.mark.parametrize("failure", ("dtype", "crop bounds"))
    def test_failed_forward_leaves_no_trace_installed(self, failure):
        rng = np.random.default_rng(35)
        cfg = small_config()
        container = weights.init_weights(cfg)
        video, detections = random_clip(rng, cfg), None
        if failure == "dtype":
            video = video.astype(np.float32)
            error = ConfigError
        else:
            # boxes parsed against a larger frame describe another clip
            detections = parse_detections(
                "\n".join('{"frame": %d, "boxes": [[1, 1, 9, 9], '
                          '[20, 20, 60, 60]]}' % t for t in range(cfg.frames)),
                height=64, width=64)
            error = FormatError
        trace = {}
        with pytest.raises(error):
            model.forward(video, detections, container, cfg, trace=trace)
        before = dict(trace)
        record_shape("after", video)
        assert trace == before

    @pytest.mark.parametrize("frames, height, width, message", (
        (3, 96, 128, "detection stream covers 3 frames, clip has 8"),
        (8, 50, 50, "detection stream describes 50x50 frames, clip has "
                    "96x128")), ids=("frame count", "frame size"))
    def test_stream_for_another_clip_is_refused(self, frames, height, width,
                                                message):
        rng = np.random.default_rng(36)
        cfg = small_config(frames=8)
        container = weights.init_weights(cfg)
        video = random_clip(rng, cfg, height=96, width=128)
        detections = parse_detections(
            "\n".join('{"frame": %d, "boxes": [[1, 1, 9, 9], '
                      '[20, 20, 40, 40]]}' % t for t in range(frames)),
            height=height, width=width)
        trace = {}
        with pytest.raises(FormatError) as raised:
            model.forward(video, detections, container, cfg, trace=trace)
        assert str(raised.value) == message
        before = dict(trace)
        record_shape("after", video)
        assert trace == before

    def test_input_guards(self):
        rng = np.random.default_rng(34)
        cfg = small_config()
        container = weights.init_weights(cfg)
        with pytest.raises(ConfigError, match="frames"):
            model.forward(rng.standard_normal((6, 32, 32, 3)), None,
                          container, cfg)
        with pytest.raises(ConfigError, match="channels"):
            model.forward(rng.standard_normal((4, 32, 32, 1)), None,
                          container, cfg)
        with pytest.raises(ConfigError, match="dtype"):
            model.forward(
                rng.standard_normal((4, 32, 32, 3)).astype(np.float32),
                None, container, cfg)

    def test_single_precision_pipeline_runs(self):
        rng = np.random.default_rng(35)
        cfg = small_config(precision="single")
        container = weights.init_weights(cfg)
        video = random_clip(rng, cfg).astype(np.float32)
        logits = model.forward(video, None, container, cfg)
        assert logits.dtype == np.float32
        assert logits.shape == (2,)


class TestCopyContract:
    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("source", [(48, 40), (32, 32)])
    @pytest.mark.parametrize("cropped", [False, True])
    def test_forward_on_decoded_view_matches_aligned_copy(
            self, precision, source, cropped):
        # the clip as a decoder hands it over: a read-only view at a
        # misaligned offset of the file bytes
        cfg = small_config(precision=precision)
        container = weights.init_weights(cfg)
        height, width = source
        clip = np.random.default_rng(80).standard_normal(
            (cfg.frames, height, width, cfg.channels))
        buffer = bytearray(ctf.tensor_bytes(clip.astype(dtype_of(precision))))
        video, _ = ctf.tensor_from_bytes(buffer)
        assert not video.flags.writeable
        if sys.byteorder == "little":
            assert not video.flags.aligned
        detections = None
        if cropped:
            detections = parse_detections("".join(
                f'{{"frame": {t}, "boxes": [[2, 3, {width // 2}, 20], '
                f'[5, 4, {width - 3}, {height - 2}]]}}\n'
                for t in range(cfg.frames)), height, width)
        before = bytes(buffer)
        got = model.forward(video, detections, container, cfg)
        want = model.forward(video.copy(), detections, container, cfg)
        assert got.tobytes() == want.tobytes()
        assert bytes(buffer) == before

    def test_peak_memory_does_not_grow_with_the_source(self):
        # large-frame geometry: 16 single-precision 112x112 frames
        cfg = desk_preset(frames=16, height=112, width=112,
                          precision="single",
                          local_attention=(ATTENTION_MEAA, ATTENTION_EAA),
                          global_attention=ATTENTION_SELF)
        container = weights.init_weights(cfg)
        rng = np.random.default_rng(81)

        def peak_bytes(height, width):
            blob = ctf.tensor_bytes(rng.random(
                (cfg.frames, height, width, 3)).astype(np.float32))
            tracemalloc.start()
            try:
                video, _ = ctf.tensor_from_bytes(blob)
                model.forward(video, None, container, cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak_bytes(112, 112)  # warm-up: one-time caches and imports
        large, same = peak_bytes(240, 320), peak_bytes(112, 112)
        assert abs(large - same) <= 0.01 * same, (large, same)
        assert large < cfg.frames * 240 * 320 * 3 * 4


class TestHotPath:
    def test_forward_calls_no_numpy_padding_or_window_helper(self,
                                                             monkeypatch):
        # the per-clip path builds its own padded buffers and window views;
        # any call of the numpy helpers, under any imported name, raises
        originals = (np.pad, np.lib.stride_tricks.sliding_window_view)

        def refuse(*args, **kwargs):
            raise AssertionError("numpy helper called on the clip path")

        monkeypatch.setattr(np, "pad", refuse)
        monkeypatch.setattr(np.lib.stride_tricks, "sliding_window_view",
                            refuse)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "cuenet":
                for attr, value in list(vars(module).items()):
                    if any(value is original for original in originals):
                        monkeypatch.setattr(module, attr, refuse)
        cfg = desk_preset()
        rng = np.random.default_rng(70)
        video = random_clip(rng, cfg, height=40, width=56)
        lines = "".join(f'{{"frame": {t}, "boxes": [[2, 3, 20, 30], '
                        f'[10, 5, 50, 36]]}}\n' for t in range(cfg.frames))
        detections = parse_detections(lines, 40, 56)
        logits = model.forward(video, detections, weights.init_weights(cfg),
                               cfg)
        assert logits.shape == (cfg.num_classes,)
        assert np.all(np.isfinite(logits))


class TestExpectedTrace:
    def test_desk_values(self):
        trace = model.expected_trace(desk_preset())
        assert trace["resized"] == (8, 32, 32, 3)
        assert trace["backbone"] == (4, 5, 64)
        assert trace["local0"] == (4, 5, 64)
        assert trace["local1"] == (4, 5, 64)
        assert trace["global.tokens"] == (20, 64)
        assert trace["global.pooled"] == (1, 64)
        assert trace["logits"] == (2,)

    def test_tracks_configuration_geometry(self):
        cfg = desk_preset(frames=6, height=64, width=48, local_depth=3,
                          local_attention=(ATTENTION_SELF,) * 3)
        trace = model.expected_trace(cfg)
        assert trace["backbone"] == (3, 13, 64)
        assert trace["global.tokens"] == (39, 64)
        assert "local2" in trace
        assert "local3" not in trace


def parameter_arrays(node):
    """Every array held in a bound parameter tree, depth first."""
    if isinstance(node, np.ndarray):
        yield node
    elif isinstance(node, list):
        for item in node:
            yield from parameter_arrays(item)
    elif dataclasses.is_dataclass(node):
        for f in dataclasses.fields(node):
            yield from parameter_arrays(getattr(node, f.name))


KINDS = st.sampled_from(ATTENTION_KINDS)


@st.composite
def random_configs(draw):
    depth = draw(st.integers(0, 2))
    return desk_preset(
        frames=draw(st.sampled_from((2, 4, 6, 8))),
        height=16 * draw(st.integers(1, 3)),
        width=16 * draw(st.integers(1, 3)), local_depth=depth,
        local_attention=tuple(draw(KINDS) for _ in range(depth)),
        global_attention=draw(KINDS),
        precision=draw(st.sampled_from(("single", "double"))))


class TestRandomConfigurations:
    @settings(max_examples=25, deadline=None)
    @given(cfg=random_configs())
    def test_bind_work_and_shapes_follow_the_models(self, cfg):
        container = weights.init_weights(cfg)
        params = model.bind_parameters(container, cfg)
        bound = sorted(map(id, parameter_arrays(params)))
        assert bound == sorted(map(id, container.entries.values()))

        rng = np.random.default_rng(cfg.frames)
        video = random_clip(rng, cfg).astype(dtype_of(cfg.precision))
        counter, trace = MacCounter(), {}
        with counting(counter):
            model.forward(video, None, container, cfg, trace=trace)
        assert counter.stages == analysis.count_flops(cfg).stages
        shape = video.shape
        assert trace == {"input": shape, "cropped": shape,
                         **model.expected_trace(cfg)}

    @settings(max_examples=25, deadline=None)
    @given(cfg=random_configs(), heads=st.sampled_from((1, 4)))
    def test_metered_forward_peaks_at_the_priced_stage(self, cfg, heads):
        # each stage drops what it charged, its output included, before the
        # next stage allocates, so the pass peaks at its largest priced stage
        cfg = dataclasses.replace(cfg, heads=heads)
        container = weights.init_weights(cfg)
        video = random_clip(np.random.default_rng(cfg.frames), cfg)
        meter = MemoryMeter()
        with metering(meter):
            model.forward(video.astype(dtype_of(cfg.precision)), None,
                          container, cfg)
        peaks = analysis.count_flops(cfg).peaks
        assert meter.live == 0
        assert meter.high_water == max(elements for name, elements
                                       in peaks.items() if name != "input")
