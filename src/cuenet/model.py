"""End-to-end model assembly: preprocessing, backbone, blocks, fusion.

The inference path is

    crop -> resize -> patch backbone -> local blocks -> global block
         -> gated fusion -> logits

The backbone turns a (frames, height, width, channels) clip into one plain
(frames_out, 1 + grid_h*grid_w, hidden) token array: a strided 3-d patch
convolution (temporal extent 3, zero padded so the frame count survives;
spatial stride equal to the patch edge), a stride-2 temporal selection, and
a learnable class token prepended to each frame's spatial tokens.  The
blocks take that array and the grid ``(cfg.grid_h, cfg.grid_w)`` side by
side.

``forward`` installs its optional ``trace`` dict as the shape sink of
:mod:`cuenet.instrument`, where every stage records the exact shape of its
intermediate; this doubles as the hook for shape verification.
"""

import numpy as np

from . import fusion as fusion_ops
from .blocks import local_uniblock_forward
from .config import PATCH, TEMPORAL_KERNEL
from .crop import apply_crop, compute_crop_box
from .errors import ConfigError
from .global_block import global_uniblock_forward
from .instrument import record_shape, stage, tracing
from .tensor import check_tensor, conv3d, dtype_of
from .weights import bind_parameters


def resize_bilinear(video, out_h, out_w):
    """Per-frame bilinear resample with half-pixel-aligned sample centers.

    Equal input and output extents return the input unchanged.  Sample
    coordinates clamp at the border, matching the usual edge-replicate
    convention.  Interpolation weights are cast to the clip's precision.

    The resample is separable: one pass interpolates whole rows along H,
    a second interpolates the result along W.  Each pass gathers the two
    neighbour rows (or columns) ``a`` and ``b`` and forms the lerp
    ``a + (b - a) * f`` in place in ``b``, so a pass holds two gathered
    arrays and no product temporaries, and the input is never modified.
    The W pass spreads its weights over the channels, to ``(out_w, c)``,
    so the product's inner loop runs over whole rows rather than over the
    ``c`` channels of one pixel.
    """
    check_tensor(video, rank=4, name="video")
    t, h, w, c = video.shape
    if (h, w) == (out_h, out_w):
        return video
    if out_h < 1 or out_w < 1:
        raise ConfigError(f"resize target must be positive, got "
                          f"({out_h}, {out_w})")

    def resample(src, axis, out_extent):
        in_extent = src.shape[axis]
        centers = (np.arange(out_extent) + 0.5) * (in_extent / out_extent) \
            - 0.5
        centers = np.clip(centers, 0.0, in_extent - 1.0)
        lo = np.floor(centers).astype(np.int64)
        hi = np.minimum(lo + 1, in_extent - 1)
        frac = (centers - lo).astype(video.dtype)
        out = np.take(src, hi, axis=axis)
        low = np.take(src, lo, axis=axis)
        if axis == 1:
            weights = frac.reshape(out_extent, 1, 1)
        else:
            weights = np.repeat(frac, c).reshape(out_extent, c)
        out -= low
        out *= weights
        out += low
        return out

    return resample(resample(video, 1, out_h), 2, out_w)


def backbone_forward(video, params, cfg):
    """Tokenize a clip that already matches the configured geometry into a
    (frames_out, 1 + grid_h*grid_w, hidden) array."""
    check_tensor(video, rank=4, name="video")
    expected = (cfg.frames, cfg.height, cfg.width, cfg.channels)
    if video.shape != expected:
        raise ConfigError(f"backbone input shape {video.shape}; "
                          f"configuration wants {expected}")
    if video.dtype != dtype_of(cfg.precision):
        raise ConfigError(f"backbone input dtype {video.dtype} does not "
                          f"match configured precision {cfg.precision}")
    conv = conv3d(video, params.patch_kernel, stride=(1, PATCH, PATCH),
                  padding=(TEMPORAL_KERNEL // 2, 0, 0))
    conv = conv + params.patch_bias
    selected = conv[::2]
    t2 = cfg.frames_out
    spatial = selected.reshape(t2, cfg.spatial_tokens, cfg.hidden)
    cls = np.broadcast_to(params.class_token,
                          (t2, 1, cfg.hidden)).astype(video.dtype)
    return np.concatenate([cls, spatial], axis=1)


def network_forward(video, params, cfg):
    """Backbone through logits, without preprocessing."""
    grid = (cfg.grid_h, cfg.grid_w)
    with stage("backbone"):
        x = backbone_forward(video, params, cfg)
    record_shape("backbone", x)
    for i, block in enumerate(params.local_blocks):
        x = local_uniblock_forward(x, grid, block, cfg.heads, f"local{i}")
        record_shape(f"local{i}", x)
    clip_vec = global_uniblock_forward(x, grid, params.global_block,
                                       cfg.heads)
    with stage("fusion"):
        local_summary = fusion_ops.extract_class_token(x)
        fused = fusion_ops.fuse(clip_vec, local_summary, params.fusion.beta)
        logits = fusion_ops.classify(fused, params.fusion)
    record_shape("local_summary", local_summary)
    record_shape("fused", fused)
    record_shape("logits", logits)
    return logits


def forward(video, detections, container, cfg, trace=None):
    """Full inference: crop, resize, tokenize, mix, fuse, classify.

    ``detections`` may be None to skip the crop policy entirely.  The clip's
    frame count, channel count, and precision must match the configuration;
    spatial extents are free because the resampler normalizes them.
    ``trace`` is the shape sink for the call (None records nothing).
    """
    check_tensor(video, rank=4, name="video")
    params = bind_parameters(container, cfg)
    if video.shape[0] != cfg.frames:
        raise ConfigError(f"clip has {video.shape[0]} frames; configuration "
                          f"wants {cfg.frames}")
    if video.shape[3] != cfg.channels:
        raise ConfigError(f"clip has {video.shape[3]} channels; "
                          f"configuration wants {cfg.channels}")
    if video.dtype != dtype_of(cfg.precision):
        raise ConfigError(f"clip dtype {video.dtype} does not match "
                          f"configured precision {cfg.precision}")
    with tracing(trace):
        record_shape("input", video)
        if detections is not None:
            video = apply_crop(video, compute_crop_box(detections))
        record_shape("cropped", video)
        video = resize_bilinear(video, cfg.height, cfg.width)
        record_shape("resized", video)
        return network_forward(video, params, cfg)


def expected_trace(cfg):
    """Network-intermediate shapes implied by a configuration's geometry."""
    tokens = (cfg.frames_out, cfg.tokens_per_frame, cfg.hidden)
    return {
        "resized": (cfg.frames, cfg.height, cfg.width, cfg.channels),
        "backbone": tokens,
        **{f"local{i}": tokens for i in range(cfg.local_depth)},
        "global.dpe": tokens,
        "global.tokens": (cfg.token_count, cfg.hidden),
        "global.pooled": (1, cfg.hidden),
        "global.out": (1, cfg.hidden),
        "local_summary": (1, cfg.hidden),
        "fused": (1, cfg.hidden),
        "logits": (cfg.num_classes,),
    }
