"""End-to-end model assembly: preprocessing, backbone, blocks, fusion.

The inference path is

    crop -> resize -> patch backbone -> local blocks -> global block
         -> gated fusion -> logits

The backbone turns a (frames, height, width, channels) clip into one plain
(frames_out, 1 + grid_h*grid_w, hidden) token array: a patch embedding
(``tensor.patch_embed``: non-overlapping patches, three temporal taps, zero
padded so the frame count survives), a stride-2 temporal selection, and
a learnable class token in front of each frame's spatial tokens, all
written into that one array.  The blocks take that array and the grid
``(cfg.grid_h, cfg.grid_w)`` side by side.

``forward`` installs its optional ``trace`` dict as the shape sink of
:mod:`cuenet.instrument`, where every stage records the exact shape of its
intermediate; this doubles as the hook for shape verification.
"""

import numpy as np

from . import fusion as fusion_ops
from .blocks import local_uniblock_forward
from .crop import crop_clip
from .errors import ConfigError, ShapeError
from .global_block import global_uniblock_forward
from .instrument import record_shape, stage, tracing
from .tensor import check_tensor, dtype_of, patch_embed
from .weights import bind_parameters


def resize_bilinear(video, out_h, out_w):
    """Per-frame bilinear resample with half-pixel-aligned sample centers.

    Sample coordinates clamp at the border, matching the usual
    edge-replicate convention.  Interpolation weights are cast to the
    clip's precision.  The clip may be any view, strided, read-only or
    misaligned (a crop of a decoded file), and is never written.  Equal
    input and output extents return the clip unresampled as an aligned,
    C-contiguous array: the input itself when it already is one, else one
    copy.  A target extent below one raises ``ConfigError``; a clip with
    empty frames raises ``ShapeError``.

    The resample is separable and runs one frame at a time into one
    preallocated ``(t, out_h, out_w, c)`` output.  The H pass gathers the
    two neighbour rows ``a`` and ``b`` of every output row out of the frame
    (whole-row copies, the only reads of the clip, so its strides and
    alignment cost nothing later) and forms the lerp ``a + (b - a) * f`` in
    place in ``b``.  The W pass gathers the two neighbour pixels of every
    output pixel out of those rows, ``b`` straight into the output frame,
    and lerps the same way.  Every buffer is frame-sized, so it stays in
    cache.  The float operations are those of a whole-clip H pass followed
    by a whole-clip W pass, in the same order, so the bytes are the same
    too.  The W weights are spread over the channels, to ``(out_w, c)``, so
    the product's inner loop runs over whole rows rather than over the
    ``c`` channels of one pixel.
    """
    check_tensor(video, rank=4, name="video")
    t, h, w, c = video.shape
    if out_h < 1 or out_w < 1:
        raise ConfigError(f"resize target must be positive, got "
                          f"({out_h}, {out_w})")
    if h < 1 or w < 1:
        raise ShapeError(f"cannot resample empty {h}x{w} frames")
    if (h, w) == (out_h, out_w):
        return np.require(video, requirements=("A", "C"))

    def taps(in_extent, out_extent):
        centers = (np.arange(out_extent) + 0.5) * (in_extent / out_extent) \
            - 0.5
        centers = np.clip(centers, 0.0, in_extent - 1.0)
        lo = np.floor(centers).astype(np.int64)
        hi = np.minimum(lo + 1, in_extent - 1)
        return lo, hi, (centers - lo).astype(video.dtype)

    lo_h, hi_h, frac_h = taps(h, out_h)
    lo_w, hi_w, frac_w = taps(w, out_w)
    weight_h = frac_h.reshape(out_h, 1, 1)
    weight_w = np.repeat(frac_w, c).reshape(out_w, c)
    out = np.empty((t, out_h, out_w, c), dtype=video.dtype)
    low = np.empty((out_h, out_w, c), dtype=video.dtype)
    for frame, dest in zip(video, out):
        # indexing copies the rows straight out of a strided or misaligned
        # frame; np.take would first copy the whole frame contiguous
        rows = frame[hi_h]
        low_rows = frame[lo_h]
        rows -= low_rows
        rows *= weight_h
        rows += low_rows
        # indices are in range, so "clip" only skips take's output buffer
        np.take(rows, hi_w, axis=1, out=dest, mode="clip")
        np.take(rows, lo_w, axis=1, out=low, mode="clip")
        dest -= low
        dest *= weight_w
        dest += low
    return out


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
    conv = patch_embed(video, params.patch_kernel)
    t2, s, d = cfg.frames_out, cfg.spatial_tokens, cfg.hidden
    tokens = np.empty((t2, 1 + s, d), dtype=video.dtype)
    tokens[:, 0] = params.class_token
    np.add(conv[::2].reshape(t2, s, d), params.patch_bias, out=tokens[:, 1:])
    return tokens


def network_forward(video, params, cfg):
    """Backbone through logits, without preprocessing."""
    grid = (cfg.grid_h, cfg.grid_w)
    with stage("backbone"):
        x = backbone_forward(video, params, cfg)
    record_shape("backbone", x)
    for i, block in enumerate(params.local_blocks):
        x = local_uniblock_forward(x, grid, block, f"local{i}")
        record_shape(f"local{i}", x)
    clip_vec = global_uniblock_forward(x, grid, params.global_block)
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

    ``detections`` may be None to skip the crop step entirely; otherwise
    :func:`cuenet.crop.crop_clip` crops with it and raises ``FormatError``
    for a stream that does not describe the clip (another frame count or
    frame size).  The clip's frame count, channel count, and precision must
    match the configuration; spatial extents are free because the resampler
    normalizes them.  The clip may be any view (read-only, strided,
    misaligned, as decoding and cropping hand it over) and is never
    written.  ``trace`` is the shape sink for the call (None records
    nothing).
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
            _, video = crop_clip(video, detections)
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
