"""Global token block: positional encoding, clip-wide attention, feed-forward.

Where local blocks mix tokens within a frame, the global block flattens all
frames into one token sequence and reduces it to a single clip vector:

1. a residual depthwise 3-d convolution over the spatial token volume gives
   tokens a position-dependent offset (class tokens pass through unchanged);
2. clip-wide attention pools the normalized sequence to one (1, d) vector.
   The pooled vector intentionally carries no residual from the sequence:
   there is no single token row to add it to;
3. a feed-forward unit refines the pooled vector with a residual.

The attention step runs the block's kind through
:func:`cuenet.attention.attend`: softmax self-attention (quadratic in token
count) or one of the two additive mechanisms (linear in token count).
"""

from dataclasses import dataclass

import numpy as np

from . import attention
from .blocks import FfnParams
from .errors import ParamError
from .instrument import record_shape, stage
from .tensor import (LnParams, check_tensor, dwconv3d, gelu, layer_norm,
                     matmul)


@dataclass
class GlobalBlockParams:
    """Depthwise positional kernel, attention choice, and feed-forward.

    ``attn`` is the parameter group of the ``attn_kind`` mechanism.
    """

    dpe_kernel: np.ndarray            # (kt, kh, kw, d), odd extents
    ln_tokens: LnParams
    attn_kind: str
    attn: attention.AttentionParams
    ln_ffn: LnParams
    ffn: FfnParams

    def __post_init__(self):
        attention.check_kind(self.attn_kind)


def dpe(field, kernel):
    """Residual depthwise positional encoding over the spatial volume.

    A zero kernel leaves the field untouched; class tokens always do.
    """
    check_tensor(kernel, rank=4, name="positional kernel")
    if any(extent % 2 == 0 for extent in kernel.shape[:3]):
        raise ParamError(f"positional kernel extents must be odd, got "
                         f"{kernel.shape[:3]}")
    out = field.data.copy()
    if field.spatial_tokens:
        conv = dwconv3d(field.spatial_volume(), kernel)
        out[:, 1:, :] += conv.reshape(field.frames, field.spatial_tokens,
                                      field.hidden)
    return field.with_data(out)


def row_ffn(x, p, ln):
    """Pre-normalized residual feed-forward on a (rows, d) matrix."""
    normed = layer_norm(x, ln.gamma, ln.beta)
    hidden = gelu(matmul(normed, p.w1) + p.b1)
    return x + matmul(hidden, p.w2) + p.b2


def global_uniblock_forward(field, p, heads, stage_prefix="global"):
    """Reduce a token field to one (1, d) clip vector.

    Each sub-unit's work is counted under ``{stage_prefix}.dpe|attn|ffn``;
    intermediate shapes go to the active trace as ``global.*``.
    """
    with stage(f"{stage_prefix}.dpe"):
        field = dpe(field, p.dpe_kernel)
    record_shape("global.dpe", field.data)
    with stage(f"{stage_prefix}.attn"):
        tokens = layer_norm(field.flat(), p.ln_tokens.gamma,
                            p.ln_tokens.beta)
        record_shape("global.tokens", tokens)
        pooled = attention.attend(p.attn_kind, tokens, p.attn, heads,
                                  pool=True)
    record_shape("global.pooled", pooled)
    with stage(f"{stage_prefix}.ffn"):
        refined = row_ffn(pooled, p.ffn, p.ln_ffn)
    record_shape("global.out", refined)
    return refined
