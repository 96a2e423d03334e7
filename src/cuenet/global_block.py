"""Global token block: positional encoding, clip-wide attention, feed-forward.

Where local blocks mix tokens within a frame, the global block flattens all
frames of the (frames, 1 + grid_h*grid_w, hidden) token array into one
token sequence and reduces it to a single clip vector:

1. a residual depthwise 3-d convolution over the spatial token volume,
   :func:`cuenet.blocks.spatial_dwconv`, gives tokens a position-dependent
   offset (class tokens pass through unchanged);
2. clip-wide attention pools the normalized sequence to one (1, d) vector.
   The pooled vector intentionally carries no residual from the sequence:
   there is no single token row to add it to;
3. the local blocks' residual feed-forward, :func:`cuenet.blocks.ffn`,
   refines the pooled vector.

The attention step runs the block's kind through
:func:`cuenet.attention.attend`: softmax self-attention (quadratic in token
count) or one of the two additive mechanisms (linear in token count).
"""

from dataclasses import dataclass

import numpy as np

from . import attention
from .blocks import FfnParams, ffn, spatial_dwconv
from .instrument import record_shape, stage
from .tensor import LnParams, layer_norm


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


def dpe(x, grid, kernel):
    """Residual depthwise positional encoding over the spatial volume.

    A zero kernel leaves the tokens untouched; class tokens always do.
    """
    out = x.copy()
    out[:, 1:, :] += spatial_dwconv(x, grid, kernel)
    return out


def global_uniblock_forward(x, grid, p, heads):
    """Reduce a (frames, 1 + grid_h*grid_w, d) token array to one (1, d)
    clip vector.

    Each sub-unit's work is counted under ``global.dpe|attn|ffn``, and
    intermediate shapes go to the active trace as ``global.*``.
    """
    with stage("global.dpe"):
        x = dpe(x, grid, p.dpe_kernel)
    record_shape("global.dpe", x)
    with stage("global.attn"):
        tokens = layer_norm(x.reshape(-1, x.shape[-1]), p.ln_tokens.gamma,
                            p.ln_tokens.beta)
        record_shape("global.tokens", tokens)
        pooled = attention.attend(p.attn_kind, tokens, p.attn, heads,
                                  pool=True)
    record_shape("global.pooled", pooled)
    with stage("global.ffn"):
        refined = ffn(pooled, p.ln_ffn, p.ffn)
    record_shape("global.out", refined)
    return refined
