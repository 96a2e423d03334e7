"""Local token blocks: temporal affinity, per-frame attention, feed-forward.

Tokens are a plain (frames, 1 + grid_h*grid_w, hidden) array: index 0 of
every frame is that frame's class token and the rest raster the spatial
grid, which callers pass alongside as ``(grid_h, grid_w)``.  Each block
applies three residual sub-units, each preceded by its own layer
normalization:

1. temporal affinity: a shared value projection, a depthwise temporal
   convolution over the spatial grid (class tokens pass through), and a
   fusing projection;
2. a per-frame token mixer: the block's attention kind, run by one
   row-preserving :func:`cuenet.attention.attend` call on the whole
   (frames, tokens, hidden) stack, batched over the frame axis;
3. :func:`ffn`, a two-layer feed-forward unit with a GELU: exact erf in
   double precision, a rational erf (max error 4.5e-7) in single.

Two parts are shared with the global block: :func:`spatial_dwconv`, the
depthwise convolution of the spatial tokens (the temporal taps here, the
positional encoding there), and the residual :func:`ffn`.

The temporal convolution is the only place information crosses frames in a
local block; the mixer never attends across frame boundaries.
"""

from dataclasses import dataclass

import numpy as np

from . import attention
from .errors import ShapeError
from .instrument import stage
from .tensor import (LnParams, check_tensor, dwconv3d, gelu, layer_norm,
                     matmul)


@dataclass
class LtParams:
    """Temporal affinity unit: value map, per-channel temporal taps, fuse."""

    value: np.ndarray    # (d, d)
    kernel: np.ndarray   # (kt, 1, 1, d) depthwise taps
    fuse: np.ndarray     # (d, d)


@dataclass
class FfnParams:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass
class LocalBlockParams:
    """One local block: three normalizations and their sub-units.

    ``attn`` is the parameter group of the ``attn_kind`` mechanism.
    """

    ln1: LnParams
    lt: LtParams
    ln2: LnParams
    attn_kind: str
    attn: attention.AttentionParams
    ln3: LnParams
    ffn: FfnParams

    def __post_init__(self):
        attention.check_kind(self.attn_kind)


def spatial_dwconv(x, grid, kernel):
    """Depthwise convolution of the spatial tokens of a token array.

    ``x`` is (frames, 1 + grid_h*grid_w, d); token ``1 + i*grid_w + j`` of
    a frame sits at row ``i``, column ``j`` of the (frames, grid_h, grid_w,
    d) volume that ``kernel`` convolves.  Returns the (frames,
    grid_h*grid_w, d) result; class tokens are not read.
    """
    check_tensor(x, rank=3, name="token array")
    gh, gw = grid
    if gh < 0 or gw < 0:
        raise ShapeError(f"negative grid {grid}")
    t, m, d = x.shape
    if m != gh * gw + 1:
        raise ShapeError(f"token array has {m} tokens per frame; grid "
                         f"{grid} implies {gh * gw + 1}")
    volume = np.ascontiguousarray(x[:, 1:, :]).reshape(t, gh, gw, d)
    return dwconv3d(volume, kernel).reshape(t, gh * gw, d)


def ffn(x, ln, p):
    """Pre-normalized residual feed-forward over the last axis of ``x``:
    ``x + (gelu(ln(x) @ w1 + b1) @ w2 + b2)``."""
    d = x.shape[-1]
    normed = layer_norm(x, ln.gamma, ln.beta).reshape(-1, d)
    hidden = gelu(matmul(normed, p.w1) + p.b1)
    return x + (matmul(hidden, p.w2) + p.b2).reshape(x.shape)


def lt_mhra(x, grid, p):
    """Temporal affinity over already-normalized tokens.

    Class tokens see the identity affinity; spatial tokens are mixed along
    time only, per channel, with shared taps.  Both are wrapped by the value
    and fusing projections.
    """
    d = x.shape[-1]
    proj = matmul(x.reshape(-1, d), p.value).reshape(x.shape)
    proj[:, 1:, :] = spatial_dwconv(proj, grid, p.kernel)
    return matmul(proj.reshape(-1, d), p.fuse).reshape(x.shape)


def local_uniblock_forward(x, grid, p, heads, stage_prefix):
    """Run one local block: three pre-normalized residual sub-units.

    Each sub-unit's work is counted under ``{stage_prefix}.lt|attn|ffn``.
    """
    with stage(f"{stage_prefix}.lt"):
        x = x + lt_mhra(layer_norm(x, p.ln1.gamma, p.ln1.beta), grid, p.lt)
    with stage(f"{stage_prefix}.attn"):
        x = x + attention.attend(p.attn_kind,
                                 layer_norm(x, p.ln2.gamma, p.ln2.beta),
                                 p.attn, heads, pool=False)
    with stage(f"{stage_prefix}.ffn"):
        x = ffn(x, p.ln3, p.ffn)
    return x
