"""Local token blocks: temporal affinity, per-frame attention, feed-forward.

Tokens live in a :class:`TokenField` of shape (frames, tokens_per_frame,
hidden) where index 0 of every frame is that frame's class token and the
rest raster a spatial grid.  Each block applies three residual sub-units,
each preceded by its own layer normalization:

1. temporal affinity: a shared value projection, a depthwise temporal
   convolution over the spatial grid (class tokens pass through), and a
   fusing projection;
2. a per-frame token mixer: the block's attention kind, run by one
   row-preserving :func:`cuenet.attention.attend` call on the whole
   (frames, tokens, hidden) stack, batched over the frame axis;
3. a two-layer feed-forward unit with a GELU: exact erf in double
   precision, a rational erf (max error 4.5e-7) in single.

The temporal convolution is the only place information crosses frames in a
local block; the mixer never attends across frame boundaries.
"""

from dataclasses import dataclass

import numpy as np

from . import attention
# The kind names stay importable from here for existing callers.
from .attention import (ATTENTION_EAA, ATTENTION_KINDS,  # noqa: F401
                        ATTENTION_MEAA, ATTENTION_SELF)
from .errors import ShapeError
from .instrument import stage
from .tensor import (LnParams, check_tensor, dwconv3d, gelu, layer_norm,
                     matmul)


@dataclass
class TokenField:
    """Per-frame token matrix with its spatial grid geometry.

    ``data`` has shape (frames, grid_h*grid_w + 1, hidden); ``grid`` is
    (grid_h, grid_w).  Token 0 of each frame is the class token.
    """

    data: np.ndarray
    grid: tuple

    def __post_init__(self):
        check_tensor(self.data, rank=3, name="token field")
        gh, gw = self.grid
        if gh < 0 or gw < 0:
            raise ShapeError(f"negative grid {self.grid}")
        if self.data.shape[1] != gh * gw + 1:
            raise ShapeError(f"token field has {self.data.shape[1]} tokens "
                             f"per frame; grid {self.grid} implies "
                             f"{gh * gw + 1}")

    @property
    def frames(self):
        return self.data.shape[0]

    @property
    def spatial_tokens(self):
        return self.grid[0] * self.grid[1]

    @property
    def hidden(self):
        return self.data.shape[2]

    def with_data(self, data):
        if data.shape != self.data.shape:
            raise ShapeError(f"replacement shape {data.shape} vs "
                             f"{self.data.shape}")
        return TokenField(data=data, grid=self.grid)

    def spatial_volume(self):
        """Spatial tokens as a (frames, grid_h, grid_w, hidden) volume."""
        gh, gw = self.grid
        return np.ascontiguousarray(
            self.data[:, 1:, :]).reshape(self.frames, gh, gw, self.hidden)

    def flat(self):
        """All tokens as one (frames*tokens_per_frame, hidden) matrix,
        frame-major."""
        return self.data.reshape(-1, self.hidden)


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


def _normed(field, ln):
    return field.with_data(layer_norm(field.data, ln.gamma, ln.beta))


def lt_mhra(field, p):
    """Temporal affinity over an already-normalized field.

    Class tokens see the identity affinity; spatial tokens are mixed along
    time only, per channel, with shared taps.  Both are wrapped by the value
    and fusing projections.
    """
    d = field.hidden
    proj = matmul(field.flat(), p.value).reshape(field.data.shape)
    mixed = proj.copy()
    if field.spatial_tokens:
        gh, gw = field.grid
        volume = np.ascontiguousarray(proj[:, 1:, :]).reshape(
            field.frames, gh, gw, d)
        conv = dwconv3d(volume, p.kernel)
        mixed[:, 1:, :] = conv.reshape(field.frames, field.spatial_tokens, d)
    fused = matmul(mixed.reshape(-1, d), p.fuse).reshape(field.data.shape)
    return field.with_data(fused)


def frame_mixer(field, kind, p, heads):
    """Per-frame ``kind`` attention over an already-normalized field: one
    :func:`cuenet.attention.attend` call on the whole frame stack, each
    frame attending only within itself."""
    return field.with_data(
        attention.attend(kind, field.data, p, heads, pool=False))


def ffn(field, p):
    """Position-wise feed-forward over an already-normalized field."""
    d = field.hidden
    flat = field.flat()
    hidden = gelu(matmul(flat, p.w1) + p.b1)
    out = matmul(hidden, p.w2) + p.b2
    return field.with_data(out.reshape(field.data.shape))


def local_uniblock_forward(field, p, heads, stage_prefix="local0"):
    """Run one local block: three pre-normalized residual sub-units.

    Each sub-unit's work is counted under ``{stage_prefix}.lt|attn|ffn``.
    """
    with stage(f"{stage_prefix}.lt"):
        mixed = lt_mhra(_normed(field, p.ln1), p.lt)
        field = field.with_data(field.data + mixed.data)
    with stage(f"{stage_prefix}.attn"):
        mixed = frame_mixer(_normed(field, p.ln2), p.attn_kind, p.attn,
                            heads)
        field = field.with_data(field.data + mixed.data)
    with stage(f"{stage_prefix}.ffn"):
        lifted = ffn(_normed(field, p.ln3), p.ffn)
        field = field.with_data(field.data + lifted.data)
    return field
