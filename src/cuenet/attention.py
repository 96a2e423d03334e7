"""Token-mixing attention over (n, d) tokens or (t, n, d) frame stacks.

Three interchangeable mechanisms, named by the ``ATTENTION_*`` kinds:

* :func:`mhsa` -- conventional multi-head self-attention with softmax over
  pairwise scores, :func:`softmax_attention` followed by an output
  projection.  Cost and intermediate storage grow with n**2.
* :func:`eaa_original` -- additive attention with a matrix query: every token
  row is projected to a query, per-row scores are softmax-normalized, and
  their weighted sum forms a single global query vector.  Linear in n.
* :func:`meaa` -- the modified additive form.  The matrix query is replaced
  by one learnable query vector, so the score collapses to a single scalar
  and the softmax disappears entirely.  Also linear in n, with one fewer
  n-by-d projection and no n-vector of scores.

:func:`attend` is the one place a kernel is chosen by kind.  Every kernel
and :func:`attend` take (n, d) tokens or a (t, n, d) stack of t frames and
return rows of the same shape, each frame attending only within itself;
with ``pool`` they take (n, d) tokens and return the (1, d) column mean of
the rows.  A stack's per-token projections run once over all t*n rows and
its per-frame products, the modified form's token-free query path included,
are one :func:`cuenet.tensor.bmm` over frames: exactly t times the work of
one frame and the same values as t separate calls.

The additive kernels and :func:`softmax_attention` announce intermediate
buffer lifetimes to the active memory meter (see :mod:`cuenet.instrument`)
under a fixed step schedule: a step's inputs stay live until its outputs
exist, and a softmax materializes its weights in a fresh buffer.  The
resulting high-water marks on (n, d) tokens, pooled and one head, in elements:

* meaa:               2*n*d + 2*d
* eaa_original:       3*n*d + n + d
* softmax_attention:  max(3*n*d + n*n, n*d + 2*n*n)

Each buffer the schedule names is one allocation: bias and residual adds
and the softmax's exponential and normalization run in place in it, and no
kernel writes its inputs or parameters.  A buffer's last reference goes
when the meter frees it, with one exception: the additive kernels keep their
fused rows and query residual referenced while :func:`_project_rows` runs,
so at large n their measured peak holds one n-by-d buffer more than the
schedule: about 3*n*d for meaa and 4*n*d for eaa_original.

Gradients for the modified form are provided analytically in
:func:`meaa_grad` for every parameter group plus both inputs.
"""

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import ConfigError, ShapeError
from .instrument import meter_alloc, meter_free
from .tensor import (LnParams, bmm, check_tensor, layer_norm, matmul,
                     mean_rows, mul, scale, softmax_rows)

ATTENTION_SELF = "self_attention"
ATTENTION_MEAA = "meaa"
ATTENTION_EAA = "eaa_original"
ATTENTION_KINDS = (ATTENTION_SELF, ATTENTION_MEAA, ATTENTION_EAA)


def check_kind(kind):
    """Reject a name that is not one of :data:`ATTENTION_KINDS`."""
    if kind not in ATTENTION_KINDS:
        raise ConfigError(f"unknown attention kind {kind!r}; expected one of "
                          f"{ATTENTION_KINDS}")


@dataclass
class MhsaParams:
    """Projections for softmax self-attention: query, key, value, fuse."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    fuse: np.ndarray


@dataclass
class AdditiveParams:
    """Parameters for the additive mechanisms.

    ``q`` is the learnable query vector of the modified form and ``q_ln``
    the normalization :func:`attend` applies to it; both are unused (may be
    None) for the original matrix-query form.  ``w_a`` holds the score
    weights; ``w1, b1, w2, b2`` the two output projections.
    """

    q: np.ndarray
    wq: np.ndarray
    wk: np.ndarray
    w_a: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    q_ln: Optional[LnParams] = None


AttentionParams = Union[MhsaParams, AdditiveParams]


def attend(kind, tokens, p, heads, pool):
    """Run the ``kind`` mechanism over (n, d) tokens or a (t, n, d) stack.

    ``p`` is the kind's parameter group: :class:`MhsaParams` for
    self-attention, :class:`AdditiveParams` otherwise.  ``heads`` applies to
    self-attention only.  Returns rows of the input's shape, or with
    ``pool`` (on (n, d) tokens) their (1, d) column mean.
    """
    check_kind(kind)
    if kind == ATTENTION_SELF:
        out = mhsa(tokens, p, heads)
        return mean_rows(out) if pool else out
    if kind == ATTENTION_MEAA:
        q_normed = layer_norm(p.q, p.q_ln.gamma, p.q_ln.beta)
        return meaa(q_normed, tokens, p, pool)
    return eaa_original(tokens, p, pool)


def _frame_stack(x, name, pool=False):
    """Validate (n, d) tokens or, without ``pool``, a (t, n, d) stack;
    return it as a (t, n, d) stack."""
    if check_tensor(x, name=name).ndim not in (2, 3):
        raise ShapeError(f"{name} must have rank 2 or 3, got shape "
                         f"{x.shape}")
    if pool and x.ndim == 3:
        raise ShapeError(f"pooled {name} must be (n, d), got shape "
                         f"{x.shape}")
    if min(x.shape[:-1]) < 1:
        raise ShapeError(f"{name} needs at least one token row, got shape "
                         f"{x.shape}")
    return x.reshape((-1,) + x.shape[-2:])


# ---------------------------------------------------------------------------
# modified additive attention (scalar gating)
# ---------------------------------------------------------------------------

def attention_scalar(q_star, w_a):
    """Additive score (q . w_a) / sqrt(d) of every projected query row.

    ``q_star`` is (m, d) or a (t, m, d) stack; the scores come back as
    (m, 1) or (t, m, 1), shaped to scale the rows by broadcasting.  With one
    row per frame this is the modified form's scalar gate, exposed so its
    linearity in ``w_a`` can be probed directly.
    """
    stack = _frame_stack(q_star, "projected query")
    d = stack.shape[-1]
    # one gemv per frame: one over all t*m rows rounds some rows unlike the
    # (m, d) call does
    raw = bmm(stack, w_a.reshape(1, d, 1))
    return scale(raw, 1.0 / math.sqrt(d)).reshape(q_star.shape[:-1] + (1,))


def _project_rows(fused, residual, p, pool):
    """Shared tail of the additive kernels: two projections, optional mean.

    ``fused`` is a (t, n, d) stack.  ``residual``, the query (live in the
    memory meter as ``q``), broadcasts against it, is added after the first
    projection and is released with ``fused``.  Returns the (t, n, d) rows,
    or with ``pool`` the (1, d) mean of a one-frame stack's rows.
    """
    d = fused.shape[-1]
    hidden = matmul(fused.reshape(-1, d), p.w1).reshape(fused.shape)
    hidden += p.b1
    hidden += residual
    meter_alloc("hidden", hidden.size)
    meter_free("fused")
    meter_free("q")
    rows = matmul(hidden.reshape(-1, d), p.w2)
    rows += p.b2
    meter_alloc("rows", rows.size)
    meter_free("hidden")
    del hidden
    if not pool:
        return rows.reshape(fused.shape)
    out = mean_rows(rows)
    meter_alloc("out", d)
    meter_free("rows")
    return out


def meaa(q_normed, tokens, p, pool=True):
    """Modified additive attention: (1, d) pooled, else input-shaped rows.

    The query is gated by the scalar score, broadcast against the projected
    keys, passed through the two projections with a query residual, and the
    transformed rows are mean-pooled unless ``pool`` is false.  A (t, n, d)
    stack runs the query path once per frame.
    """
    stack = _frame_stack(tokens, "additive attention tokens", pool)
    check_tensor(q_normed, rank=2, name="normalized query")
    t, n, d = stack.shape
    if q_normed.shape != (1, d):
        raise ShapeError(f"query shape {q_normed.shape} vs tokens "
                         f"{tokens.shape}; expected (1, {d})")
    # the query path needs no tokens, yet runs per frame as count_flops prices
    q_star = bmm(np.broadcast_to(q_normed, (t, 1, d)), p.wq[None])
    meter_alloc("q", q_star.size)
    k = matmul(stack.reshape(-1, d), p.wk)
    meter_alloc("k", k.size)
    alpha = attention_scalar(q_star, p.w_a)
    meter_alloc("alpha", alpha.size)
    q_gated = mul(q_star, alpha)
    meter_alloc("q_gated", q_gated.size)
    meter_free("alpha")
    del alpha
    fused = mul(k.reshape(t, n, d), q_gated)
    meter_alloc("fused", fused.size)
    meter_free("k")
    meter_free("q_gated")
    del k, q_gated
    out = _project_rows(fused, q_star, p, pool)
    return out if pool else out.reshape(tokens.shape)


@dataclass
class AdditiveGrads:
    """Gradients of the pooled modified form, one field per input/parameter."""

    q: np.ndarray
    tokens: np.ndarray
    wq: np.ndarray
    wk: np.ndarray
    w_a: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


def meaa_grad(q_normed, tokens, p, upstream):
    """Analytic gradients of ``meaa`` against an upstream (1, d) cotangent.

    Recomputes the forward intermediates, then walks the chain in reverse.
    The mean pool spreads the cotangent uniformly over rows, so the second
    projection bias receives exactly the upstream vector.
    """
    x = _frame_stack(tokens, "additive attention tokens", pool=True)[0]
    check_tensor(upstream, rank=2, name="upstream cotangent")
    n, d = x.shape
    if upstream.shape != (1, d):
        raise ShapeError(f"upstream shape {upstream.shape}; expected (1, {d})")
    inv_sqrt_d = 1.0 / math.sqrt(d)

    q_star = q_normed @ p.wq
    k = x @ p.wk
    alpha = float((q_star @ p.w_a.reshape(d, 1))[0, 0]) * inv_sqrt_d
    q_gated = q_star * q_star.dtype.type(alpha)
    fused = k * q_gated
    hidden = fused @ p.w1 + p.b1 + q_star

    g_rows = np.repeat(upstream / upstream.dtype.type(n), n, axis=0)
    g_b2 = upstream[0].copy()
    g_w2 = hidden.T @ g_rows
    g_hidden = g_rows @ p.w2.T
    g_b1 = g_hidden.sum(axis=0)
    g_qs = g_hidden.sum(axis=0, keepdims=True)
    g_fused = g_hidden @ p.w1.T
    g_w1 = fused.T @ g_hidden
    g_k = g_fused * q_gated
    g_q_gated = (g_fused * k).sum(axis=0, keepdims=True)
    g_alpha = float((g_q_gated * q_star).sum())
    g_qs = g_qs + q_star.dtype.type(alpha) * g_q_gated \
        + q_star.dtype.type(g_alpha * inv_sqrt_d) * p.w_a[None, :]
    g_w_a = (g_alpha * inv_sqrt_d) * q_star[0]
    g_wk = x.T @ g_k
    g_tokens = g_k @ p.wk.T
    g_wq = q_normed.T @ g_qs
    g_q = g_qs @ p.wq.T
    return AdditiveGrads(q=g_q, tokens=g_tokens, wq=g_wq, wk=g_wk,
                         w_a=g_w_a.astype(x.dtype, copy=False), w1=g_w1,
                         b1=g_b1, w2=g_w2, b2=g_b2)


# ---------------------------------------------------------------------------
# original additive attention (matrix query)
# ---------------------------------------------------------------------------

def eaa_original(tokens, p, pool=True):
    """Original additive attention; (1, d) pooled, or (n, d) rows.

    Every token projects to a query row; softmax-normalized per-row scores
    weight the rows into one global query, which gates the keys.  The two
    projections carry a per-row query residual before the mean pool, which
    is skipped unless ``pool`` is true.  A (t, n, d) stack gives (t, n, d)
    rows, one global query per frame.
    """
    stack = _frame_stack(tokens, "additive attention tokens", pool)
    t, n, d = stack.shape
    rows = stack.reshape(-1, d)
    q = matmul(rows, p.wq).reshape(t, n, d)
    meter_alloc("q", q.size)
    k = matmul(rows, p.wk)
    meter_alloc("k", k.size)
    scores = attention_scalar(q, p.w_a)
    meter_alloc("scores", scores.size)
    weights = softmax_rows(scores.reshape(t, n))
    meter_alloc("weights", weights.size)
    meter_free("scores")
    del scores
    q_global = bmm(weights.reshape(t, 1, n), q)
    fused = mul(k.reshape(t, n, d), q_global)
    meter_alloc("q_global", q_global.size)
    meter_alloc("fused", fused.size)
    meter_free("weights")
    meter_free("k")
    meter_free("q_global")
    del weights, k, q_global
    out = _project_rows(fused, q, p, pool)
    return out if pool else out.reshape(tokens.shape)


# ---------------------------------------------------------------------------
# softmax self-attention
# ---------------------------------------------------------------------------

def softmax_attention(tokens, wq, wk, wv, heads):
    """Multi-head softmax attention without output projection; the context
    comes back in the input's shape, the one buffer it leaves live.

    Each head's scores and context are one batched product over frames.
    Heads stay a loop, so the softmax works on one head's (t*n, n) scores
    at a time: one softmax over every head's scores was slower at 400
    tokens, where its temporaries no longer fit in cache.
    """
    stack = _frame_stack(tokens, "self-attention tokens")
    t, n, d = stack.shape
    if heads < 1 or d % heads != 0:
        raise ShapeError(f"head count {heads} must divide width {d}")
    dh = d // heads
    rows = stack.reshape(-1, d)
    # scaled as it is made, so no unscaled copy outlives the product
    q = scale(matmul(rows, wq), 1.0 / math.sqrt(dh)).reshape(t, n, d)
    meter_alloc("q", q.size)
    k = matmul(rows, wk).reshape(t, n, d)
    meter_alloc("k", k.size)
    v = matmul(rows, wv).reshape(t, n, d)
    meter_alloc("v", v.size)
    ctx = np.empty_like(stack)
    for h in range(heads):
        lo, hi = h * dh, (h + 1) * dh
        scores = bmm(q[:, :, lo:hi], k[:, :, lo:hi].transpose(0, 2, 1))
        meter_alloc("scores", scores.size)
        if h == heads - 1:  # the last use of q and k
            meter_free("q")
            meter_free("k")
            del q, k
        weights = softmax_rows(scores.reshape(-1, n)).reshape(t, n, n)
        meter_alloc("weights", weights.size)
        meter_free("scores")
        del scores
        ctx[:, :, lo:hi] = bmm(weights, v[:, :, lo:hi])
        if h == 0:  # charged once its first head is written
            meter_alloc("ctx", ctx.size)
        meter_free("weights")
        del weights
    meter_free("v")
    return ctx.reshape(tokens.shape)


def mhsa(tokens, p, heads):
    """Multi-head softmax self-attention: :func:`softmax_attention` and the
    ``fuse`` output projection, in the input's shape."""
    ctx = softmax_attention(tokens, p.wq, p.wk, p.wv, heads)
    d = ctx.shape[-1]
    return matmul(ctx.reshape(-1, d), p.fuse).reshape(tokens.shape)
