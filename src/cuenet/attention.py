"""Token-mixing attention over (n, d) tokens or (t, n, d) frame stacks.

Three interchangeable mechanisms, named by the ``ATTENTION_*`` kinds:

* :func:`mhsa` -- conventional multi-head self-attention with softmax over
  pairwise scores, :func:`softmax_attention` followed by an output
  projection.  Cost grows with n**2, and so does intermediate storage up
  to 512 tokens; past that the scores are made in blocks of query rows.
* :func:`eaa_original` -- additive attention with a matrix query: every token
  row is projected to a query, per-row scores are softmax-normalized, and
  their weighted sum forms a single global query vector.  Linear in n.
* :func:`meaa` -- the modified additive form.  The matrix query is replaced
  by one learnable query vector, so the score collapses to a single scalar
  and the softmax disappears entirely.  Also linear in n, with one fewer
  n-by-d projection and no n-vector of scores.

:func:`attend` chooses a kernel by parameter group: each kind binds to its
own group, :class:`MhsaParams`, :class:`MeaaParams` or
:class:`AdditiveParams`, so the group's type is the one statement of which
mechanism runs.  Every kernel and :func:`attend` take (n, d) tokens or a
(t, n, d) stack of t frames and return rows of the same shape, each frame
attending only within itself; a caller that wants one pooled vector takes
:func:`cuenet.tensor.mean_rows` of the rows.  A stack's per-token
projections run once over all t*n rows and its per-frame products, the
modified form's token-free query path included, are one batched
:func:`cuenet.tensor.matmul` over frames: exactly t times the work of one
frame and the same values as t separate calls.

The additive kernels and :func:`softmax_attention` charge each intermediate
buffer to the active memory meter (see :mod:`cuenet.instrument`) where they
allocate it, and a charge lasts as long as its array, so the kernels' ``del``
statements and returns are their release schedule.  A step's inputs stay
live until its outputs exist, and a softmax normalizes its scores in place,
so its weights are the scores buffer.  Self-attention scores b =
:func:`score_rows` query rows at a time: all n rows up to n = 512, else
about :data:`SCORE_BLOCK` / n.  The resulting high-water marks on (n, d)
tokens, for any head count, in elements:

* meaa:               2*n*d + 2*d
* eaa_original:       3*n*d + n + d
* softmax_attention:  4*n*d + b*n

A (t, n, d) stack holds t times as much.  A returned output stays charged
while the caller holds it: the self-attention context, which :func:`mhsa`
drops once its projection exists, and the additive rows.  Nothing else a
kernel charged outlives the call, so a meter around :func:`mhsa`, or around
a call whose rows are pooled and dropped, ends with zero live elements.

Each charged buffer is one allocation: bias and residual adds and the
softmax run in place in it, and no kernel writes its inputs or parameters.

Gradients for the modified form are provided analytically in
:func:`meaa_grad` for every parameter group plus both inputs.
"""

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigError, ShapeError
from .instrument import meter_alloc
from .tensor import (LnParams, check_tensor, layer_norm, matmul, mul, scale,
                     softmax_rows)

ATTENTION_SELF = "self_attention"
ATTENTION_MEAA = "meaa"
ATTENTION_EAA = "eaa_original"
ATTENTION_KINDS = (ATTENTION_SELF, ATTENTION_MEAA, ATTENTION_EAA)

# score elements per frame in one block of softmax_attention (at least one
# whole row); see score_rows
SCORE_BLOCK = 2 ** 18


def check_kind(kind):
    """Reject a name that is not one of :data:`ATTENTION_KINDS`."""
    if kind not in ATTENTION_KINDS:
        raise ConfigError(f"unknown attention kind {kind!r}; expected one of "
                          f"{ATTENTION_KINDS}")


@dataclass
class MhsaParams:
    """Softmax self-attention: query, key, value and fuse projections, and
    the number of heads that split the width."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    fuse: np.ndarray
    heads: int


@dataclass
class AdditiveParams:
    """Parameters of the original matrix-query additive form, and the part
    both additive kernels read: ``wq, wk`` the query and key projections,
    ``w_a`` the score weights, ``w1, b1, w2, b2`` the two output
    projections."""

    wq: np.ndarray
    wk: np.ndarray
    w_a: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass
class MeaaParams(AdditiveParams):
    """Parameters of the modified form: the additive group plus the
    learnable query vector ``q`` and the normalization ``q_ln`` that
    :func:`attend` applies to it."""

    q: np.ndarray
    q_ln: LnParams


AttentionParams = Union[MhsaParams, MeaaParams, AdditiveParams]


def attend(tokens, p):
    """Run the mechanism that the parameter group ``p`` names over (n, d)
    tokens or a (t, n, d) stack, and return rows of the input's shape.

    :class:`MhsaParams`, head count included, run :func:`mhsa`;
    :class:`MeaaParams` run :func:`meaa` on the normalized query; plain
    :class:`AdditiveParams` run :func:`eaa_original`.  Any other ``p``
    raises ``ConfigError``.
    """
    if isinstance(p, MhsaParams):
        return mhsa(tokens, p)
    if isinstance(p, MeaaParams):
        q_normed = layer_norm(p.q, p.q_ln.gamma, p.q_ln.beta)
        return meaa(q_normed, tokens, p)
    if isinstance(p, AdditiveParams):
        return eaa_original(tokens, p)
    raise ConfigError(f"no attention mechanism takes parameters of type "
                      f"{type(p).__name__}")


def _frame_stack(x, name):
    """Validate (n, d) tokens or a (t, n, d) stack; return it as a
    (t, n, d) stack."""
    if check_tensor(x, name=name).ndim not in (2, 3):
        raise ShapeError(f"{name} must have rank 2 or 3, got shape "
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
    raw = matmul(stack, w_a.reshape(1, d, 1))
    return scale(raw, 1.0 / math.sqrt(d)).reshape(q_star.shape[:-1] + (1,))


def _hidden_rows(fused, residual, p):
    """First projection of the additive kernels' shared tail.

    ``fused`` is a (t, n, d) stack.  ``residual``, the query, broadcasts
    against it and is added after the projection.  Charges and returns the
    ``hidden`` rows; the caller releases ``fused`` and the query by dropping
    its references to them before :func:`_output_rows` allocates.
    """
    d = fused.shape[-1]
    hidden = matmul(fused.reshape(-1, d), p.w1).reshape(fused.shape)
    hidden += p.b1
    hidden += residual
    meter_alloc(hidden)
    return hidden


def _output_rows(hidden, p):
    """Second projection of the additive kernels' shared tail.

    Returns the rows of a (t, n, d) ``hidden`` stack as one (t*n, d)
    matrix, charged while the caller holds it.  ``hidden`` goes when the
    caller's last reference to it does.
    """
    d = hidden.shape[-1]
    rows = matmul(hidden.reshape(-1, d), p.w2)
    rows += p.b2
    meter_alloc(rows)
    return rows


def meaa(q_normed, tokens, p):
    """Modified additive attention: rows in the input's shape.

    The query is gated by the scalar score, broadcast against the projected
    keys and passed through the two projections with a query residual, one
    row per token.  A (t, n, d) stack runs the query path once per frame.
    """
    stack = _frame_stack(tokens, "additive attention tokens")
    check_tensor(q_normed, rank=2, name="normalized query")
    t, n, d = stack.shape
    if q_normed.shape != (1, d):
        raise ShapeError(f"query shape {q_normed.shape} vs tokens "
                         f"{tokens.shape}; expected (1, {d})")
    # the query path needs no tokens, yet runs per frame as count_flops prices
    q_star = matmul(np.broadcast_to(q_normed, (t, 1, d)), p.wq[None])
    meter_alloc(q_star)
    k = matmul(stack.reshape(-1, d), p.wk)
    meter_alloc(k)
    alpha = attention_scalar(q_star, p.w_a)
    meter_alloc(alpha)
    q_gated = mul(q_star, alpha)
    meter_alloc(q_gated)
    del alpha
    fused = mul(k.reshape(t, n, d), q_gated)
    meter_alloc(fused)
    del k, q_gated
    hidden = _hidden_rows(fused, q_star, p)
    del fused, q_star
    return _output_rows(hidden, p).reshape(tokens.shape)


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
    """Analytic gradients of ``mean_rows(meaa(...))`` on (n, d) tokens
    against an upstream (1, d) cotangent.

    Recomputes the forward intermediates, then walks the chain in reverse.
    The mean pool spreads the cotangent uniformly over rows, so the second
    projection bias receives exactly the upstream vector.
    """
    check_tensor(tokens, rank=2, name="additive attention tokens")
    x = _frame_stack(tokens, "additive attention tokens")[0]
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

def eaa_original(tokens, p):
    """Original additive attention: rows in the input's shape.

    Every token projects to a query row; softmax-normalized per-row scores
    weight the rows into one global query, which gates the keys.  The two
    projections carry a per-row query residual, one row per token.  A
    (t, n, d) stack runs one global query per frame.
    """
    stack = _frame_stack(tokens, "additive attention tokens")
    t, n, d = stack.shape
    rows = stack.reshape(-1, d)
    q = matmul(rows, p.wq).reshape(t, n, d)
    meter_alloc(q)
    k = matmul(rows, p.wk)
    meter_alloc(k)
    # the softmax weights overwrite the scores
    scores = softmax_rows(attention_scalar(q, p.w_a).reshape(t, n))
    meter_alloc(scores)
    q_global = matmul(scores.reshape(t, 1, n), q)
    fused = mul(k.reshape(t, n, d), q_global)
    meter_alloc(q_global)
    meter_alloc(fused)
    del scores, k, q_global
    hidden = _hidden_rows(fused, q, p)
    del fused, q
    return _output_rows(hidden, p).reshape(tokens.shape)


# ---------------------------------------------------------------------------
# softmax self-attention
# ---------------------------------------------------------------------------

def score_rows(n):
    """Query rows per score block of :func:`softmax_attention` over n
    tokens: all n up to 512, else :data:`SCORE_BLOCK` // n, at least one."""
    return min(n, max(1, SCORE_BLOCK // n))


def softmax_attention(tokens, wq, wk, wv, heads):
    """Multi-head softmax attention without output projection; the context
    comes back in the input's shape.

    Each head's scores and context are batched products over frames, one
    block of :func:`score_rows` query rows at a time.  A block holds whole
    score rows, so every row takes the float operations of the untiled
    n-by-n scores; BLAS may still round the last column of an odd-width
    product in a block unlike in the whole, in the last bit.  Heads stay a
    loop, so the softmax works on one head's block at a time: one softmax
    over every head's scores was slower at 400 tokens, where its
    temporaries no longer fit in cache.
    """
    stack = _frame_stack(tokens, "self-attention tokens")
    t, n, d = stack.shape
    if heads < 1 or d % heads != 0:
        raise ShapeError(f"head count {heads} must divide width {d}")
    dh = d // heads
    b = score_rows(n)
    rows = stack.reshape(-1, d)
    # scaled as it is made, so no unscaled copy outlives the product
    q = scale(matmul(rows, wq), 1.0 / math.sqrt(dh)).reshape(t, n, d)
    meter_alloc(q)
    k = matmul(rows, wk).reshape(t, n, d)
    meter_alloc(k)
    v = matmul(rows, wv).reshape(t, n, d)
    meter_alloc(v)
    ctx = np.empty_like(stack)
    meter_alloc(ctx)
    for h in range(heads):
        lo, hi = h * dh, (h + 1) * dh
        kt = k[:, :, lo:hi].transpose(0, 2, 1)
        for r in range(0, n, b):
            scores = matmul(q[:, r:r + b, lo:hi], kt)
            meter_alloc(scores)
            if h == heads - 1 and r + b >= n:  # the last use of q and k
                del q, k, kt
            # the softmax weights overwrite the scores
            scores = softmax_rows(scores.reshape(-1, n)).reshape(
                scores.shape)
            ctx[:, r:r + b, lo:hi] = matmul(scores, v[:, :, lo:hi])
            del scores
    return ctx.reshape(tokens.shape)


def mhsa(tokens, p):
    """Multi-head softmax self-attention: :func:`softmax_attention` with
    ``p.heads`` heads and the ``fuse`` output projection, in the input's
    shape."""
    ctx = softmax_attention(tokens, p.wq, p.wk, p.wv, p.heads)
    d = ctx.shape[-1]
    return matmul(ctx.reshape(-1, d), p.fuse).reshape(tokens.shape)
