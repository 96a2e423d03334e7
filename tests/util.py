"""Shared test helpers: error metrics, loop oracles and byte references.

The oracles deliberately avoid the package's vectorized kernels: plain
Python loops over list-of-lists data, so an agreement check exercises two
genuinely different computation routes.

The ``*_reference`` functions are the earlier numpy formulations of kernels
that now build their buffers and views by hand (``np.pad``,
``sliding_window_view``, ``x.mean``/``x.var``, a whole-clip resample with
a per-axis weight broadcast), of softmax attention over whole n-by-n
score matrices before it worked in row blocks, and of the token blocks as
they were composed before the blocks shared one feed-forward unit and one
spatial convolution.  They do the same arithmetic in the same order, so the
rewritten code must match them byte for byte, not only within a tolerance.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def rel_err(a, b):
    """Max-norm relative error: max|a-b| / max(max|b|, 1)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    assert a.shape == b.shape, f"shape mismatch {a.shape} vs {b.shape}"
    if a.size == 0:
        return 0.0
    denom = max(float(np.max(np.abs(b))), 1.0)
    return float(np.max(np.abs(a - b))) / denom


def assert_close(a, b, rel=1e-12):
    err = rel_err(a, b)
    assert err <= rel, f"max-norm relative error {err:.3e} exceeds {rel:g}"


def matmul_oracle(a, b):
    """Triple-loop matrix product over Python lists."""
    a = np.asarray(a).tolist()
    b = np.asarray(b).tolist()
    m, k = len(a), len(a[0])
    n = len(b[0])
    out = [[0.0] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i][t] * b[t][j]
            out[i][j] = acc
    return np.array(out)


def conv3d_oracle(x, kernel, stride, padding=(0, 0, 0)):
    """Seven-deep loop cross-correlation."""
    x = np.asarray(x)
    kernel = np.asarray(kernel)
    pt, ph, pw = padding
    xp = np.pad(x, ((pt, pt), (ph, ph), (pw, pw), (0, 0))).tolist()
    kt, kh, kw, cin, cout = kernel.shape
    klist = kernel.tolist()
    st, sh, sw = stride
    t_out = (len(xp) - kt) // st + 1
    h_out = (len(xp[0]) - kh) // sh + 1
    w_out = (len(xp[0][0]) - kw) // sw + 1
    out = np.zeros((t_out, h_out, w_out, cout))
    for t in range(t_out):
        for i in range(h_out):
            for j in range(w_out):
                for o in range(cout):
                    acc = 0.0
                    for dt in range(kt):
                        for di in range(kh):
                            for dj in range(kw):
                                row = xp[t * st + dt][i * sh + di][j * sw + dj]
                                kk = klist[dt][di][dj]
                                for c in range(cin):
                                    acc += row[c] * kk[c][o]
                    out[t, i, j, o] = acc
    return out


def dwconv3d_oracle(x, kernel):
    """Per-channel loop depthwise convolution, shape preserved."""
    x = np.asarray(x)
    kernel = np.asarray(kernel)
    kt, kh, kw, d = kernel.shape
    xp = np.pad(x, ((kt // 2, kt // 2), (kh // 2, kh // 2),
                    (kw // 2, kw // 2), (0, 0))).tolist()
    klist = kernel.tolist()
    t_in, h_in, w_in, _ = x.shape
    out = np.zeros_like(x, dtype=np.float64)
    for t in range(t_in):
        for i in range(h_in):
            for j in range(w_in):
                for c in range(d):
                    acc = 0.0
                    for dt in range(kt):
                        for di in range(kh):
                            for dj in range(kw):
                                acc += xp[t + dt][i + di][j + dj][c] \
                                    * klist[dt][di][dj][c]
                    out[t, i, j, c] = acc
    return out


def resize_oracle(video, out_h, out_w):
    """Per-output-pixel bilinear blend of the four clamped neighbours."""
    video = np.asarray(video)
    t, h, w, c = video.shape
    out = np.zeros((t, out_h, out_w, c))
    for i in range(out_h):
        cy = min(max((i + 0.5) * h / out_h - 0.5, 0.0), h - 1.0)
        y0, fy = int(math.floor(cy)), cy - math.floor(cy)
        y1 = min(y0 + 1, h - 1)
        for j in range(out_w):
            cx = min(max((j + 0.5) * w / out_w - 0.5, 0.0), w - 1.0)
            x0, fx = int(math.floor(cx)), cx - math.floor(cx)
            x1 = min(x0 + 1, w - 1)
            out[:, i, j, :] = (video[:, y0, x0] * (1 - fy) * (1 - fx)
                               + video[:, y0, x1] * (1 - fy) * fx
                               + video[:, y1, x0] * fy * (1 - fx)
                               + video[:, y1, x1] * fy * fx)
    return out


def conv3d_reference(x, kernel, stride, padding=(0, 0, 0)):
    """A strided, padded 3-d convolution on ``np.pad`` and
    ``sliding_window_view``; ``tensor.patch_embed`` is its case
    ``stride=(1, p, p)``, ``padding=(kt // 2, 0, 0)``."""
    kt, kh, kw, c_in, c_out = kernel.shape
    pt, ph, pw = padding
    st, sh, sw = stride
    t = x.shape[0]
    if ph or pw:
        x = np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    windows = sliding_window_view(x, (kh, kw), axis=(1, 2))[:, ::sh, ::sw]
    h_out, w_out = windows.shape[1:3]
    rows = np.zeros((t + 2 * pt, h_out * w_out, kh * kw * c_in),
                    dtype=x.dtype)
    rows[pt:pt + t].reshape(t, h_out, w_out, kh, kw, c_in)[...] = \
        windows.transpose(0, 1, 2, 4, 5, 3)
    taps = kernel.reshape(kt, kh * kw * c_in, c_out)
    t_out = (t + 2 * pt - kt) // st + 1
    span = (t_out - 1) * st + 1
    out = rows[0:span:st] @ taps[0]
    for dt in range(1, kt):
        out += rows[dt:dt + span:st] @ taps[dt]
    return out.reshape(t_out, h_out, w_out, c_out)


def dwconv3d_reference(x, kernel):
    """``tensor.dwconv3d`` on ``np.pad``, ``sliding_window_view`` and an
    einsum over the window view."""
    kt, kh, kw, _ = kernel.shape
    padded = np.pad(x, ((kt // 2, kt // 2), (kh // 2, kh // 2),
                        (kw // 2, kw // 2), (0, 0)))
    windows = sliding_window_view(padded, (kt, kh, kw), axis=(0, 1, 2))
    return np.einsum("thwcijk,ijkc->thwc", windows, kernel)


def layer_norm_reference(x, gamma, beta, eps=1e-6):
    """``tensor.layer_norm`` on numpy's ``mean`` and ``var``."""
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    normed = (x - mean) / np.sqrt(var + x.dtype.type(eps))
    return normed * gamma + beta


def resize_reference(video, out_h, out_w):
    """``model.resize_bilinear`` as two whole-clip passes, H then W, each
    gathering from the entire clip, with each pass's weights broadcast
    from ``frac.reshape(out_extent, 1, ...)``."""
    if video.shape[1:3] == (out_h, out_w):
        return video

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
        out -= low
        out *= frac.reshape((out_extent,) + (1,) * (src.ndim - axis - 1))
        out += low
        return out

    return resample(resample(video, 1, out_h), 2, out_w)


def dpe_reference(x, grid, kernel):
    """``global_block.dpe``: a residual depthwise convolution of the
    spatial volume, cut from a copy of the (frames, 1 + gh*gw, d) tokens."""
    t, _, d = x.shape
    gh, gw = grid
    out = x.copy()
    volume = np.ascontiguousarray(x[:, 1:, :]).reshape(t, gh, gw, d)
    out[:, 1:, :] += dwconv3d_reference(volume, kernel).reshape(
        t, gh * gw, d)
    return out


def local_block_reference(x, grid, p):
    """``blocks.local_uniblock_forward`` as three separate sub-units, each
    computed from its own normalized copy and then added to the residual
    stream: the temporal affinity on a copy of the value projection, the
    attention kind, and a feed-forward unit without a residual."""
    from cuenet import attention
    from cuenet.tensor import gelu
    t, m, d = x.shape
    gh, gw = grid

    def normed(y, ln):
        return layer_norm_reference(y, ln.gamma, ln.beta)

    proj = (normed(x, p.ln1).reshape(-1, d) @ p.lt.value).reshape(x.shape)
    mixed = proj.copy()
    volume = np.ascontiguousarray(proj[:, 1:, :]).reshape(t, gh, gw, d)
    mixed[:, 1:, :] = dwconv3d_reference(volume, p.lt.kernel).reshape(
        t, gh * gw, d)
    x = x + (mixed.reshape(-1, d) @ p.lt.fuse).reshape(x.shape)
    x = x + attention.attend(normed(x, p.ln2), p.attn)
    hidden = gelu(normed(x, p.ln3).reshape(-1, d) @ p.ffn.w1 + p.ffn.b1)
    return x + (hidden @ p.ffn.w2 + p.ffn.b2).reshape(x.shape)


def global_block_reference(x, grid, p):
    """``global_block.global_uniblock_forward`` on :func:`dpe_reference`,
    with the feed-forward output bias added after the residual:
    ``pooled + hidden @ w2 + b2``.  With ``b2 = 0`` that order gives the
    same bytes as the local blocks' ``x + (hidden @ w2 + b2)``."""
    from cuenet import attention
    from cuenet.tensor import gelu, mean_rows
    d = x.shape[-1]
    x = dpe_reference(x, grid, p.dpe_kernel)
    tokens = layer_norm_reference(x.reshape(-1, d), p.ln_tokens.gamma,
                                  p.ln_tokens.beta)
    pooled = mean_rows(attention.attend(tokens, p.attn))
    normed = layer_norm_reference(pooled, p.ln_ffn.gamma, p.ln_ffn.beta)
    hidden = gelu(normed @ p.ffn.w1 + p.ffn.b1)
    return pooled + hidden @ p.ffn.w2 + p.ffn.b2


def softmax_attention_reference(tokens, wq, wk, wv, heads):
    """Multi-head softmax attention over each head's whole (t, n, n)
    scores: the untiled form of ``attention.softmax_attention``."""
    x = tokens.reshape((-1,) + tokens.shape[-2:])
    t, n, d = x.shape
    dh = d // heads
    rows = x.reshape(-1, d)
    q = ((rows @ wq) * x.dtype.type(1.0 / math.sqrt(dh))).reshape(t, n, d)
    k = (rows @ wk).reshape(t, n, d)
    v = (rows @ wv).reshape(t, n, d)
    ctx = np.empty_like(x)
    for h in range(heads):
        lo, hi = h * dh, (h + 1) * dh
        scores = (q[:, :, lo:hi] @ k[:, :, lo:hi].transpose(0, 2, 1)
                  ).reshape(-1, n)
        scores -= scores.max(axis=1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=1, keepdims=True)
        ctx[:, :, lo:hi] = scores.reshape(t, n, n) @ v[:, :, lo:hi]
    return ctx.reshape(tokens.shape)


def meaa_oracle(q_normed, tokens, p, pooled=True):
    """Verbatim loop transcription of the modified additive mechanism.

    Scalar score from the projected learnable query, gate, broadcast
    against the projected keys, two projections with a query residual,
    optional row mean.
    """
    q = np.asarray(q_normed).tolist()[0]
    x = np.asarray(tokens).tolist()
    wq = np.asarray(p.wq).tolist()
    wk = np.asarray(p.wk).tolist()
    w_a = np.asarray(p.w_a).tolist()
    w1 = np.asarray(p.w1).tolist()
    b1 = np.asarray(p.b1).tolist()
    w2 = np.asarray(p.w2).tolist()
    b2 = np.asarray(p.b2).tolist()
    n, d = len(x), len(q)

    q_star = [sum(q[t] * wq[t][j] for t in range(d)) for j in range(d)]
    keys = [[sum(x[i][t] * wk[t][j] for t in range(d)) for j in range(d)]
            for i in range(n)]
    alpha = sum(q_star[j] * w_a[j] for j in range(d)) / math.sqrt(d)
    q_gated = [alpha * q_star[j] for j in range(d)]
    rows = []
    for i in range(n):
        fused = [q_gated[j] * keys[i][j] for j in range(d)]
        hidden = [sum(fused[t] * w1[t][j] for t in range(d)) + b1[j]
                  + q_star[j] for j in range(d)]
        row = [sum(hidden[t] * w2[t][j] for t in range(d)) + b2[j]
               for j in range(d)]
        rows.append(row)
    if not pooled:
        return np.array(rows)
    return np.array([[sum(rows[i][j] for i in range(n)) / n
                      for j in range(d)]])


def eaa_oracle(tokens, p, pooled=True, force_uniform_weights=False):
    """Verbatim loop transcription of the matrix-query additive mechanism.

    ``force_uniform_weights`` replaces the softmax result with exact
    uniform weights (useful for the single-token degeneracy check, where
    softmax of one score is exactly 1).
    """
    x = np.asarray(tokens).tolist()
    wq = np.asarray(p.wq).tolist()
    wk = np.asarray(p.wk).tolist()
    w_a = np.asarray(p.w_a).tolist()
    w1 = np.asarray(p.w1).tolist()
    b1 = np.asarray(p.b1).tolist()
    w2 = np.asarray(p.w2).tolist()
    b2 = np.asarray(p.b2).tolist()
    n = len(x)
    d = len(x[0])

    queries = [[sum(x[i][t] * wq[t][j] for t in range(d)) for j in range(d)]
               for i in range(n)]
    keys = [[sum(x[i][t] * wk[t][j] for t in range(d)) for j in range(d)]
            for i in range(n)]
    scores = [sum(queries[i][j] * w_a[j] for j in range(d)) / math.sqrt(d)
              for i in range(n)]
    if force_uniform_weights:
        weights = [1.0 / n] * n
    else:
        peak = max(scores)
        exps = [math.exp(s - peak) for s in scores]
        total = sum(exps)
        weights = [e / total for e in exps]
    q_global = [sum(weights[i] * queries[i][j] for i in range(n))
                for j in range(d)]
    rows = []
    for i in range(n):
        fused = [q_global[j] * keys[i][j] for j in range(d)]
        hidden = [sum(fused[t] * w1[t][j] for t in range(d)) + b1[j]
                  + queries[i][j] for j in range(d)]
        row = [sum(hidden[t] * w2[t][j] for t in range(d)) + b2[j]
               for j in range(d)]
        rows.append(row)
    if not pooled:
        return np.array(rows)
    return np.array([[sum(rows[i][j] for i in range(n)) / n
                      for j in range(d)]])


def mhsa_oracle(tokens, p):
    """Loop reference for multi-head softmax self-attention."""
    x = np.asarray(tokens)
    n, d = x.shape
    heads = p.heads
    dh = d // heads
    q = matmul_oracle(x, p.wq) / math.sqrt(dh)
    k = matmul_oracle(x, p.wk)
    v = matmul_oracle(x, p.wv)
    ctx = np.zeros((n, d))
    for h in range(heads):
        lo, hi = h * dh, (h + 1) * dh
        scores = matmul_oracle(q[:, lo:hi], k[:, lo:hi].T)
        for i in range(n):
            row = scores[i]
            peak = row.max()
            e = np.exp(row - peak)
            w = e / e.sum()
            ctx[i, lo:hi] = matmul_oracle(w[None, :], v[:, lo:hi])[0]
    return matmul_oracle(ctx, p.fuse)


def random_additive_params(rng, d, with_q, dtype=np.float64):
    """Seeded additive-attention parameters at unit scale: with ``with_q``
    a :class:`MeaaParams` whose ``q`` is drawn first and whose ``q_ln`` is
    the identity normalization (nothing drawn), else the original form's
    :class:`AdditiveParams`."""
    from cuenet.attention import AdditiveParams, MeaaParams
    from cuenet.tensor import LnParams
    draw = lambda shape: rng.standard_normal(shape).astype(dtype)
    query = {}
    if with_q:
        query = dict(q=draw((1, d)), q_ln=LnParams(
            gamma=np.ones(d, dtype=dtype), beta=np.zeros(d, dtype=dtype)))
    return (MeaaParams if with_q else AdditiveParams)(
        **query, wq=draw((d, d)), wk=draw((d, d)), w_a=draw((d,)),
        w1=draw((d, d)), b1=draw((d,)), w2=draw((d, d)), b2=draw((d,)))


def random_mhsa_params(rng, d, heads, dtype=np.float64):
    from cuenet.attention import MhsaParams
    draw = lambda shape: rng.standard_normal(shape).astype(dtype)
    return MhsaParams(wq=draw((d, d)), wk=draw((d, d)), wv=draw((d, d)),
                      fuse=draw((d, d)), heads=heads)
