"""Dense tensor substrate: validated ndarray operations with work counting.

Tensors are plain numpy arrays in one of two supported precisions
(float32 or float64), row-major element order.  Every operation defined here
validates operand extents and precision agreement before computing, and the
operations that perform multiply-add work report it through
:mod:`cuenet.instrument` at execution time, so instrumented counts reflect the
shapes actually run.

Counting convention: one fused multiply-add pair is one unit.  A matrix
product of an m-by-k by a k-by-n operand therefore reports ``m*k*n``, and
a batch of b such products ``b*m*k*n``.  Every matrix product, the patch
embedding's included, runs and is counted in :func:`matmul`.
Comparisons, exponentials, normalization statistics, and plain additions
report nothing; this exclusion is deliberate and shared with the analytic
cost model in :mod:`cuenet.analysis`.

Reductions performed with a BLAS backend accumulate in a fixed order chosen
by the backend, so repeated runs on the same machine are bit-identical even
though the order is not literal left-to-right.

The depthwise convolution builds its own zero-padded buffer (one
``np.zeros`` and one slice assignment) and its own read-only window view
(one ``as_strided`` over the input's strides) rather than calling
``np.pad`` and ``sliding_window_view``.  The bytes are the same; the point
is per-call cost, since on the desk geometry the arrays are tiny and those
helpers' Python-level argument handling outweighs the copying: on an
(8, 4, 4, 64) double volume ``np.pad`` takes about 27 us per call against
6 us for the buffer, and ``sliding_window_view`` about 9 us against 5 us
for the view (numpy 2.4, one core of a 2-vCPU Xeon).  The view is
read-only, so no caller can write through it into the input.  The patch
embedding needs no window view: its patches do not overlap, so a reshape
of the clip splits them out, and its temporal padding is the zero frames
of the one buffer it gathers them into.

The two nonlinearities pick their code by the input's precision.  Double
precision uses ``scipy.special`` (``erf`` for :func:`gelu`, ``expit`` for
:func:`sigmoid`), imported at the first double-precision call; single
precision uses numpy alone, so a single-precision process never imports
scipy.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ParamError, ShapeError
from .instrument import add_macs, meter_alloc

# Supported element precisions, keyed by their external names.
DTYPES = {"single": np.float32, "double": np.float64}
PRECISION_NAMES = {np.dtype(dtype): name for name, dtype in DTYPES.items()}


def dtype_of(precision):
    """Map a precision name to its numpy dtype."""
    try:
        return DTYPES[precision]
    except KeyError:
        raise ParamError(f"unknown precision {precision!r}; expected one of "
                         f"{sorted(DTYPES)}") from None


def precision_of(array):
    """Map an array's dtype back to its precision name."""
    try:
        return PRECISION_NAMES[array.dtype]
    except KeyError:
        raise ShapeError(f"unsupported element type {array.dtype}") from None


def check_tensor(array, rank=None, name="tensor"):
    """Validate that ``array`` is a supported-precision ndarray."""
    if not isinstance(array, np.ndarray):
        raise ShapeError(f"{name} is not an ndarray: {type(array).__name__}")
    if array.dtype not in PRECISION_NAMES:
        raise ShapeError(f"{name} has unsupported element type {array.dtype}")
    if rank is not None and array.ndim != rank:
        raise ShapeError(f"{name} must have rank {rank}, got shape {array.shape}")
    return array


def _check_same_precision(a, b, op):
    if a.dtype != b.dtype:
        raise ShapeError(f"{op}: mixed precisions {precision_of(a)} and "
                         f"{precision_of(b)}")


# ---------------------------------------------------------------------------
# counted operations
# ---------------------------------------------------------------------------

def matmul(a, b):
    """Matrix product of two 2-d operands, or of two 3-d stacks with one
    m-by-k by k-by-n product per leading index (a batch extent of 1 is
    shared, as in ``np.matmul``); reports ``out.size * k`` multiply-adds."""
    check_tensor(a, name="matmul left operand")
    check_tensor(b, name="matmul right operand")
    if a.ndim not in (2, 3) or b.ndim != a.ndim:
        raise ShapeError(f"matmul operands must both have rank 2 or both "
                         f"rank 3, got {a.shape} and {b.shape}")
    _check_same_precision(a, b, "matmul")
    if a.ndim == 3 and 1 != a.shape[0] != b.shape[0] != 1:
        raise ShapeError(f"matmul batch extents differ: {a.shape} vs {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} vs {b.shape}")
    out = a @ b
    add_macs(out.size * a.shape[-1])
    return out


def mul(a, b):
    """Elementwise (broadcast) product; reports one unit per output element."""
    check_tensor(a, name="mul left operand")
    check_tensor(b, name="mul right operand")
    _check_same_precision(a, b, "mul")
    out = a * b
    add_macs(out.size)
    return out


def scale(a, s):
    """Scalar multiple of a tensor; reports one unit per element."""
    check_tensor(a, name="scale operand")
    out = a * a.dtype.type(s)
    add_macs(out.size)
    return out


def mean_rows(x):
    """Column means of an n-by-d matrix as a 1-by-d row.

    Charged one unit per output element for the final scaling; the summation
    itself follows the addition exclusion.
    """
    check_tensor(x, rank=2, name="mean_rows operand")
    if x.shape[0] == 0:
        raise ShapeError("mean_rows of an empty matrix")
    out = x.mean(axis=0, keepdims=True)
    add_macs(x.shape[1])
    return out


def _zero_padded(x, pads):
    """Copy of a (T,H,W,C) volume inside a zero border of ``pads`` =
    (pt, ph, pw) elements on both sides of each leading axis."""
    pt, ph, pw = pads
    t, h, w, c = x.shape
    out = np.zeros((t + 2 * pt, h + 2 * ph, w + 2 * pw, c), dtype=x.dtype)
    out[pt:pt + t, ph:ph + h, pw:pw + w] = x
    return out


def _window_view(x, window):
    """Read-only view of every window of extent ``window`` = (kt, kh, kw)
    over the three leading axes of a (T,H,W,C) volume.

    The result has the shape and strides of ``sliding_window_view(x,
    window, axis=(0, 1, 2))``: the window positions stay in place and the
    window offsets are appended last.  Built from ``x``'s own strides, so
    any strided input works.
    """
    shape = tuple(n - k + 1 for n, k in zip(x.shape, window)) + x.shape[3:]
    return as_strided(x, shape=shape + tuple(window),
                      strides=x.strides + x.strides[:3], writeable=False)


def patch_embed(x, kernel):
    """Project the non-overlapping patches of a (T,H,W,C) clip.

    ``kernel`` has extents (kt,p,p,c_in,c_out) with ``kt`` odd: each output
    frame is the cross-correlation of ``kt`` consecutive frames, ``kt//2``
    zero frames padding each end so the frame count survives, with the
    clip's p-by-p patches, so the output is (T, H/p, W/p, c_out).  Reports
    ``out_elements * kt*p*p*c_in`` multiply-adds, ``out_elements*p*p*c_in``
    from each tap's :func:`matmul`.

    Splitting H and W into (grid, p) is a reshape, a view for any strides,
    so each frame's patches are gathered once, straight into a buffer of
    rows of ``p*p*c_in`` values whose ``kt//2`` leading and trailing frames
    stay zero as the temporal padding: the clip is copied once.  Every
    temporal tap is then one :func:`matmul` of those rows with that tap's
    ``(1, p*p*c_in, c_out)`` kernel slice, which every frame shares; the
    output is the sum of the ``kt`` products.  The memory meter holds the
    rows, the output and, for kt > 1, one tap's product at once:
    (T + kt - 1)*gh*gw*p*p*c_in + 2*T*gh*gw*c_out elements.  On return it
    holds only the output, while the caller does.
    """
    check_tensor(x, rank=4, name="patch_embed input")
    check_tensor(kernel, rank=5, name="patch_embed kernel")
    _check_same_precision(x, kernel, "patch_embed")
    kt, p, pw, c_in, c_out = kernel.shape
    t, h, w, c = x.shape
    if c_in != c:
        raise ShapeError(f"patch_embed kernel expects {c_in} input channels, "
                         f"input has {c}")
    if p != pw:
        raise ShapeError(f"patch_embed patches must be square, got {p}x{pw}")
    if kt % 2 == 0:
        raise ShapeError(f"patch_embed temporal extent must be odd, got {kt}")
    if p == 0 or h % p or w % p:
        raise ShapeError(f"patch_embed input {h}x{w} is not a whole number "
                         f"of {p}x{p} patches")
    gh, gw, pt = h // p, w // p, kt // 2
    # patches fill the middle frames in (i, j, c) order, like the kernel taps
    rows = np.zeros((t + 2 * pt, gh * gw, p * p * c), dtype=x.dtype)
    meter_alloc(rows)
    rows[pt:pt + t].reshape(t, gh, gw, p, p, c)[...] = \
        x.reshape(t, gh, p, gw, p, c).transpose(0, 1, 3, 2, 4, 5)
    taps = kernel.reshape(kt, p * p * c, c_out)
    out = matmul(rows[:t], taps[:1])
    meter_alloc(out)
    for dt in range(1, kt):
        tap = matmul(rows[dt:dt + t], taps[dt:dt + 1])
        meter_alloc(tap)
        out += tap
        del tap
    return out.reshape(t, gh, gw, c_out)


def dwconv3d(x, kernel):
    """Depthwise shape-preserving convolution of a (T,H,W,D) volume.

    ``kernel`` has extents (kt,kh,kw,D) with every window extent odd; the
    input is zero-padded so output extents equal input extents.  Channels
    never mix.  Reports ``elements * kt*kh*kw`` multiply-adds.
    """
    check_tensor(x, rank=4, name="dwconv3d input")
    check_tensor(kernel, rank=4, name="dwconv3d kernel")
    _check_same_precision(x, kernel, "dwconv3d")
    kt, kh, kw, d = kernel.shape
    if kt % 2 == 0 or kh % 2 == 0 or kw % 2 == 0:
        raise ParamError(f"dwconv3d kernel extents must be odd, got "
                         f"{(kt, kh, kw)}")
    if d != x.shape[3]:
        raise ShapeError(f"dwconv3d kernel expects {d} channels, input has "
                         f"{x.shape[3]}")
    padded = _zero_padded(x, (kt // 2, kh // 2, kw // 2))
    windows = _window_view(padded, (kt, kh, kw))
    out = np.einsum("thwcijk,ijkc->thwc", windows, kernel)
    add_macs(out.size * kt * kh * kw)
    return out


# ---------------------------------------------------------------------------
# uncounted nonlinearities and statistics
# ---------------------------------------------------------------------------

@dataclass
class LnParams:
    """Per-feature affine terms of one :func:`layer_norm`."""

    gamma: np.ndarray
    beta: np.ndarray


def layer_norm(x, gamma, beta):
    """Normalize the last axis to zero mean, unit population variance.

    ``gamma`` and ``beta`` are per-feature affine terms of extent equal to
    the last axis.  Statistic work is excluded from multiply-add counts.

    One centered copy ``x - mean`` serves both the variance and the output:
    the square root, the division and the affine terms run in place in it,
    giving the bytes of ``(x - x.mean()) / sqrt(x.var() + 1e-6) * gamma +
    beta``.  A row whose variance is not finite (a value so large that its
    square overflows) comes out NaN, so it cannot pass on as a silently
    zeroed row.
    """
    check_tensor(x, name="layer_norm input")
    check_tensor(gamma, rank=1, name="layer_norm gamma")
    check_tensor(beta, rank=1, name="layer_norm beta")
    d = x.shape[-1]
    if gamma.shape[0] != d or beta.shape[0] != d:
        raise ShapeError(f"layer_norm affine extent {gamma.shape[0]} vs "
                         f"feature extent {d}")
    _check_same_precision(x, gamma, "layer_norm")
    _check_same_precision(x, beta, "layer_norm")
    centered = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / d
    if not np.isfinite(var).all():
        var[~np.isfinite(var)] = np.nan
    var += x.dtype.type(1e-6)
    np.sqrt(var, out=var)
    centered /= var
    centered *= gamma
    centered += beta
    return centered


# Odd rational single-precision erf, erf(t) ~ t*P(t^2)/Q(t^2) for |t| <= 4,
# with the coefficients of Eigen's ``generic_fast_erf_float`` (also XLA's
# f32 ``ErfImpl32``), highest power first.  Against the double-precision
# erf, on 4M points over [-6, 6]: max |error| 4.5e-7 (at |t| = 3.92), and
# the clamped ends give exactly +-1.
_ERF32_P = tuple(np.float32(c) for c in (
    -2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
    -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
    -1.60960333262415e-02))
_ERF32_Q = tuple(np.float32(c) for c in (
    -1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
    -7.37332916720468e-03, -1.42647390514189e-02))


def _horner(t2, coefficients):
    """P(t2) for coefficients given highest power first, in one buffer."""
    out = t2 * coefficients[0]
    for c in coefficients[1:-1]:
        out += c
        out *= t2
    out += coefficients[-1]
    return out


def gelu(x):
    """Gaussian error linear unit, x * Phi(x) = 0.5 x (1 + erf(x / sqrt 2)).

    Double precision takes the exact erf from ``scipy.special``, imported
    here at the first call.  Single precision uses the rational erf above:
    on 4M points over [-12, 12], |gelu - the double-precision GELU| is at
    most 1.37e-6 (at |x| ~ 5.6) and at most 2.6e-7 * max(1, |x|); scipy's
    single-precision erf gave 4.5e-7.  Both compute ``(0.5 x)`` first, so
    a finite input near the largest float never overflows, and both give
    the same values at the extremes: NaN stays NaN, +inf gives +inf, and
    -inf gives NaN.
    """
    check_tensor(x, name="gelu input")
    if x.dtype == np.float64:
        from scipy.special import erf
        return 0.5 * x * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))
    t = x * np.float32(1.0 / np.sqrt(2.0))
    np.clip(t, np.float32(-4.0), np.float32(4.0), out=t)  # NaN stays NaN
    t2 = t * t
    erf = _horner(t2, _ERF32_P)
    erf *= t
    erf /= _horner(t2, _ERF32_Q)
    erf += np.float32(1.0)
    out = np.multiply(x, np.float32(0.5), out=t)
    out *= erf
    return out


def softmax_rows(x):
    """Row-wise softmax of a 2-d matrix, max-shifted for overflow safety.

    Normalizes the rows of ``x`` in place and returns ``x``: the max shift,
    the exponential and the row normalization all write into it, so the
    caller passes a buffer it owns and no n-by-n copy is made.
    """
    check_tensor(x, rank=2, name="softmax input")
    x -= x.max(axis=1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=1, keepdims=True)
    return x


def sigmoid(x):
    """Elementwise logistic function, 1 / (1 + exp(-x)).

    Double precision takes ``expit`` from ``scipy.special``, imported here
    at the first call.  Single precision uses the two-sided form on
    ``e = exp(-|x|)``, 1 / (1 + e) for x >= 0 and e / (1 + e) below, so no
    finite input overflows.
    """
    check_tensor(x, name="sigmoid input")
    if x.dtype == np.float64:
        from scipy.special import expit
        return expit(x)
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(x >= 0, np.float32(1.0), e)
    e += np.float32(1.0)
    out /= e
    return out
