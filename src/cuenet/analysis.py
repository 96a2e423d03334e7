"""Cost accounting: analytic work counts, memory peaks, timing, gradients.

Work is measured in fused multiply-adds, counted once (a multiply plus its
accumulate is one unit).  Normalization statistics, softmax, activation
functions, and plain additions are excluded; the executing kernels in
:mod:`cuenet.tensor` apply the same convention, so the analytic model in
:func:`count_flops` must agree with an instrumented run exactly, stage by
stage, for every configuration.  :func:`verify_flops` performs that
comparison.

The memory estimator prices the attention mechanisms' intermediate buffers
under the step schedule documented in :mod:`cuenet.attention` and is checked
against the instrumented high-water mark the same way.

Timing runs each mechanism's kernel, single-head for softmax attention, on
one token matrix so the asymptotic shapes are visible: the additive forms
scale linearly in token count, softmax self-attention quadratically.
"""

import hashlib
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from . import attention
from .attention import (ATTENTION_EAA, ATTENTION_KINDS, ATTENTION_MEAA,
                        ATTENTION_SELF)
from .config import DPE_KERNEL, PATCH, TEMPORAL_KERNEL, serialize_config
from .errors import ParamError, VerificationError
from .fusion import fuse, classify, fuse_grad, classify_grad, FusionParams
from .instrument import MacCounter, MemoryMeter, counting, metering
from .model import bind_parameters, network_forward
from .tensor import dtype_of
from .weights import init_weights

CONVENTION = ("one fused multiply-add = 1 unit; normalization, softmax, "
              "activations, and plain additions excluded")


# ---------------------------------------------------------------------------
# analytic work model
# ---------------------------------------------------------------------------

def attention_macs(kind, n, d, heads=1, pooled=True):
    """Multiply-adds for one attention application over n tokens of width d.

    ``pooled`` adds the final mean that reduces the rows to one vector.
    The self-attention count is head-count independent: splitting the score
    and context products across heads leaves their total unchanged.
    """
    if kind == ATTENTION_SELF:
        base = 4 * n * d * d + n * d + 2 * n * n * d
    elif kind == ATTENTION_MEAA:
        base = 3 * n * d * d + n * d + d * d + 2 * d + 1
    elif kind == ATTENTION_EAA:
        base = 4 * n * d * d + 3 * n * d + n
    else:
        raise ParamError(f"unknown attention kind {kind!r}; expected one of "
                         f"{ATTENTION_KINDS}")
    return base + (d if pooled else 0)


@dataclass
class FlopsReport:
    """Per-stage analytic multiply-add counts for one configuration."""

    config_text: str
    stages: dict

    @property
    def total(self):
        return sum(self.stages.values())

    def format(self):
        width = max(len(name) for name in self.stages) + 2
        lines = ["# flop report v1", f"# convention: {CONVENTION}"]
        lines += [f"# config: {part}" for part in
                  self.config_text.strip().splitlines()]
        for name, macs in self.stages.items():
            lines.append(f"{name:<{width}}{macs:>16}")
        lines.append(f"{'total':<{width}}{self.total:>16}")
        return "\n".join(lines) + "\n"


def count_flops(cfg):
    """Analytic per-stage work model of the full network.

    Preprocessing (crop and resize) is excluded: the model prices the
    network at its configured input geometry.
    """
    d = cfg.hidden
    t2 = cfg.frames_out
    s = cfg.spatial_tokens
    m = cfg.tokens_per_frame
    tokens = cfg.token_count
    hidden = cfg.ffn_hidden
    stages = {}
    stages["backbone"] = (cfg.frames * cfg.grid_h * cfg.grid_w * d
                          * (TEMPORAL_KERNEL * PATCH * PATCH * cfg.channels))
    for i, kind in enumerate(cfg.local_attention):
        stages[f"local{i}.lt"] = 2 * tokens * d * d + t2 * s * d \
            * cfg.lt_kernel
        stages[f"local{i}.attn"] = t2 * attention_macs(kind, m, d,
                                                       heads=cfg.heads,
                                                       pooled=False)
        stages[f"local{i}.ffn"] = 2 * tokens * d * hidden
    stages["global.dpe"] = t2 * s * d * DPE_KERNEL ** 3
    stages["global.attn"] = attention_macs(cfg.global_attention, tokens, d,
                                           heads=cfg.heads, pooled=True)
    stages["global.ffn"] = 2 * d * hidden
    stages["fusion"] = 3 * d + d * cfg.num_classes
    return FlopsReport(config_text=serialize_config(cfg), stages=stages)


@dataclass
class FlopsVerification:
    """Analytic versus instrumented per-stage counts."""

    report: FlopsReport
    measured: dict
    mismatches: list

    @property
    def ok(self):
        return not self.mismatches


def verify_flops(cfg, seed=0):
    """Run the network on a random probe clip and compare counted work.

    Every stage must match the analytic model exactly; any unattributed
    work is itself a mismatch.
    """
    rng = np.random.default_rng(seed)
    video = rng.standard_normal(
        (cfg.frames, cfg.height, cfg.width, cfg.channels))
    video = video.astype(dtype_of(cfg.precision))
    params = bind_parameters(init_weights(cfg), cfg)
    counter = MacCounter()
    with counting(counter):
        network_forward(video, params, cfg)
    report = count_flops(cfg)
    measured = dict(counter.stages)
    mismatches = []
    for name, expected in report.stages.items():
        got = measured.get(name)
        if got != expected:
            mismatches.append(f"stage {name}: analytic {expected}, "
                              f"instrumented {got}")
    for name, got in measured.items():
        if name not in report.stages and got:
            mismatches.append(f"stage {name}: instrumented {got} without an "
                              f"analytic counterpart")
    return FlopsVerification(report=report, measured=measured,
                             mismatches=mismatches)


def require_flops_match(cfg, seed=0):
    """Raise :class:`VerificationError` unless counts agree everywhere."""
    verification = verify_flops(cfg, seed=seed)
    if not verification.ok:
        raise VerificationError("work count mismatch:\n  "
                                + "\n  ".join(verification.mismatches))
    return verification


# ---------------------------------------------------------------------------
# memory estimator
# ---------------------------------------------------------------------------

@dataclass
class MemEstimate:
    """Peak live intermediate storage for one attention application."""

    kind: str
    n: int
    d: int
    precision: str
    elements: int

    @property
    def bytes(self):
        return self.elements * np.dtype(dtype_of(self.precision)).itemsize


def estimate_memory(kind, n, d, precision="double"):
    """Closed-form peak of the mechanism's buffer schedule, in elements.

    Inputs and parameters are excluded; the peaks cover the intermediates
    announced to the memory meter by the pooled kernels.
    """
    if n < 1 or d < 1:
        raise ParamError(f"token count and width must be positive, got "
                         f"n={n}, d={d}")
    dtype_of(precision)  # raises ParamError for an unknown name
    if kind == ATTENTION_MEAA:
        elements = 2 * n * d + 2 * d
    elif kind == ATTENTION_EAA:
        elements = 3 * n * d + n + d
    elif kind == ATTENTION_SELF:
        elements = max(3 * n * d + n * n, n * d + 2 * n * n)
    else:
        raise ParamError(f"unknown attention kind {kind!r}; expected one of "
                         f"{ATTENTION_KINDS}")
    return MemEstimate(kind=kind, n=n, d=d, precision=precision,
                       elements=elements)


def _attention_instance(kind, n, d, seed, dtype=np.float64):
    """Seeded inputs, parameters, and a runner closure for one mechanism."""
    kind_id = ATTENTION_KINDS.index(kind)
    rng = np.random.default_rng([seed, n, d, kind_id])
    spread = 1.0 / np.sqrt(d)

    def draw(shape):
        return (rng.standard_normal(shape) * spread).astype(dtype)

    x = rng.standard_normal((n, d)).astype(dtype)
    if kind == ATTENTION_SELF:
        wq, wk, wv = draw((d, d)), draw((d, d)), draw((d, d))
        return lambda: attention.softmax_attention(x, wq, wk, wv, 1)
    params = attention.AdditiveParams(
        q=draw((1, d)) if kind == ATTENTION_MEAA else None,
        wq=draw((d, d)), wk=draw((d, d)), w_a=draw((d,)), w1=draw((d, d)),
        b1=draw((d,)), w2=draw((d, d)), b2=draw((d,)))
    if kind == ATTENTION_MEAA:
        q_normed = draw((1, d))
        return lambda: attention.meaa(q_normed, x, params)
    return lambda: attention.eaa_original(x, params)


def measured_attention_elements(kind, n, d, seed=0):
    """Instrumented high-water mark of one mechanism run."""
    run = _attention_instance(kind, n, d, seed)
    meter = MemoryMeter()
    with metering(meter):
        run()
    return meter.high_water


# ---------------------------------------------------------------------------
# timing
# ---------------------------------------------------------------------------

@dataclass
class BenchResult:
    """Median timing for one (kind, token count) pair."""

    kind: str
    n: int
    median_ns: int
    mad_ns: int
    checksum: str


# Largest intermediate peak (estimate_memory bytes) a bench size may need.
BENCH_MEMORY_LIMIT = 1 << 30


def bench_attention(kind, sizes, d=64, reps=7, seed=0, warmup=2):
    """Time one mechanism across token counts.

    At least five repetitions are required so the median is meaningful.
    A size whose intermediates would exceed :data:`BENCH_MEMORY_LIMIT`
    bytes is refused before any input is drawn.  The checksum digests the
    output bytes; identical seeds must reproduce it exactly.
    """
    if reps < 5:
        raise ParamError(f"need at least 5 repetitions for a stable median, "
                         f"got {reps}")
    if not sizes:
        raise ParamError("empty size sweep")
    if any(n < 1 for n in sizes):
        raise ParamError(f"token counts must be positive: {sizes}")
    if d < 1:
        raise ParamError(f"token width must be positive, got {d}")
    for n in sizes:
        need = estimate_memory(kind, n, d).bytes
        if need > BENCH_MEMORY_LIMIT:
            raise ParamError(f"{kind} at n={n} needs {need} bytes, over the "
                             f"bench limit of {BENCH_MEMORY_LIMIT}")
    results = []
    for n in sizes:
        run = _attention_instance(kind, n, d, seed)
        out = None
        for _ in range(warmup):
            out = run()
        times = []
        for _ in range(reps):
            start = time.perf_counter_ns()
            out = run()
            times.append(time.perf_counter_ns() - start)
        median = statistics.median(times)
        mad = statistics.median([abs(t - median) for t in times])
        digest = hashlib.sha256(
            np.ascontiguousarray(out).tobytes()).hexdigest()[:16]
        results.append(BenchResult(kind=kind, n=int(n),
                                   median_ns=int(median), mad_ns=int(mad),
                                   checksum=digest))
    return results


BENCH_CSV_HEADER = "kind,n,median_ns,mad_ns,checksum"


def format_bench_csv(results):
    lines = [BENCH_CSV_HEADER]
    for r in results:
        lines.append(f"{r.kind},{r.n},{r.median_ns},{r.mad_ns},{r.checksum}")
    return "\n".join(lines) + "\n"


def parse_bench_csv(text):
    lines = [line for line in text.strip().splitlines() if line]
    if not lines or lines[0] != BENCH_CSV_HEADER:
        raise ParamError("not a bench CSV: missing header")
    results = []
    for line in lines[1:]:
        kind, n, median_ns, mad_ns, checksum = line.split(",")
        results.append(BenchResult(kind=kind, n=int(n),
                                   median_ns=int(median_ns),
                                   mad_ns=int(mad_ns), checksum=checksum))
    return results


def linear_fit_r2(xs, ys):
    """Least-squares line through (xs, ys); returns (slope, intercept, r2)."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(((ys - pred) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


# ---------------------------------------------------------------------------
# gradient checks
# ---------------------------------------------------------------------------

@dataclass
class GradCheckRow:
    module: str
    group: str
    instances: int
    max_abs_err: float
    max_rel_err: float
    ok: bool


@dataclass
class GradCheckReport:
    rows: list = field(default_factory=list)

    @property
    def ok(self):
        return all(row.ok for row in self.rows)

    def format(self):
        lines = ["# gradient check v1",
                 "module,group,instances,max_abs_err,max_rel_err,status"]
        for r in self.rows:
            status = "ok" if r.ok else "FAIL"
            lines.append(f"{r.module},{r.group},{r.instances},"
                         f"{r.max_abs_err:.3e},{r.max_rel_err:.3e},{status}")
        return "\n".join(lines) + "\n"


def _central_difference(objective, array, eps):
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        high = objective()
        flat[i] = original - eps
        low = objective()
        flat[i] = original
        grad_flat[i] = (high - low) / (2.0 * eps)
    return grad


def _meaa_instance(rng):
    n = int(rng.integers(1, 7))
    d = int(rng.integers(3, 9))
    inst_rng = np.random.default_rng(rng.integers(0, 2 ** 63))
    draw = inst_rng.standard_normal
    q_normed = draw((1, d))
    x = draw((n, d))
    params = attention.AdditiveParams(
        q=None, wq=draw((d, d)), wk=draw((d, d)), w_a=draw(d),
        w1=draw((d, d)), b1=draw(d), w2=draw((d, d)), b2=draw(d))
    upstream = draw((1, d))

    def objective():
        return float((upstream * attention.meaa(q_normed, x, params)).sum())

    grads = attention.meaa_grad(q_normed, x, params, upstream)
    targets = {"q": (q_normed, grads.q)}
    for group in ("wq", "wk", "w_a", "w1", "b1", "w2", "b2"):
        targets[group] = (getattr(params, group), getattr(grads, group))
    return objective, targets


def _fuse_instance(rng):
    d = int(rng.integers(2, 9))
    inst_rng = np.random.default_rng(rng.integers(0, 2 ** 63))
    global_vec, local_vec, beta, upstream = inst_rng.standard_normal(
        (4, 1, d))

    def objective():
        return float((upstream * fuse(global_vec, local_vec, beta)).sum())

    _, _, g_beta = fuse_grad(global_vec, local_vec, beta, upstream)
    return objective, {"beta": (beta, g_beta)}


def _classify_instance(rng):
    d = int(rng.integers(2, 9))
    classes = int(rng.integers(2, 5))
    inst_rng = np.random.default_rng(rng.integers(0, 2 ** 63))
    z = inst_rng.standard_normal((1, d))
    params = FusionParams(beta=np.zeros((1, d)),
                          proj=inst_rng.standard_normal((d, classes)),
                          bias=inst_rng.standard_normal(classes))
    upstream = inst_rng.standard_normal(classes)

    def objective():
        return float((upstream * classify(z, params)).sum())

    _, g_proj, g_bias = classify_grad(z, params, upstream)
    return objective, {"proj": (params.proj, g_proj),
                       "bias": (params.bias, g_bias)}


# Each draws one random instance from the module's generator and returns
# its scalar objective and, per gradient group, the array the objective
# reads and the analytic gradient of the objective with respect to it.
_GRAD_MODULES = {"meaa": _meaa_instance, "fuse": _fuse_instance,
                 "classify": _classify_instance}


def grad_check(modules=("meaa", "fuse", "classify"), eps=1e-5, tol=1e-4,
               instances=20, seed=0):
    """Central-difference check of every analytic gradient group.

    Each module draws ``instances`` random problem sizes; a group passes
    when analytic and numeric gradients agree within ``tol`` (absolute and
    relative) at every element of every instance.  At least one instance
    is required, so a passing report has checked something.
    """
    if instances < 1:
        raise ParamError(f"need at least 1 instance per module, got "
                         f"{instances}")
    report = GradCheckReport()
    for module in modules:
        if module not in _GRAD_MODULES:
            raise ParamError(f"unknown gradient module {module!r}; expected "
                             f"one of {sorted(_GRAD_MODULES)}")
        rng = np.random.default_rng(seed)
        checked = {}  # group -> [(analytic, numeric)], one per instance
        for _ in range(instances):
            objective, targets = _GRAD_MODULES[module](rng)
            for group, (array, analytic) in targets.items():
                numeric = _central_difference(objective, array, eps)
                checked.setdefault(group, []).append((analytic, numeric))
        for group, pairs in checked.items():
            errors = [(np.abs(a - n), np.maximum(np.abs(n), 1.0))
                      for a, n in pairs]
            report.rows.append(GradCheckRow(
                module=module, group=group, instances=len(pairs),
                max_abs_err=max(float(diff.max()) for diff, _ in errors),
                max_rel_err=max(float((diff / scale).max())
                                for diff, scale in errors),
                ok=all(np.allclose(a, n, rtol=tol, atol=tol)
                       for a, n in pairs)))
    return report
