"""cuenet benchmark: per-operation latency, set-up time and peak memory.

Run from the repository root:

    python3 perfbench/run.py --workload desk_mixed --seed 1 --trace 0

One process measures one workload for ``--seconds`` in a closed loop with a
single client and checks every output.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` interleaves untraced and traced operations and
prints the per-layer metrics, taken from spans the benchmark records around
its own calls into ``ctf``, ``crop``, ``model`` and ``weights`` and from a
``MacCounter`` subclass installed through ``instrument.counting``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it record the
workload, the configuration, numpy/scipy versions, core count and thread
settings, and the fail ratio.  The exit code is 0 when every
check passed, 1 when one failed, and 2 when the benchmark cannot run (for
instance when ``src/cuenet`` is missing).

Workloads and their reasons are in ``workloads.py`` and ``BENCHMARK.json``.
"""

import os

# Pinned before numpy loads, here and in every process started from here.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_build" / "perfbench"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0
SETUP_PROBES = 5  # fresh processes whose set-up is timed, spread over a run

# Largest |output - reference| accepted, as a share of max(1, max |reference|).
# Rounding alone moves these outputs far less: single against double
# precision of the same clips differs by at most 5e-7, and double-precision
# reordering by about 1e-15.  Wrong results move them far more: a flipped
# depthwise kernel, a half-pixel resize shift, a wrong attention scale, an
# inward-rounded crop, the odd frames selected or a layer-norm epsilon of
# 1e-5 for 1e-6 each moved some output by 4e-4 to 1.2.
TOLERANCE = {"double": 1e-9, "single": 2e-5}

# Both clip workloads have two local blocks.
COUNTED_STAGES = ("backbone",
                  *(f"local{i}.{unit}" for i in range(2)
                    for unit in ("lt", "attn", "ffn")),
                  "global.dpe", "global.attn", "global.ffn", "fusion")
CALL_SPANS = ("decode", "parse", "crop", "resize", "bind")
ATTENTION_SHORT = tuple(short for short, _ in
                        workloads.WORKLOADS["attn_sweep"].kernels)

END_TO_END = (("op_ms_p50", "ms"), ("op_ms_p90", "ms"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
PER_LAYER = (("import_s", "s"), ("weights.load_ms", "ms"),
             *((f"{name}.ms", "ms") for name in CALL_SPANS),
             ("crop.applied_ratio", "ratio"),
             *((f"{stage}.{metric}", unit) for stage in COUNTED_STAGES
               for metric, unit in (("ms", "ms"), ("macs", "count"),
                                    ("gmacs", "GMAC/s"))),
             *((f"attn.{kind}.{metric}", unit) for kind in ATTENTION_SHORT
               for metric, unit in (("ms", "ms"), ("macs", "count"),
                                    ("gmacs", "GMAC/s"),
                                    ("peak_elements", "count"))),
             ("trace_overhead_pct", "%"))


def cwc_path(workload, size):
    return WORK_DIR / f"{workload.name}-{size}.cwc"


def output_problems(out, shape):
    """Shape and finiteness of one output array."""
    import numpy as np
    if not isinstance(out, np.ndarray) or out.shape != shape:
        return [f"output shape {getattr(out, 'shape', type(out))}, "
                f"expected {shape}"]
    if not np.all(np.isfinite(out)):
        return ["non-finite output"]
    return []


class ClipBench:
    """Bytes in, logits out: decode, parse, crop, resize, network."""

    def __init__(self, workload, size, seed):
        from cuenet import analysis, weights
        self.workload = workload
        self.size = size
        self.cfg = workload.config(size)
        self.container = weights.load_weights(cwc_path(workload, size),
                                              precision=self.cfg.precision)
        self.expected_macs = dict(analysis.count_flops(self.cfg).stages)
        self.inputs = workloads.make_clips(workload, size, seed)
        self.applied = 0

    def run(self, clip):
        """The untraced operation a user runs: ``model.forward``."""
        from cuenet import crop, ctf, model
        video, _ = ctf.tensor_from_bytes(clip.video_bytes)
        sequence = crop.parse_detections(clip.detections,
                                         height=video.shape[1],
                                         width=video.shape[2])
        return model.forward(video, sequence, self.container, self.cfg)

    def run_traced(self, clip, recorder, request):
        """``model.forward`` taken apart, with a span around every call."""
        from cuenet import crop, ctf, model
        from cuenet.instrument import counting
        from spans import TimedCounter
        cfg = self.cfg
        with recorder.span("clip", request):
            with recorder.span("decode", request):
                video, _ = ctf.tensor_from_bytes(clip.video_bytes)
            with recorder.span("parse", request):
                sequence = crop.parse_detections(clip.detections,
                                                 height=video.shape[1],
                                                 width=video.shape[2])
            with recorder.span("crop", request):
                decision = crop.compute_crop_box(sequence)
                video = crop.apply_crop(video, decision)
            with recorder.span("resize", request):
                video = model.resize_bilinear(video, cfg.height, cfg.width)
            with recorder.span("bind", request):
                params = model.bind_parameters(self.container, cfg)
            counter = TimedCounter(recorder, request)
            with recorder.span("network", request), counting(counter):
                logits = model.network_forward(video, params, cfg)
        return logits, decision, counter

    def output_bytes(self, result):
        logits = result[0] if isinstance(result, tuple) else result
        return logits.tobytes()

    def problems(self, out):
        return output_problems(out, (self.cfg.num_classes,))

    def traced_problems(self, clip, traced):
        logits, decision, counter = traced
        found = self.problems(logits)
        expected_box = clip.union if clip.people > 1 else (
            0.0, 0.0, float(clip.width), float(clip.height))
        got_box = (decision.box.x_min, decision.box.y_min,
                   decision.box.x_max, decision.box.y_max)
        if (decision.applied != (clip.people > 1)
                or decision.max_people != clip.people
                or got_box != expected_box):
            found.append(f"crop decision {decision} for {clip.people} people "
                         f"and union {clip.union}")
        if counter.stages != self.expected_macs:
            found.append(f"stage MACs {counter.stages} differ from "
                         f"count_flops {self.expected_macs}")
        self.applied += decision.applied
        return found

    def reference_outputs(self):
        clips = workloads.make_clips(self.workload, self.size, REFERENCE_SEED)
        return [self.run(clip) for clip in clips]


class AttentionBench:
    """The flat attention kernels, each with a MAC counter and memory meter.

    One operation runs every kernel once on its seeded instance.
    """

    def __init__(self, workload, size, seed):
        from cuenet import analysis
        self.workload = workload
        self.size = size
        d = workloads.D_MODEL
        self.shape, self.expected_macs, self.expected_peak = {}, {}, {}
        for short, kind in workload.kernels:
            n = workload.sizes[size][short]
            if kind == "self_attention":
                # flat_self_attention neither pools nor applies the output
                # projection (fuse) that attention_macs prices at n*d*d.
                self.shape[short] = (n, d)
                self.expected_macs[short] = analysis.attention_macs(
                    kind, n, d, pooled=False) - n * d * d
            else:
                self.shape[short] = (1, d)
                self.expected_macs[short] = analysis.attention_macs(kind, n, d)
            self.expected_peak[short] = analysis.estimate_memory(
                kind, n, d).elements
        self.kernels = workloads.attention_instances(workload, size, seed)
        self.kernel_ns = {short: [] for short in self.kernels}
        self.inputs = [None]

    def apply(self, short):
        from cuenet.instrument import (MacCounter, MemoryMeter, counting,
                                       metering)
        counter, meter = MacCounter(), MemoryMeter()
        with counting(counter), metering(meter):
            out = self.kernels[short]()
        return out, counter.total, meter.high_water

    def run(self, _):
        result = {}
        for short in self.kernels:
            start = time.perf_counter_ns()
            result[short] = self.apply(short)
            self.kernel_ns[short].append(time.perf_counter_ns() - start)
        return result

    def run_traced(self, _, recorder, request):
        result = {}
        with recorder.span("sweep", request):
            for short in self.kernels:
                with recorder.span(f"attn.{short}", request):
                    result[short] = self.apply(short)
        return result

    def output_bytes(self, result):
        return b"".join(out.tobytes() for out, _, _ in result.values())

    def problems(self, result):
        found = []
        for short, (out, macs, peak) in result.items():
            found += output_problems(out, self.shape[short])
            if macs != self.expected_macs[short]:
                found.append(f"{short}: {macs} MACs, expected "
                             f"{self.expected_macs[short]}")
            if peak != self.expected_peak[short]:
                found.append(f"{short}: peak {peak} elements, "
                             f"estimate_memory gives "
                             f"{self.expected_peak[short]}")
        return found

    def traced_problems(self, _, traced):
        return self.problems(traced)

    def reference_outputs(self):
        outputs = []
        for kernel in workloads.attention_instances(
                self.workload, self.size, REFERENCE_SEED).values():
            out = kernel()
            outputs += [out[0], out.mean(axis=0)]
        return outputs


def make_bench(workload, size, seed):
    return (ClipBench if workload.kind == "clip" else AttentionBench)(
        workload, size, seed)


def write_weights(workload, size):
    from cuenet import weights
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    weights.save_weights(weights.init_weights(workload.config(size)),
                         cwc_path(workload, size))


def setup_probe(workload, size, seed):
    """Set-up of a fresh process: imports, weights or instances, warm-up.

    ``setup_s`` is the sum of the three phases; interpreter start-up and the
    benchmark's own input generation are left out.
    """
    start = time.perf_counter()
    if workload.kind == "clip":
        from cuenet import crop, ctf, model, weights
    else:
        from cuenet import analysis  # noqa: F401  (timed, used by workloads)
    imported = time.perf_counter()
    if workload.kind == "clip":
        cfg = workload.config(size)
        container = weights.load_weights(cwc_path(workload, size),
                                         precision=cfg.precision)
        loaded = time.perf_counter()
        clip = workloads.make_clips(workload, size, seed, count=1)[0]
        warm_start = time.perf_counter()
        video, _ = ctf.tensor_from_bytes(clip.video_bytes)
        sequence = crop.parse_detections(clip.detections,
                                         height=video.shape[1],
                                         width=video.shape[2])
        model.forward(video, sequence, container, cfg)
    else:
        kernels = workloads.attention_instances(workload, size, seed)
        loaded = warm_start = time.perf_counter()
        for kernel in kernels.values():
            kernel()
    done = time.perf_counter()
    phases = {"import_s": imported - start,
              "load_ms": 1e3 * (loaded - imported),
              "warmup_ms": 1e3 * (done - warm_start)}
    phases["setup_s"] = (phases["import_s"] + phases["load_ms"] / 1e3
                         + phases["warmup_ms"] / 1e3)
    return phases


def probe_setup_in_fresh_process(args):
    """Run :func:`setup_probe` in a new interpreter; returns its phases."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        command.append("--tiny")
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=120, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_reference(bench, reference_path):
    """Problems of the outputs at the reference seed against the file."""
    import numpy as np
    key = f"{bench.workload.name}/{bench.size}"
    try:
        with open(reference_path, encoding="utf-8") as fh:
            expected = json.load(fh)[key]
    except (OSError, ValueError, KeyError) as exc:
        return [f"reference {key} unreadable: {exc!r}"]
    got = bench.reference_outputs()
    tol = TOLERANCE[getattr(bench.workload, "precision", "double")]
    if len(got) != len(expected):
        return [f"reference {key}: {len(got)} outputs, {len(expected)} "
                f"recorded"]
    problems = []
    for i, (out, ref) in enumerate(zip(got, expected)):
        ref = np.asarray(ref, dtype=np.float64)
        out = np.asarray(out, dtype=np.float64)
        scale = max(1.0, float(np.max(np.abs(ref))))
        if out.shape != ref.shape or not np.all(np.isfinite(out)) \
                or float(np.max(np.abs(out - ref))) > tol * scale:
            problems.append(f"reference {key}[{i}]: {out.tolist()[:4]} vs "
                            f"{ref.tolist()[:4]} beyond {tol} x {scale}")
    return problems


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages += problems


def measure(bench, seconds, traced, recorder, tally, between, segments):
    """Closed loop over the input pool; returns per-op ns, untraced/traced.

    The measured time is cut into ``segments`` equal parts and ``between``
    runs before each part, outside the timed operations, so its samples
    spread over the whole run as the operations' samples do.
    """
    first = []
    for item in bench.inputs:  # warm-up; pins the expected output bytes
        result = bench.run(item)
        tally.add(bench.problems(result))
        first.append(bench.output_bytes(result))
    if isinstance(bench, AttentionBench):
        bench.kernel_ns = {short: [] for short in bench.kernels}
    plain_ns, traced_ns = [], []
    i = 0
    for _ in range(segments):
        between()
        deadline = time.perf_counter() + seconds / segments
        started = i
        while i == started or time.perf_counter() < deadline:
            k = i % len(bench.inputs)
            item = bench.inputs[k]
            start = time.perf_counter_ns()
            result = bench.run(item)
            plain_ns.append(time.perf_counter_ns() - start)
            problems = bench.problems(result)
            if bench.output_bytes(result) != first[k]:
                problems.append(f"input {k}: output differs on repeat")
            tally.add(problems)
            if traced:
                start = time.perf_counter_ns()
                result = bench.run_traced(item, recorder, request=i)
                traced_ns.append(time.perf_counter_ns() - start)
                problems = bench.traced_problems(item, result)
                if bench.output_bytes(result) != first[k]:
                    problems.append(f"input {k}: traced output differs "
                                    f"from untraced")
                tally.add(problems)
            i += 1
    return plain_ns, traced_ns


def per_layer_metrics(bench, recorder, plain_ns, traced_ns, probes):
    metrics = {name: 0 for name, _ in PER_LAYER}
    metrics["import_s"] = statistics.median(p["import_s"] for p in probes)
    ops = len(traced_ns)
    own = recorder.self_times_ns()
    spent = {}
    for s in recorder.spans:
        spent[s[3]] = spent.get(s[3], 0) + own[s[0]]

    def mean_ms(name):
        return spent.get(name, 0) / ops / 1e6

    def gmacs(macs, ms):
        return macs / (ms * 1e6) if ms > 0 else 0.0

    if isinstance(bench, ClipBench):
        metrics["weights.load_ms"] = statistics.median(
            p["load_ms"] for p in probes)
        for name in CALL_SPANS:
            metrics[f"{name}.ms"] = mean_ms(name)
        metrics["crop.applied_ratio"] = bench.applied / ops
        for stage in COUNTED_STAGES:
            ms = mean_ms(stage)
            macs = bench.expected_macs[stage]
            metrics[f"{stage}.ms"] = ms
            metrics[f"{stage}.macs"] = macs
            metrics[f"{stage}.gmacs"] = gmacs(macs, ms)
    else:
        for short in bench.kernels:
            name = f"attn.{short}"
            ms = mean_ms(name)
            macs = bench.expected_macs[short]
            metrics[f"{name}.ms"] = ms
            metrics[f"{name}.macs"] = macs
            metrics[f"{name}.gmacs"] = gmacs(macs, ms)
            metrics[f"{name}.peak_elements"] = bench.expected_peak[short]
    metrics["trace_overhead_pct"] = 100.0 * (
        statistics.median(traced_ns) / statistics.median(plain_ns) - 1.0)
    return metrics


def environment():
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run the small size the benchmark's tests use")
    parser.add_argument("--reference", default=str(REFERENCE),
                        help="reference outputs file")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cuenet" / "__init__.py").is_file():
        print(f"error: no cuenet sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]
    size = "tiny" if args.tiny else "full"
    if args.setup_probe:
        print(json.dumps(setup_probe(workload, size, args.seed)))
        return 0

    from spans import SpanRecorder
    if workload.kind == "clip":
        write_weights(workload, size)
    bench = make_bench(workload, size, args.seed)
    tally = Tally()
    recorder = SpanRecorder()
    probes = []
    plain_ns, traced_ns = measure(
        bench, args.seconds, bool(args.trace), recorder, tally,
        between=lambda: probes.append(probe_setup_in_fresh_process(args)),
        segments=SETUP_PROBES)
    # Peak resident set of this process, generated inputs included.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tally.add(check_reference(bench, args.reference))

    print(f"# workload {workload.name} ({size}), seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"# why: {workload.why}")
    if workload.kind == "clip":
        from cuenet.config import serialize_config
        print("# config: " + serialize_config(bench.cfg).strip()
              .replace("\n", " "))
    print(f"# env: {json.dumps(environment())}")
    print("# setup probes: " + json.dumps(probes))
    if isinstance(bench, AttentionBench):
        print("# kernel ms p50: " + json.dumps({
            short: statistics.median(ns) / 1e6
            for short, ns in bench.kernel_ns.items()}))
    print(f"# ops: untraced {len(plain_ns)}, traced {len(traced_ns)}, "
          f"attempted {tally.attempted}, failed {tally.failed}, "
          f"fail_ratio {tally.failed / tally.attempted:g}")
    if args.trace:
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        spans_path = WORK_DIR / (f"spans-{workload.name}-{size}-"
                                 f"{args.seed}.jsonl")
        recorder.write(spans_path)
        print(f"# spans: {len(recorder.spans)} written to "
              f"{spans_path.relative_to(ROOT)}")
        values = per_layer_metrics(bench, recorder, plain_ns, traced_ns,
                                   probes)
        units = dict(PER_LAYER)
    else:
        ms = [ns / 1e6 for ns in plain_ns]
        values = {"op_ms_p50": statistics.median(ms),
                  "op_ms_p90": percentile(ms, 90),
                  "setup_s": statistics.median(p["setup_s"] for p in probes),
                  "peak_rss_mb": peak_rss_mb}
        units = dict(END_TO_END)
    for name, value in values.items():
        print(f"{name} {value} {units[name]}")
    for message in list(dict.fromkeys(tally.messages))[:20]:
        print(f"error: {message}", file=sys.stderr)
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in values.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
