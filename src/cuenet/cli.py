"""Command-line interface.

Subcommands: ``crop``, ``infer``, ``init-weights``, ``flops``, ``bench``,
``gradcheck``, ``selftest``.  Exit codes: 0 success, 2 malformed input
(missing or unreadable files, undecodable text, bad streams, clips holding
NaN or an infinity, bad flags),
3 invalid configuration, shape, or parameter, 4 failed runtime verification
(including an overflow or invalid operation inside the network and
non-finite inference logits).

Thread-pool environment variables for the numeric backend are pinned to one
worker before the backend loads (existing values are respected), so results
do not depend on machine core count.  Every kernel runs sequentially;
``infer --threads N`` is validated (N >= 1) and otherwise ignored.
"""

import argparse
import json
import os
import stat
import sys
import tempfile

from .errors import (BoundsError, ConfigError, FormatError, ParamError,
                     ShapeError, VerificationError)

_CLI_ATTENTION = {"self": "self_attention", "meaa": "meaa",
                  "eaa": "eaa_original"}
_CLI_PRECISION = {"f32": "single", "f64": "double"}


def _attention_list(text):
    """argparse type: comma list of CLI attention names -> kernel kinds."""
    tokens = [token.strip() for token in text.split(",") if token.strip()]
    if not tokens or any(token not in _CLI_ATTENTION for token in tokens):
        raise argparse.ArgumentTypeError(
            f"expected a comma list from {{{','.join(sorted(_CLI_ATTENTION))}"
            f"}}, got {text!r}")
    return [_CLI_ATTENTION[token] for token in tokens]


def _int_list(text):
    """argparse type: comma list of integers."""
    try:
        return [int(token) for token in text.split(",") if token.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma list of integers, got {text!r}") from None


def _pin_backend_threads():
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, "1")


def _write_atomic(path, data):
    if isinstance(data, str):
        data = data.encode("utf-8")
    # mkstemp makes the file owner-only; give it the mode open would: the
    # mode of the file it replaces, else 0o666 less the umask
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-",
                               suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), mode)
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(args, text):
    if args.out:
        _write_atomic(args.out, text)
    else:
        sys.stdout.write(text)


def _read_text(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(
                f"{path}: not UTF-8 text ({exc.reason})") from None


def _load_config(args):
    from . import config as config_mod
    from dataclasses import replace
    if args.config:
        cfg = config_mod.parse_config(_read_text(args.config))
    else:
        cfg = config_mod.desk_preset() if args.preset == "desk" \
            else config_mod.paper_preset()
    if args.attention:
        cfg = cfg.with_attention(_CLI_ATTENTION[args.attention], "global")
    if args.precision:
        cfg = replace(cfg, precision=_CLI_PRECISION[args.precision])
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _crop_summary(decision, in_shape, out_shape):
    box = decision.box
    return {
        "applied": decision.applied,
        "max_people": decision.max_people,
        "box": [box.x_min, box.y_min, box.x_max, box.y_max],
        "input_shape": list(in_shape),
        "output_shape": list(out_shape),
    }


def _read_clip(args):
    """The ``--video`` clip and its ``--detections`` stream, checked to agree.

    A clip holding NaN or +-inf is refused here, so ``model.forward`` pays
    no finiteness check."""
    import numpy as np
    from . import crop, ctf
    video = ctf.read_tensor(args.video)
    if video.ndim != 4:
        raise FormatError(f"clip tensor must have rank 4, got rank "
                          f"{video.ndim}")
    if video.shape[1] < 1 or video.shape[2] < 1:
        raise FormatError(f"clip frames must be non-empty, got "
                          f"{video.shape[1]}x{video.shape[2]}")
    if not np.isfinite(video).all():
        raise FormatError(f"{args.video}: clip holds NaN or infinite pixels")
    sequence = crop.parse_detections(_read_text(args.detections),
                                     height=video.shape[1],
                                     width=video.shape[2])
    if sequence.frame_count != video.shape[0]:
        raise FormatError(f"detection stream covers {sequence.frame_count} "
                          f"frames, clip has {video.shape[0]}")
    return video, sequence


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_crop(args):
    from . import crop, ctf
    video, sequence = _read_clip(args)
    decision = crop.compute_crop_box(sequence)
    cropped = crop.apply_crop(video, decision)
    _write_atomic(args.out, ctf.tensor_bytes(cropped))
    summary = _crop_summary(decision, video.shape, cropped.shape)
    text = json.dumps(summary, indent=2) + "\n"
    summary_path = args.summary or args.out + ".json"
    _write_atomic(summary_path, text)
    sys.stdout.write(text)
    return 0


def cmd_infer(args):
    import numpy as np
    from . import analysis, crop, fusion, model
    from .weights import load_weights
    if args.threads is not None and args.threads < 1:
        raise ConfigError(f"thread count must be at least 1, got "
                          f"{args.threads}")
    cfg = _load_config(args)
    if cfg.num_classes != len(fusion.CLASS_LABELS):
        raise ConfigError(f"infer labels two classes, not {cfg.num_classes}")
    analysis.count_flops(cfg).check_peaks("network input", cfg.precision)
    video, sequence = _read_clip(args)
    container = load_weights(args.weights, precision=cfg.precision,
                             allow_widen=args.precision is not None)
    decision = crop.compute_crop_box(sequence)
    cropped = crop.apply_crop(video, decision)
    # overflow anywhere in the network fails the run; underflow stays silent
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            logits = model.forward(cropped, None, container, cfg)
    except FloatingPointError as exc:
        raise VerificationError(f"inference produced non-finite values "
                                f"({exc})") from None
    probs = fusion.probabilities(logits)
    result = {
        "logits": [float(v) for v in logits],
        "probabilities": [float(v) for v in probs],
        "class": fusion.predicted_label(logits),
        "crop": _crop_summary(decision, video.shape, cropped.shape),
    }
    _emit(args, json.dumps(result, indent=2) + "\n")
    return 0


def cmd_init_weights(args):
    from .weights import container_bytes, init_weights, param_count
    cfg = _load_config(args)
    container = init_weights(cfg)
    _write_atomic(args.out, container_bytes(container))
    info = {"entries": len(container.entries),
            "parameters": param_count(cfg), "precision": cfg.precision,
            "seed": cfg.seed}
    sys.stdout.write(json.dumps(info, indent=2) + "\n")
    return 0


def cmd_flops(args):
    from . import analysis
    cfg = _load_config(args)
    report = analysis.count_flops(cfg)
    text = report.format()
    if args.verify == "on" or (args.verify == "auto"
                               and report.total <= 2_000_000_000):
        analysis.require_flops_match(cfg)
        text += "# verified: instrumented counts match analytic counts per stage\n"
    else:
        text += "# verification skipped\n"
    _emit(args, text)
    return 0


def cmd_bench(args):
    from . import analysis
    kinds = args.attention or [_CLI_ATTENTION["meaa"], _CLI_ATTENTION["self"]]
    results = []
    for kind in kinds:
        if args.sizes is not None:
            sizes = args.sizes
        elif kind == "self_attention":
            sizes = [512 * 2 ** i for i in range(4)]
        else:
            sizes = [1024 * 2 ** i for i in range(6)]
        results += analysis.bench_attention(kind, sizes, d=args.d,
                                            reps=args.reps, seed=args.seed)
    _emit(args, analysis.format_bench_csv(results))
    return 0


def cmd_gradcheck(args):
    from . import analysis
    modules = tuple(token.strip() for token in args.modules.split(",")
                    if token.strip())
    report = analysis.grad_check(modules=modules, eps=args.eps, tol=args.tol,
                                 instances=args.instances, seed=args.seed)
    _emit(args, report.format())
    if not report.ok:
        raise VerificationError("analytic gradients disagree with central "
                                "differences; see report")
    return 0


def cmd_selftest(args):
    import numpy as np
    from . import analysis, crop, model
    from .attention import ATTENTION_KINDS
    from .config import desk_preset
    from .tensor import dtype_of
    from .weights import init_weights

    checks = []

    def check(name, ok, detail=""):
        checks.append((name, ok, detail))
        status = "ok" if ok else "FAIL"
        sys.stdout.write(f"{status:4s} {name}{' - ' + detail if detail and not ok else ''}\n")

    for kind in ATTENTION_KINDS:
        cfg = desk_preset().with_attention(kind, "global")
        verification = analysis.verify_flops(cfg)
        check(f"work counts agree ({kind} global)", verification.ok,
              "; ".join(verification.mismatches))
    cfg_everywhere = desk_preset().with_attention("meaa", "everywhere")
    verification = analysis.verify_flops(cfg_everywhere)
    check("work counts agree (meaa everywhere)", verification.ok,
          "; ".join(verification.mismatches))

    for kind in ATTENTION_KINDS:
        for n, d in ((20, 64), (7, 16)):
            measured = analysis.measured_attention_elements(kind, n, d)
            expected = analysis.estimate_memory(kind, n, d).elements
            check(f"memory peak matches ({kind}, n={n}, d={d})",
                  measured == expected,
                  f"measured {measured}, estimated {expected}")

    report = analysis.grad_check(instances=5)
    check("analytic gradients match central differences", report.ok)

    fixture = crop.parse_detections(
        '{"frame": 0, "boxes": [[10.0, 5.0, 40.0, 50.0]]}\n'
        '{"frame": 1, "boxes": [[30.0, 20.0, 70.0, 80.0], '
        '[15.0, 12.0, 35.0, 44.0]]}\n', height=100, width=100)
    decision = crop.compute_crop_box(fixture)
    expected_box = (10.0, 5.0, 70.0, 80.0)
    got_box = (decision.box.x_min, decision.box.y_min, decision.box.x_max,
               decision.box.y_max)
    check("crop fixture box", decision.applied and got_box == expected_box,
          f"got {got_box}")

    cfg = desk_preset()
    rng = np.random.default_rng(7)
    video = rng.standard_normal(
        (cfg.frames, cfg.height, cfg.width, cfg.channels)).astype(
        dtype_of(cfg.precision))
    container = init_weights(cfg)
    first = model.forward(video, None, container, cfg)
    second = model.forward(video, None, container, cfg)
    check("repeat inference is byte-identical",
          first.tobytes() == second.tobytes())

    failed = [name for name, ok, _ in checks if not ok]
    sys.stdout.write(f"selftest: {len(checks) - len(failed)}/{len(checks)} "
                     f"checks passed\n")
    if failed:
        raise VerificationError(f"selftest failures: {', '.join(failed)}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="cuenet",
        description="Violence-detection inference stack: detection-driven "
                    "cropping, token-mixing network, cost analysis tools.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p, preset=False):
        p.add_argument("--config", help="flat key=value configuration file")
        if preset:
            p.add_argument("--preset", choices=("desk", "paper"),
                           default="desk",
                           help="built-in configuration when --config is "
                                "absent")
        p.add_argument("--attention", choices=sorted(_CLI_ATTENTION),
                       help="override the global-stage attention kind")
        p.add_argument("--precision", choices=sorted(_CLI_PRECISION),
                       help="override the configured element precision")

    p = sub.add_parser("crop", help="apply the detection-driven crop policy")
    p.add_argument("--video", required=True, help="input clip tensor file")
    p.add_argument("--detections", required=True,
                   help="JSON-lines detection stream")
    p.add_argument("--out", required=True, help="cropped clip tensor file")
    p.add_argument("--summary", help="crop summary JSON path "
                                     "(default: <out>.json)")
    p.set_defaults(handler=cmd_crop)

    p = sub.add_parser("infer", help="run full inference on one clip")
    p.add_argument("--video", required=True, help="input clip tensor file")
    p.add_argument("--detections", required=True,
                   help="JSON-lines detection stream")
    p.add_argument("--weights", required=True, help="weight container file")
    add_config_flags(p)
    p.add_argument("--threads", type=int,
                   help="accepted for compatibility and validated (>= 1); "
                        "inference always runs sequentially")
    p.add_argument("--out", help="write the result JSON here instead of "
                                 "stdout")
    p.set_defaults(handler=cmd_infer, preset="desk", seed=None)

    p = sub.add_parser("init-weights",
                       help="draw a fresh weight container for a "
                            "configuration")
    add_config_flags(p, preset=True)
    p.add_argument("--seed", type=int, help="override the configured seed")
    p.add_argument("--out", required=True, help="weight container path")
    p.set_defaults(handler=cmd_init_weights)

    p = sub.add_parser("flops",
                       help="analytic work model, verified against an "
                            "instrumented run")
    add_config_flags(p, preset=True)
    p.add_argument("--verify", choices=("auto", "on", "off"), default="auto",
                   help="instrumented cross-check (auto skips very large "
                        "configurations)")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(handler=cmd_flops, seed=None)

    p = sub.add_parser("bench", help="time attention mechanisms across "
                                     "token counts")
    p.add_argument("--attention", type=_attention_list,
                   help="comma list from {self,meaa,eaa} "
                        "(default: meaa,self)")
    p.add_argument("--sizes", type=_int_list,
                   help="comma list of token counts "
                        "(default: per-kind doubling sweep)")
    p.add_argument("--d", type=int, default=64, help="token width")
    p.add_argument("--reps", type=int, default=7,
                   help="timed repetitions per size (minimum 5)")
    p.add_argument("--seed", type=int, default=0, help="input draw seed")
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.set_defaults(handler=cmd_bench)

    p = sub.add_parser("gradcheck",
                       help="compare analytic gradients against central "
                            "differences")
    p.add_argument("--modules", default="meaa,fuse,classify",
                   help="comma list of gradient modules")
    p.add_argument("--eps", type=float, default=1e-5,
                   help="finite-difference step")
    p.add_argument("--tol", type=float, default=1e-4,
                   help="agreement tolerance (absolute and relative)")
    p.add_argument("--instances", type=int, default=20,
                   help="random problem instances per module")
    p.add_argument("--seed", type=int, default=0, help="instance draw seed")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(handler=cmd_gradcheck)

    p = sub.add_parser("selftest", help="fast end-to-end consistency suite")
    p.set_defaults(handler=cmd_selftest)

    return parser


def main(argv=None):
    _pin_backend_threads()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename or exc}", file=sys.stderr)
        return 2
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ShapeError, ParamError, BoundsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
