"""Acceptance gate: ten pinned end-to-end criteria, one report line each.

Each test prints a single ``acceptance NN <name>: PASS/FAIL`` line on the
real stdout so the verdicts survive capture, then asserts.  Tolerances are
pinned in the assertions, not configurable.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from cuenet import analysis, attention, crop, ctf, fusion, model, weights
from cuenet.attention import (ATTENTION_EAA, ATTENTION_KINDS, ATTENTION_MEAA,
                              ATTENTION_SELF)
from cuenet.config import desk_preset
from cuenet.tensor import mean_rows

from util import meaa_oracle, random_additive_params, rel_err


@pytest.fixture
def report(capsys):
    """Reporter that survives pytest's output capture."""
    def _report(num, name, ok, detail=""):
        verdict = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        with capsys.disabled():
            print(f"acceptance {num:02d} {name}: {verdict}{suffix}",
                  flush=True)
    return _report


def run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "cuenet", *argv],
                          capture_output=True, text=True)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    rng = np.random.default_rng(1234)
    ctf.write_tensor(root / "clip.ctf",
                     rng.standard_normal((8, 64, 80, 3)))
    lines = []
    for t in range(8):
        boxes = [[10, 8, 44, 52]]
        if t == 2:
            boxes.append([24, 16, 60, 58])
        lines.append(json.dumps({"frame": t, "boxes": boxes}))
    (root / "det.jsonl").write_text("\n".join(lines) + "\n")
    weights.save_weights(weights.init_weights(desk_preset()),
                         root / "desk.cwc")
    return root


def test_criterion_01_mechanism_equivalence(report):
    """Vectorized scalar-gated attention equals its scalar-loop oracle."""
    rng = np.random.default_rng(20240811)
    start = time.monotonic()
    worst = 0.0
    instances = 100
    for _ in range(instances):
        n = int(rng.integers(1, 65))
        d = int(rng.integers(1, 65))
        params = random_additive_params(rng, d, with_q=True)
        q_normed = rng.standard_normal((1, d))
        x = rng.standard_normal((n, d))
        got = mean_rows(attention.meaa(q_normed, x, params))
        want = meaa_oracle(q_normed, x, params)
        worst = max(worst, rel_err(got, want))
    wall = time.monotonic() - start
    ok = worst <= 1e-12 and wall < 10.0
    report(1, "mechanism equivalence", ok,
           f"{instances} instances, n,d in [1,64], max rel err "
           f"{worst:.2e} <= 1e-12, {wall:.1f}s < 10s")
    assert worst <= 1e-12
    assert wall < 10.0


def test_criterion_02_gradient_agreement(report):
    """Analytic gradients match central differences for every group."""
    result = analysis.grad_check(modules=("meaa", "fuse", "classify"),
                                 eps=1e-5, tol=1e-4, instances=20, seed=0)
    groups = {(row.module, row.group) for row in result.rows}
    expected = {("meaa", g) for g in
                ("q", "wq", "wk", "w_a", "w1", "b1", "w2", "b2")}
    expected |= {("fuse", "beta"), ("classify", "proj"),
                 ("classify", "bias")}
    worst = max(row.max_rel_err for row in result.rows)
    ok = result.ok and groups == expected
    report(2, "gradient agreement", ok,
           f"{len(result.rows)} groups x 20 instances, eps 1e-5, "
           f"max rel err {worst:.2e} <= tol 1e-4")
    assert groups == expected
    assert result.ok, result.format()


def test_criterion_03_work_count_verification(report):
    """Analytic work model matches instrumented counts stage by stage."""
    mismatches = []
    totals = {}
    for kind in ATTENTION_KINDS:
        cfg = desk_preset().with_attention(kind, "global")
        verification = analysis.verify_flops(cfg)
        totals[kind] = verification.report.total
        mismatches += verification.mismatches
    ok = not mismatches
    report(3, "work-count verification", ok,
           "exact per-stage match for global kinds "
           + ", ".join(f"{k}={totals[k]}" for k in ATTENTION_KINDS))
    assert ok, mismatches


def test_criterion_04_work_count_ordering(report):
    """Replacing softmax attention with the scalar-gated form saves work."""
    base = desk_preset()
    meaa_total = analysis.count_flops(
        base.with_attention(ATTENTION_MEAA, "everywhere")).total
    default_total = analysis.count_flops(base).total
    self_total = analysis.count_flops(
        base.with_attention(ATTENTION_SELF, "everywhere")).total
    ok = (meaa_total, default_total, self_total) \
        == (7203081, 7358721, 7487616) \
        and meaa_total < default_total < self_total
    report(4, "work-count ordering", ok,
           f"{meaa_total} < {default_total} < {self_total}")
    assert meaa_total == 7203081
    assert default_total == 7358721
    assert self_total == 7487616


def test_criterion_05_timing_scalability(workdir, report):
    """Additive attention times grow linearly, softmax quadratically."""
    start = time.monotonic()
    meaa_proc = run_cli("bench", "--attention", "meaa", "--sizes",
                        "1024,2048,4096,8192,16384,32768", "--reps", "7",
                        "--d", "64")
    assert meaa_proc.returncode == 0, meaa_proc.stderr
    meaa_rows = analysis.parse_bench_csv(meaa_proc.stdout)
    _, _, r2 = analysis.linear_fit_r2([r.n for r in meaa_rows],
                                      [r.median_ns for r in meaa_rows])

    self_proc = run_cli("bench", "--attention", "self", "--sizes",
                        "512,1024,2048,4096", "--reps", "7", "--d", "64")
    assert self_proc.returncode == 0, self_proc.stderr
    self_rows = {r.n: r.median_ns for r in
                 analysis.parse_bench_csv(self_proc.stdout)}
    ratio = self_rows[4096] / self_rows[2048]
    wall = time.monotonic() - start
    ok = r2 >= 0.98 and ratio >= 3.0 and wall < 300.0
    report(5, "timing scalability", ok,
           f"additive R2 {r2:.4f} >= 0.98 over n=1024..32768; softmax "
           f"t(4096)/t(2048) {ratio:.2f} >= 3.0; {wall:.0f}s < 300s")
    assert r2 >= 0.98, (r2, meaa_rows)
    assert ratio >= 3.0, self_rows
    assert wall < 300.0


def test_criterion_06_memory_model(report):
    """Scalar-gated attention needs fewer live intermediates, provably."""
    worst_gap_defect = 0
    checked = 0
    for d in (4, 16, 64):
        for n in list(range(2, 130)) + [1024, 4096]:
            meaa_est = analysis.estimate_memory(ATTENTION_MEAA, n, d)
            eaa_est = analysis.estimate_memory(ATTENTION_EAA, n, d)
            gap = eaa_est.elements - meaa_est.elements
            assert meaa_est.elements < eaa_est.elements, (n, d)
            assert gap == n * d + n - d, (n, d)
            assert gap >= n * d + n - d - 1
            checked += 1
    probes = ((1, 1), (7, 16), (20, 64), (64, 32))
    for kind in ATTENTION_KINDS:
        for n, d in probes:
            measured = analysis.measured_attention_elements(kind, n, d)
            estimated = analysis.estimate_memory(kind, n, d).elements
            assert measured == estimated, (kind, n, d, measured, estimated)
    report(6, "memory model", True,
           f"estimate(meaa) < estimate(eaa) with gap == n*d+n-d at "
           f"{checked} sizes; instrumented peaks equal estimates at "
           f"{len(probes)} probes x {len(ATTENTION_KINDS)} kinds")


def test_criterion_07_crop_policy(report):
    """Union crop fires exactly for multi-person frames and is minimal."""
    rng = np.random.default_rng(7)
    height, width = 100, 80
    cases = 1000
    applied_count = 0
    for _ in range(cases):
        frames = []
        for _ in range(int(rng.integers(1, 7))):
            boxes = []
            for _ in range(int(rng.integers(0, 4))):
                xs = np.sort(rng.uniform(0, width, 2))
                ys = np.sort(rng.uniform(0, height, 2))
                boxes.append(crop.BBox(xs[0], ys[0], xs[1], ys[1]))
            frames.append(boxes)
        sequence = crop.DetectionSequence(frames=frames, height=height,
                                          width=width)
        decision = crop.compute_crop_box(sequence)
        everything = [b for boxes in frames for b in boxes]
        multi = any(len(boxes) > 1 for boxes in frames)
        assert decision.applied == multi
        if not multi:
            assert decision.box == crop.BBox(0.0, 0.0, float(width),
                                             float(height))
            continue
        applied_count += 1
        union = decision.box
        assert union.x_min == min(b.x_min for b in everything)
        assert union.y_min == min(b.y_min for b in everything)
        assert union.x_max == max(b.x_max for b in everything)
        assert union.y_max == max(b.y_max for b in everything)
        for box in everything:
            assert union.contains(box)
        # minimality: every side is pinned by a witness box
        assert any(b.x_min == union.x_min for b in everything)
        assert any(b.y_max == union.y_max for b in everything)

    fixture = crop.parse_detections(
        '{"frame": 0, "boxes": [[10.0, 5.0, 40.0, 50.0]]}\n'
        '{"frame": 1, "boxes": [[30.0, 20.0, 70.0, 80.0], '
        '[15.0, 12.0, 35.0, 44.0]]}\n', height=100, width=100)
    decision = crop.compute_crop_box(fixture)
    got = (decision.box.x_min, decision.box.y_min, decision.box.x_max,
           decision.box.y_max)
    ok = decision.applied and got == (10.0, 5.0, 70.0, 80.0)
    report(7, "crop policy", ok,
           f"{cases} randomized clips ({applied_count} cropped): union "
           f"exact, containing, minimal, applied iff multi-person; hand "
           f"fixture box {got}")
    assert ok, got


def test_criterion_08_inference_determinism(workdir, report):
    """Repeated CLI inference is byte-identical, also across threads."""
    def infer(*extra):
        proc = run_cli("infer", "--video", str(workdir / "clip.ctf"),
                       "--detections", str(workdir / "det.jsonl"),
                       "--weights", str(workdir / "desk.cwc"), *extra)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    outputs = [infer() for _ in range(3)]
    outputs += [infer("--threads", str(t)) for t in (1, 2, 4)]
    ok = all(out == outputs[0] for out in outputs)
    report(8, "inference determinism", ok,
           "3 repeats and threads {1,2,4}: identical result bytes")
    assert ok


def test_criterion_09_shape_integrity(report):
    """Every traced intermediate matches independent shape arithmetic."""
    rng = np.random.default_rng(9)
    configs = [desk_preset(frames=2, height=16, width=16, local_depth=1,
                           local_attention=(ATTENTION_MEAA,))]
    while len(configs) < 11:
        hidden = int(rng.choice([8, 16, 32, 64]))
        heads = int(rng.choice([h for h in (1, 2, 4) if hidden % h == 0]))
        depth = int(rng.integers(0, 3))
        kinds = tuple(ATTENTION_KINDS[i]
                      for i in rng.integers(0, 3, size=depth))
        try:
            configs.append(desk_preset(
                frames=int(rng.choice([2, 4, 6, 8])),
                height=int(rng.choice([16, 32, 48])),
                width=int(rng.choice([16, 32, 48])),
                hidden=hidden, heads=heads, local_depth=depth,
                local_attention=kinds,
                global_attention=ATTENTION_KINDS[int(rng.integers(0, 3))],
                lt_kernel=int(rng.choice([1, 3, 5])),
                ffn_ratio=float(rng.choice([0.5, 1.0, 2.0])), seed=5))
        except Exception:  # pragma: no cover - draws are always valid
            raise

    for cfg in configs:
        container = weights.init_weights(cfg)
        video = rng.standard_normal((cfg.frames, cfg.height + 16,
                                     cfg.width + 16, cfg.channels))
        trace = {}
        logits = model.forward(video, None, container, cfg, trace=trace)
        expected = model.expected_trace(cfg)
        for key, shape in expected.items():
            assert trace[key] == shape, (key, cfg)
        # independent arithmetic, not via the model's own helpers
        t2 = cfg.frames // 2
        m = (cfg.height // 16) * (cfg.width // 16) + 1
        assert trace["backbone"] == (t2, m, cfg.hidden)
        assert trace["global.tokens"] == (t2 * m, cfg.hidden)
        assert trace["global.pooled"] == (1, cfg.hidden)
        assert logits.shape == (cfg.num_classes,)
    report(9, "shape integrity", True,
           f"{len(configs)} configurations (including frames=2, 16x16 "
           f"degenerate): every traced intermediate exact")


def test_criterion_10_fusion_convexity(report):
    """The fused vector lies between the two pathway vectors elementwise."""
    rng = np.random.default_rng(10)
    d = 16
    cases = 1000
    for _ in range(cases):
        a = 10.0 * rng.standard_normal((1, d))
        b = 10.0 * rng.standard_normal((1, d))
        beta = 8.0 * rng.standard_normal((1, d))
        out = fusion.fuse(a, b, beta)
        low = np.minimum(a, b) - 1e-12
        high = np.maximum(a, b) + 1e-12
        assert np.all(out >= low) and np.all(out <= high)
    report(10, "fusion convexity", True,
           f"{cases} random pathway/gate triples, d={d}, slack 1e-12")
