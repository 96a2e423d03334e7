"""Command-line interface, exercised through real subprocesses."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from cuenet import analysis, ctf, weights
from cuenet.config import desk_preset, serialize_config


def run_cli(*argv, cwd=None):
    return subprocess.run([sys.executable, "-m", "cuenet", *argv],
                          capture_output=True, text=True, cwd=cwd,
                          env=dict(os.environ))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Shared clip, detection streams, and weight containers."""
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(99)
    video = rng.standard_normal((8, 64, 80, 3))
    ctf.write_tensor(root / "clip.ctf", video)

    lines = []
    for t in range(8):
        if t == 3:
            boxes = [[8, 6, 40, 48], [20, 10, 56, 60]]
        else:
            boxes = [[12, 10, 30, 30]]
        lines.append(json.dumps({"frame": t, "boxes": boxes}))
    (root / "det.jsonl").write_text("\n".join(lines) + "\n")

    solo = [json.dumps({"frame": t, "boxes": [[5, 5, 20, 20]]})
            for t in range(8)]
    (root / "solo.jsonl").write_text("\n".join(solo) + "\n")

    weights.save_weights(weights.init_weights(desk_preset()),
                         root / "desk.cwc")
    weights.save_weights(
        weights.init_weights(desk_preset(precision="single")),
        root / "desk32.cwc")
    (root / "desk.cfg").write_text(serialize_config(desk_preset()))
    return root


def non_finite_clip(workdir, tmp_path, value):
    """The shared clip with a pixel block inside the crop set to ``value``."""
    video = ctf.read_tensor(workdir / "clip.ctf").copy()
    video[0, 20:24, 20:24, :] = value  # inside the [8, 6, 56, 60] union
    clip = tmp_path / "non_finite.ctf"
    ctf.write_tensor(clip, video)
    return clip


class TestCrop:
    def test_union_crop_applied(self, workdir):
        out = workdir / "cropped.ctf"
        proc = run_cli("crop", "--video", str(workdir / "clip.ctf"),
                       "--detections", str(workdir / "det.jsonl"),
                       "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        summary = json.loads(proc.stdout)
        assert summary["applied"] is True
        assert summary["max_people"] == 2
        assert summary["box"] == [8.0, 6.0, 56.0, 60.0]
        assert summary["input_shape"] == [8, 64, 80, 3]
        assert summary["output_shape"] == [8, 54, 48, 3]
        assert ctf.read_tensor(out).shape == (8, 54, 48, 3)
        sidecar = json.loads((workdir / "cropped.ctf.json").read_text())
        assert sidecar == summary

    def test_single_person_clip_passes_through(self, workdir, tmp_path):
        out = tmp_path / "same.ctf"
        proc = run_cli("crop", "--video", str(workdir / "clip.ctf"),
                       "--detections", str(workdir / "solo.jsonl"),
                       "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["applied"] is False
        assert out.read_bytes() == (workdir / "clip.ctf").read_bytes()

    def test_explicit_summary_path(self, workdir, tmp_path):
        summary = tmp_path / "s.json"
        proc = run_cli("crop", "--video", str(workdir / "clip.ctf"),
                       "--detections", str(workdir / "det.jsonl"),
                       "--out", str(tmp_path / "c.ctf"),
                       "--summary", str(summary))
        assert proc.returncode == 0
        assert json.loads(summary.read_text())["applied"] is True

    def test_frame_count_mismatch(self, workdir, tmp_path):
        short = "\n".join(json.dumps({"frame": t, "boxes": []})
                          for t in range(4))
        path = tmp_path / "short.jsonl"
        path.write_text(short + "\n")
        proc = run_cli("crop", "--video", str(workdir / "clip.ctf"),
                       "--detections", str(path),
                       "--out", str(tmp_path / "c.ctf"))
        assert proc.returncode == 2
        assert "4" in proc.stderr

    def test_zero_spatial_extent_exits_2(self, workdir, tmp_path):
        clip = tmp_path / "flat.ctf"
        ctf.write_tensor(clip, np.zeros((8, 0, 10, 3)))
        proc = run_cli("crop", "--video", str(clip),
                       "--detections", str(workdir / "solo.jsonl"),
                       "--out", str(tmp_path / "c.ctf"))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("value", (np.nan, np.inf, -np.inf))
    def test_non_finite_clip_exits_2(self, workdir, tmp_path, value):
        clip = non_finite_clip(workdir, tmp_path, value)
        out = tmp_path / "c.ctf"
        proc = run_cli("crop", "--video", str(clip),
                       "--detections", str(workdir / "det.jsonl"),
                       "--out", str(out))
        assert proc.returncode == 2
        assert str(clip) in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
        assert not out.exists()

    def test_corner_too_large_for_float_exits_2(self, workdir, tmp_path):
        path = tmp_path / "huge.jsonl"
        corner = "1" + "0" * 400
        path.write_text("\n".join(
            '{"frame": %d, "boxes": [[0, 0, %s, 1]]}' % (t, corner)
            for t in range(8)) + "\n")
        proc = run_cli("crop", "--video", str(workdir / "clip.ctf"),
                       "--detections", str(path),
                       "--out", str(tmp_path / "c.ctf"))
        assert proc.returncode == 2
        assert "line 1" in proc.stderr
        assert "Traceback" not in proc.stderr


    def test_boolean_box_corner_exits_2(self, workdir, tmp_path):
        path = tmp_path / "bool.jsonl"
        path.write_text("\n".join(
            '{"frame": %d, "boxes": [[0, 0, true, 1]]}' % t
            for t in range(8)) + "\n")
        proc = run_cli("crop", "--video", str(workdir / "clip.ctf"),
                       "--detections", str(path),
                       "--out", str(tmp_path / "c.ctf"))
        assert proc.returncode == 2
        assert "line 1" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestInfer:
    def infer(self, workdir, *extra):
        return run_cli("infer", "--video", str(workdir / "clip.ctf"),
                       "--detections", str(workdir / "det.jsonl"),
                       "--weights", str(workdir / "desk.cwc"), *extra)

    def test_result_document(self, workdir):
        proc = self.infer(workdir)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert len(result["logits"]) == 2
        assert abs(sum(result["probabilities"]) - 1.0) < 1e-9
        assert result["class"] in ("NonViolent", "Violent")
        assert result["crop"]["applied"] is True
        assert result["crop"]["output_shape"] == [8, 54, 48, 3]

    def test_repeat_runs_byte_identical(self, workdir):
        first = self.infer(workdir)
        second = self.infer(workdir)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_thread_flag_does_not_change_output(self, workdir):
        base = self.infer(workdir)
        threaded = self.infer(workdir, "--threads", "4")
        assert threaded.returncode == 0, threaded.stderr
        assert threaded.stdout == base.stdout

    def test_out_flag_writes_file(self, workdir, tmp_path):
        out = tmp_path / "result.json"
        proc = self.infer(workdir, "--out", str(out))
        assert proc.returncode == 0
        assert proc.stdout == ""
        assert json.loads(out.read_text())["class"] in ("NonViolent",
                                                        "Violent")

    def test_config_file_equivalent_to_preset(self, workdir):
        base = self.infer(workdir)
        via_file = self.infer(workdir, "--config",
                              str(workdir / "desk.cfg"))
        assert via_file.returncode == 0, via_file.stderr
        assert via_file.stdout == base.stdout

    def test_cropping_inside_infer_matches_crop_subcommand(self, workdir,
                                                           tmp_path):
        # crop first, then infer the cropped clip with no-crop detections:
        # the network must see the identical input either way
        cropped = tmp_path / "c.ctf"
        run_cli("crop", "--video", str(workdir / "clip.ctf"),
                "--detections", str(workdir / "det.jsonl"),
                "--out", str(cropped))
        solo = "\n".join(json.dumps({"frame": t, "boxes": [[1, 1, 9, 9]]})
                         for t in range(8))
        solo_path = tmp_path / "solo.jsonl"
        solo_path.write_text(solo + "\n")
        direct = json.loads(self.infer(workdir).stdout)
        staged = json.loads(run_cli(
            "infer", "--video", str(cropped),
            "--detections", str(solo_path),
            "--weights", str(workdir / "desk.cwc")).stdout)
        assert staged["logits"] == direct["logits"]

    def test_single_weights_widen_on_request(self, workdir):
        denied = run_cli("infer", "--video", str(workdir / "clip.ctf"),
                         "--detections", str(workdir / "det.jsonl"),
                         "--weights", str(workdir / "desk32.cwc"))
        assert denied.returncode == 3
        assert "widen" in denied.stderr
        widened = run_cli("infer", "--video", str(workdir / "clip.ctf"),
                          "--detections", str(workdir / "det.jsonl"),
                          "--weights", str(workdir / "desk32.cwc"),
                          "--precision", "f64")
        assert widened.returncode == 0, widened.stderr

    def test_missing_video_exits_2(self, workdir):
        proc = run_cli("infer", "--video", str(workdir / "absent.ctf"),
                       "--detections", str(workdir / "det.jsonl"),
                       "--weights", str(workdir / "desk.cwc"))
        assert proc.returncode == 2
        assert "absent.ctf" in proc.stderr

    def test_malformed_detections_exit_2(self, workdir, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"frame": 0, "boxes": [[0, 0, 5]]}\n')
        proc = run_cli("infer", "--video", str(workdir / "clip.ctf"),
                       "--detections", str(bad),
                       "--weights", str(workdir / "desk.cwc"))
        assert proc.returncode == 2
        assert "line 1" in proc.stderr

    def test_invalid_config_exits_3(self, workdir, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(serialize_config(desk_preset()).replace(
            "frames=8", "frames=7"))
        proc = self.infer(workdir, "--config", str(cfg))
        assert proc.returncode == 3
        assert "frames" in proc.stderr

    def test_bad_thread_count_exits_3(self, workdir):
        proc = self.infer(workdir, "--threads", "0")
        assert proc.returncode == 3

    def test_undecodable_detections_exit_2(self, workdir, tmp_path):
        bad = tmp_path / "latin1.jsonl"
        bad.write_bytes(b'{"frame": 0, "boxes": []}\xff\n')
        proc = run_cli("infer", "--video", str(workdir / "clip.ctf"),
                       "--detections", str(bad),
                       "--weights", str(workdir / "desk.cwc"))
        assert proc.returncode == 2
        assert "UTF-8" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_undecodable_weight_name_exits_2(self, workdir, tmp_path):
        data = bytearray((workdir / "desk.cwc").read_bytes())
        data[11] = 0xff  # first byte of the first entry name
        bad = tmp_path / "badname.cwc"
        bad.write_bytes(bytes(data))
        proc = run_cli("infer", "--video", str(workdir / "clip.ctf"),
                       "--detections", str(workdir / "det.jsonl"),
                       "--weights", str(bad))
        assert proc.returncode == 2
        assert "UTF-8" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_boolean_frame_index_exits_2(self, workdir, tmp_path):
        bad = tmp_path / "bool.jsonl"
        # without the check, true is read as frame 1
        bad.write_text("\n".join(
            '{"frame": %s, "boxes": []}' % ("true" if t == 1 else t)
            for t in range(8)) + "\n")
        proc = run_cli("infer", "--video", str(workdir / "clip.ctf"),
                       "--detections", str(bad),
                       "--weights", str(workdir / "desk.cwc"))
        assert proc.returncode == 2
        assert "line 2" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_non_finite_weight_exits_2(self, workdir, tmp_path):
        container = weights.load_weights(workdir / "desk.cwc")
        name = sorted(container.entries)[0]
        container.entries[name] = container.entries[name].copy()
        container.entries[name].flat[0] = np.inf
        bad = tmp_path / "inf.cwc"
        weights.save_weights(container, bad)
        proc = run_cli("infer", "--video", str(workdir / "clip.ctf"),
                       "--detections", str(workdir / "det.jsonl"),
                       "--weights", str(bad))
        assert proc.returncode == 2
        assert repr(name) in proc.stderr
        assert "non-finite" in proc.stderr
        assert proc.stdout == ""

    def test_directory_as_video_exits_2(self, workdir):
        proc = run_cli("infer", "--video", str(workdir),
                       "--detections", str(workdir / "det.jsonl"),
                       "--weights", str(workdir / "desk.cwc"))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

    def test_zero_spatial_extent_exits_2(self, workdir, tmp_path):
        clip = tmp_path / "flat.ctf"
        ctf.write_tensor(clip, np.zeros((8, 0, 10, 3)))
        proc = run_cli("infer", "--video", str(clip),
                       "--detections", str(workdir / "solo.jsonl"),
                       "--weights", str(workdir / "desk.cwc"))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

    def test_clip_precision_mismatch_exits_3(self, workdir):
        # a double clip is not narrowed to the configured single precision
        proc = run_cli("infer", "--video", str(workdir / "clip.ctf"),
                       "--detections", str(workdir / "det.jsonl"),
                       "--weights", str(workdir / "desk32.cwc"),
                       "--precision", "f32")
        assert proc.returncode == 3
        assert "dtype" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("value", (np.nan, np.inf, -np.inf))
    def test_non_finite_clip_exits_2(self, workdir, tmp_path, value):
        clip = non_finite_clip(workdir, tmp_path, value)
        proc = run_cli("infer", "--video", str(clip),
                       "--detections", str(workdir / "det.jsonl"),
                       "--weights", str(workdir / "desk.cwc"))
        assert proc.returncode == 2
        assert str(clip) in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_overflowing_logits_exit_4(self, workdir, tmp_path):
        # finite weights whose class projection overflows every logit
        container = weights.load_weights(workdir / "desk.cwc")
        container.entries["fusion.proj"] = np.full_like(
            container.entries["fusion.proj"], 1e308)
        big = tmp_path / "big.cwc"
        weights.save_weights(container, big)
        proc = run_cli("infer", "--video", str(workdir / "clip.ctf"),
                       "--detections", str(workdir / "det.jsonl"),
                       "--weights", str(big))
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert "non-finite" in proc.stderr

    @pytest.mark.parametrize("value", (1e160, 1e308))
    def test_overflowing_clip_exits_4(self, workdir, tmp_path, value):
        # finite pixels whose square overflows: the run stops at the first
        # overflow, and stderr holds the error line alone
        video = ctf.read_tensor(workdir / "clip.ctf").copy()
        video[:, 20:24, 30:34, :] = value
        clip = tmp_path / "huge.ctf"
        ctf.write_tensor(clip, video)
        proc = run_cli("infer", "--video", str(clip),
                       "--detections", str(workdir / "solo.jsonl"),
                       "--weights", str(workdir / "desk.cwc"))
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert "non-finite" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "Warning" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1


def scipy_special_loaded_after(*runs):
    """Whether ``scipy.special`` is imported after ``cli.main`` runs each
    argument list, in order, in a fresh interpreter (each must exit 0)."""
    code = ("import sys\n"
            "from cuenet import cli\n"
            f"for argv in {runs!r}:\n"
            "    assert cli.main(argv) == 0, argv\n"
            "print('scipy.special' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


class TestScipyImport:
    """Only double precision needs scipy: a single-precision process never
    imports ``scipy.special``."""

    def test_single_precision_runs_leave_scipy_out(self, workdir, tmp_path):
        clip = tmp_path / "clip32.ctf"
        ctf.write_tensor(clip, ctf.read_tensor(workdir / "clip.ctf")
                         .astype(np.float32))
        infer = ["infer", "--video", str(clip),
                 "--detections", str(workdir / "det.jsonl"),
                 "--weights", str(workdir / "desk32.cwc"),
                 "--precision", "f32"]
        bench = ["bench", "--attention", "meaa,eaa,self", "--sizes", "8",
                 "--reps", "5", "--d", "8"]
        assert scipy_special_loaded_after(infer, bench) == "False"

    def test_double_precision_infer_imports_scipy(self, workdir):
        infer = ["infer", "--video", str(workdir / "clip.ctf"),
                 "--detections", str(workdir / "det.jsonl"),
                 "--weights", str(workdir / "desk.cwc")]
        assert scipy_special_loaded_after(infer) == "True"


class TestInitWeights:
    def test_creates_loadable_container(self, workdir, tmp_path):
        out = tmp_path / "w.cwc"
        proc = run_cli("init-weights", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        info = json.loads(proc.stdout)
        assert info == {"entries": 59, "parameters": 316098,
                        "precision": "double", "seed": 2024}
        container = weights.load_weights(out)
        weights.bind_parameters(container, desk_preset())

    def test_matches_library_initialization(self, workdir):
        assert (workdir / "desk.cwc").read_bytes() \
            == subprocess_weights_bytes(workdir)

    def test_seed_override(self, tmp_path):
        a = tmp_path / "a.cwc"
        b = tmp_path / "b.cwc"
        run_cli("init-weights", "--out", str(a), "--seed", "1")
        run_cli("init-weights", "--out", str(b), "--seed", "2")
        assert a.read_bytes() != b.read_bytes()

    @pytest.mark.parametrize("old, new", (
        ("ffn_ratio=4.0", "ffn_ratio=1e300"),
        ("ffn_ratio=4.0", "ffn_ratio=1e7"),
        ("hidden=64", "hidden=100000000")))
    def test_oversized_geometry_exits_3(self, tmp_path, old, new):
        cfg = tmp_path / "big.cfg"
        cfg.write_text(serialize_config(desk_preset()).replace(old, new))
        out = tmp_path / "w.cwc"
        proc = run_cli("init-weights", "--config", str(cfg), "--out",
                       str(out))
        assert proc.returncode == 3
        assert "limit" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()


def subprocess_weights_bytes(workdir):
    out = workdir / "fresh.cwc"
    proc = run_cli("init-weights", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return out.read_bytes()


class TestFlops:
    def test_desk_report_is_verified(self):
        proc = run_cli("flops")
        assert proc.returncode == 0, proc.stderr
        assert "# verified: instrumented counts match" in proc.stdout
        assert "total" in proc.stdout
        assert "7358721" in proc.stdout

    def test_verification_can_be_skipped(self):
        proc = run_cli("flops", "--verify", "off")
        assert proc.returncode == 0
        assert "# verification skipped" in proc.stdout

    def test_global_attention_override_changes_total(self):
        proc = run_cli("flops", "--attention", "self", "--verify", "off")
        assert proc.returncode == 0
        assert "7487616" in proc.stdout

    def test_paper_preset_skips_verification_automatically(self):
        proc = run_cli("flops", "--preset", "paper")
        assert proc.returncode == 0, proc.stderr
        assert "# verification skipped" in proc.stdout

    @pytest.mark.parametrize("ratio", ("nan", "inf", "1e307"))
    def test_ffn_ratio_without_finite_width_exits_3(self, tmp_path, ratio):
        cfg = tmp_path / "ratio.cfg"
        cfg.write_text(serialize_config(desk_preset()).replace(
            "ffn_ratio=4.0", f"ffn_ratio={ratio}"))
        proc = run_cli("flops", "--config", str(cfg), "--verify", "off")
        assert proc.returncode == 3
        assert "ffn_ratio" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_out_file(self, tmp_path):
        out = tmp_path / "flops.txt"
        proc = run_cli("flops", "--verify", "off", "--out", str(out))
        assert proc.returncode == 0
        assert out.read_text().startswith("# flop report v1")


class TestBench:
    def test_csv_output(self):
        proc = run_cli("bench", "--attention", "meaa", "--sizes", "8,16",
                       "--reps", "5", "--d", "8")
        assert proc.returncode == 0, proc.stderr
        results = analysis.parse_bench_csv(proc.stdout)
        assert [(r.kind, r.n) for r in results] == [("meaa", 8),
                                                    ("meaa", 16)]

    def test_multiple_kinds(self):
        proc = run_cli("bench", "--attention", "meaa,eaa", "--sizes", "8",
                       "--reps", "5", "--d", "8")
        assert proc.returncode == 0
        kinds = [r.kind for r in analysis.parse_bench_csv(proc.stdout)]
        assert kinds == ["meaa", "eaa_original"]

    def test_too_few_reps_exit_3(self):
        proc = run_cli("bench", "--attention", "meaa", "--sizes", "8",
                       "--reps", "1", "--d", "8")
        assert proc.returncode == 3
        assert "5" in proc.stderr

    def test_unknown_attention_kind_exits_2(self):
        proc = run_cli("bench", "--attention", "foo", "--sizes", "8")
        assert proc.returncode == 2
        assert "--attention" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_non_integer_size_exits_2(self):
        proc = run_cli("bench", "--sizes", "abc")
        assert proc.returncode == 2
        assert "--sizes" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_zero_width_exits_3(self):
        proc = run_cli("bench", "--attention", "meaa", "--sizes", "8",
                       "--d", "0")
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr


class TestGradcheckCommand:
    def test_passes_with_report(self):
        proc = run_cli("gradcheck", "--instances", "3")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "# gradient check v1"
        assert all(line.endswith(",ok") for line in lines[2:])

    def test_unknown_module_exits_3(self):
        proc = run_cli("gradcheck", "--modules", "conv")
        assert proc.returncode == 3

    @pytest.mark.parametrize("instances", ["0", "-1"])
    def test_no_instances_exits_3(self, instances):
        proc = run_cli("gradcheck", "--instances", instances)
        assert proc.returncode == 3
        assert proc.stdout == ""


class TestSelftest:
    def test_full_suite_passes(self):
        proc = run_cli("selftest")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "selftest: 13/13 checks passed" in proc.stdout
        assert "FAIL" not in proc.stdout


class TestParser:
    def test_no_subcommand_is_usage_error(self):
        proc = run_cli()
        assert proc.returncode == 2

    def test_unknown_flag_is_usage_error(self):
        proc = run_cli("flops", "--wat")
        assert proc.returncode == 2
