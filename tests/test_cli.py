"""Command-line interface, exercised through real subprocesses."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from cuenet import analysis, cli, ctf, model, weights
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


# Two configurations whose input fits under the 2 GiB limit but one of whose
# attention stages does not.  16 frames of 1024x1024 in f64 are 402 MB, but
# the global self-attention over 8 x 4097 tokens holds an 8.6 GB score
# matrix.  2 frames of 4096x4096 are 805 MB, but each local self-attention
# frame of the desk preset holds 65,537 tokens: a 34 GB score matrix.
# Self-attention holds 4*t*n*d + t*b*n elements above 512 tokens, with
# b = 2**18 // n score rows per block.  global: 8 x (64*64 + 1) = 32,776
# tokens at d = 2048, b = 7: 268,730,424 elements, 2,149,843,392 bytes of
# f64.  local0: 1 x (256*256 + 1) = 65,537 tokens at d = 1024, b = 3:
# 268,636,163 elements, 2,149,089,304 bytes.  Every other attention and FFN
# stage and the input stay under 2 GiB.  The backbone is priced first and
# is larger still: its zero-framed patch rows, its output and one temporal
# tap's product, (t + 2)*s*768 + 2*t*s*d elements over s patches per frame.
# global: 18*4096*768 + 2*16*4096*2048 = 325,058,560 elements; local0:
# 4*65536*768 + 2*2*65536*1024 = 469,762,048 elements.
OVERSIZED_ATTENTION = (
    ("global.attn", dict(frames=16, height=1024, width=1024, hidden=2048,
                         ffn_ratio=1, local_attention=("meaa", "meaa"),
                         global_attention="self_attention")),
    ("local0.attn", dict(frames=2, height=4096, width=4096, hidden=1024,
                         ffn_ratio=1)))
ATTENTION_BYTES = {"global.attn": 2_149_843_392, "local0.attn": 2_149_089_304}
BACKBONE_BYTES = {"global.attn": 2_600_468_480, "local0.attn": 3_758_096_384}

# Two frames of 6672x6672 are 2,136,748,032 bytes of f64 input, just under
# 2 GiB, and every attention and FFN stage is smaller; but the backbone's
# 4*173,889*768 patch rows alone are twice the input.
OVERSIZED_BACKBONE = desk_preset(frames=2, height=6672, width=6672)


def priced_bytes(cfg, stage):
    """The f64 bytes ``count_flops`` prices ``stage`` of ``cfg`` at."""
    return analysis.count_flops(cfg).peaks[stage] * 8


def oversized_config(tmp_path, overrides):
    path = tmp_path / "oversized.cfg"
    path.write_text(serialize_config(desk_preset(**overrides)))
    return path


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

    def test_oversized_input_exits_3(self, workdir, tmp_path):
        # a valid configuration whose input clip alone is 2**67 bytes
        cfg = tmp_path / "tall.cfg"
        cfg.write_text(serialize_config(desk_preset()).replace(
            "height=32", f"height={16 * 2 ** 60}"))
        proc = self.infer(workdir, "--config", str(cfg))
        assert proc.returncode == 3
        assert "limit" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_oversized_attention_exits_3_before_reading(
            self, workdir, tmp_path, monkeypatch, capsys):
        # 402 MB of f64 input, but the global block's 8 x (64*64 + 1)
        # tokens at width 2048 need 2.15 GB of self-attention buffers
        stage, overrides = OVERSIZED_ATTENTION[0]

        def fail(*args, **kwargs):
            raise AssertionError("called before the configuration was priced")

        monkeypatch.setattr(ctf, "read_tensor", fail)
        monkeypatch.setattr(model, "forward", fail)
        code = cli.main(["infer", "--video", str(workdir / "clip.ctf"),
                         "--detections", str(workdir / "det.jsonl"),
                         "--weights", str(workdir / "desk.cwc"),
                         "--config", str(oversized_config(tmp_path,
                                                          overrides))])
        assert code == 3
        assert f"backbone intermediates: {BACKBONE_BYTES[stage]} bytes" \
            in capsys.readouterr().err
        assert priced_bytes(desk_preset(**overrides), stage) \
            == ATTENTION_BYTES[stage]

    def test_oversized_local_attention_exits_3_before_reading(
            self, workdir, tmp_path, monkeypatch, capsys):
        stage, overrides = OVERSIZED_ATTENTION[1]

        def fail(*args, **kwargs):
            raise AssertionError("called before the configuration was priced")

        monkeypatch.setattr(ctf, "read_tensor", fail)
        monkeypatch.setattr(model, "forward", fail)
        code = cli.main(["infer", "--video", str(workdir / "clip.ctf"),
                         "--detections", str(workdir / "det.jsonl"),
                         "--weights", str(workdir / "desk.cwc"),
                         "--config", str(oversized_config(tmp_path,
                                                          overrides))])
        assert code == 3
        err = capsys.readouterr().err
        assert f"backbone intermediates: {BACKBONE_BYTES[stage]} bytes" in err
        assert "2 GiB limit" in err
        assert priced_bytes(desk_preset(**overrides), stage) \
            == ATTENTION_BYTES[stage]

    def test_oversized_ffn_exits_3_before_reading(
            self, workdir, tmp_path, monkeypatch, capsys):
        # 805 MB of input and 1.07 GB per attention stage, but each local
        # FFN's GELU output is 4 frames x 16385 tokens x 4096 wide
        def fail(*args, **kwargs):
            raise AssertionError("called before the configuration was priced")

        config = desk_preset(frames=8, height=2048, width=2048, hidden=1024,
                             heads=16).with_attention("meaa", "everywhere")
        cfg = tmp_path / "ffn.cfg"
        cfg.write_text(serialize_config(config))
        monkeypatch.setattr(ctf, "read_tensor", fail)
        monkeypatch.setattr(model, "forward", fail)
        code = cli.main(["infer", "--video", str(workdir / "clip.ctf"),
                         "--detections", str(workdir / "det.jsonl"),
                         "--weights", str(workdir / "desk.cwc"),
                         "--config", str(cfg)])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: backbone intermediates: 3154116608 bytes in double "
            "precision, over the 2 GiB limit\n")
        assert priced_bytes(config, "local0.ffn") == 2147614720

    def test_oversized_backbone_exits_3_before_reading(
            self, workdir, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("called before the configuration was priced")

        cfg = tmp_path / "backbone.cfg"
        cfg.write_text(serialize_config(OVERSIZED_BACKBONE))
        monkeypatch.setattr(ctf, "read_tensor", fail)
        monkeypatch.setattr(model, "forward", fail)
        code = cli.main(["infer", "--video", str(workdir / "clip.ctf"),
                         "--detections", str(workdir / "det.jsonl"),
                         "--weights", str(workdir / "desk.cwc"),
                         "--config", str(cfg)])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: backbone intermediates: 4629620736 bytes in double "
            "precision, over the 2 GiB limit\n")

    @pytest.mark.parametrize("constant", ("NaN", "Infinity", "-Infinity"))
    def test_non_finite_detection_constant_exits_2(self, workdir, tmp_path,
                                                   capsys, constant):
        bad = tmp_path / "constant.jsonl"
        bad.write_text('{"frame": 0, "boxes": [[%s, 0, 5, 5]]}\n' % constant)
        code = cli.main(["crop", "--video", str(workdir / "clip.ctf"),
                         "--detections", str(bad),
                         "--out", str(tmp_path / "cropped.ctf")])
        assert code == 2
        assert f"line 1: invalid JSON: {constant} is not a JSON number" \
            in capsys.readouterr().err
        assert not (tmp_path / "cropped.ctf").exists()

    @pytest.mark.parametrize("command", ("crop", "infer"))
    @pytest.mark.parametrize("box", ("[0, 0, 1e400, 1]", "[-1e400, 0, 5, 5]"))
    def test_overflowing_float_corner_exits_2(self, workdir, tmp_path,
                                              capsys, command, box):
        # the literal decodes to +-inf; no box may hold it, clamped or not
        bad = tmp_path / "overflow.jsonl"
        bad.write_text('{"frame": 0, "boxes": [%s]}\n' % box)
        out = tmp_path / "cropped.ctf"
        extra = (["--out", str(out)] if command == "crop"
                 else ["--weights", str(workdir / "desk.cwc")])
        code = cli.main([command, "--video", str(workdir / "clip.ctf"),
                         "--detections", str(bad), *extra])
        assert code == 2
        captured = capsys.readouterr()
        assert "line 1: non-finite box corner" in captured.err
        assert captured.out == ""
        assert not out.exists()

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

    @pytest.mark.parametrize("logits", ([np.nan, 1.0], [np.inf, np.inf]))
    def test_non_finite_logits_from_a_quiet_network_exit_4(
            self, workdir, monkeypatch, capsys, logits):
        # no floating-point error on the way: the label functions refuse
        monkeypatch.setattr(model, "forward",
                            lambda *args, **kwargs: np.array(logits))
        code = cli.main(["infer", "--video", str(workdir / "clip.ctf"),
                         "--detections", str(workdir / "det.jsonl"),
                         "--weights", str(workdir / "desk.cwc")])
        out, err = capsys.readouterr()
        assert code == 4
        assert out == ""
        assert err.startswith("error: non-finite logits")

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

    def test_oversized_probe_clip_exits_3_before_drawing(
            self, tmp_path, monkeypatch, capsys):
        # the f64 probe clip would take 8 x 2**24 x 32 x 3 x 8 bytes, 100 GB
        cfg = tmp_path / "tall.cfg"
        cfg.write_text(serialize_config(desk_preset()).replace(
            "height=32", f"height={16 * 2 ** 20}"))

        def fail(*args, **kwargs):
            raise AssertionError("probe drawn before its size was priced")

        monkeypatch.setattr(np.random, "default_rng", fail)
        code = cli.main(["flops", "--config", str(cfg), "--verify", "on"])
        assert code == 3
        assert "probe clip" in capsys.readouterr().err

    @pytest.mark.parametrize("stage, overrides", OVERSIZED_ATTENTION)
    def test_oversized_attention_exits_3_before_drawing(
            self, tmp_path, monkeypatch, capsys, stage, overrides):
        def fail(*args, **kwargs):
            raise AssertionError("probe drawn before its size was priced")

        monkeypatch.setattr(np.random, "default_rng", fail)
        code = cli.main(["flops", "--config",
                         str(oversized_config(tmp_path, overrides)),
                         "--verify", "on"])
        assert code == 3
        assert f"backbone intermediates: {BACKBONE_BYTES[stage]} bytes" \
            in capsys.readouterr().err
        assert priced_bytes(desk_preset(**overrides), stage) \
            == ATTENTION_BYTES[stage]

    def test_oversized_backbone_exits_3_before_drawing(
            self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("probe drawn before its size was priced")

        cfg = tmp_path / "backbone.cfg"
        cfg.write_text(serialize_config(OVERSIZED_BACKBONE))
        monkeypatch.setattr(np.random, "default_rng", fail)
        code = cli.main(["flops", "--config", str(cfg), "--verify", "on"])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: backbone intermediates: 4629620736 bytes in double "
            "precision, over the 2 GiB limit\n")

    @pytest.mark.parametrize("stage, overrides", OVERSIZED_ATTENTION)
    def test_oversized_attention_still_reported_without_verify(
            self, tmp_path, capsys, stage, overrides):
        code = cli.main(["flops", "--config",
                         str(oversized_config(tmp_path, overrides)),
                         "--verify", "off"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("# flop report v1")
        assert f"\n{stage} " in out
        assert out.endswith("# verification skipped\n")

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

    def test_negative_seed_exits_3(self):
        proc = run_cli("bench", "--attention", "meaa", "--sizes", "8",
                       "--d", "8", "--reps", "5", "--seed", "-1")
        assert proc.returncode == 3
        assert "seed" in proc.stderr
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

    @pytest.mark.parametrize("flag, value", (
        ("--eps", "0"), ("--eps", "nan"), ("--eps", "inf"),
        ("--tol", "nan"), ("--tol", "-1"), ("--modules", ","),
        ("--seed", "-1")))
    def test_out_of_range_flag_exits_3(self, flag, value):
        proc = run_cli("gradcheck", "--instances", "1", flag, value)
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "Warning" not in proc.stderr

    @pytest.mark.parametrize("eps", ("1e160", "1e200", "1e300", "1e307"))
    def test_overflowing_eps_fails_quietly(self, eps):
        # the differences overflow to non-finite values, which fail their
        # groups; no floating-point warning reaches stderr
        proc = run_cli("gradcheck", "--modules", "meaa", "--instances", "1",
                       "--eps", eps)
        assert proc.returncode == 4
        assert ",FAIL" in proc.stdout
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ")


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
