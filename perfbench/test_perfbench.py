"""Tests of the benchmark itself, on the tiny size of every workload.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

sys.path.insert(0, str(run.SRC))
from spans import SpanRecorder  # noqa: E402  (needs the cuenet sources)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*argv, cwd=run.ROOT, script=None):
    script = script or Path(run.__file__)
    return subprocess.run([sys.executable, str(script), *argv],
                          capture_output=True, text=True, timeout=170,
                          cwd=cwd)


def tiny(workload, trace=0, *extra):
    return bench("--workload", workload, "--seed", "1", "--seconds", "0.3",
                 "--trace", str(trace), "--tiny", *extra)


def result_of(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] \
        == list(workloads.WORKLOADS)
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] \
        == list(run.PER_LAYER)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = tiny(workload, trace)
    assert done.returncode == 0, done.stderr
    result = result_of(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == dict(expected)
    lines = done.stdout.splitlines()
    for name, unit in expected:
        value = result["metrics"][name]["value"]
        assert f"{name} {value} {unit}" in lines
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def perturbed_reference(tmp_path, key, relative):
    reference = json.loads(run.REFERENCE.read_text())
    reference[key][0][0] *= 1 + relative
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    return str(path)


@pytest.mark.parametrize("key,rounding,wrong", (
    ("desk_mixed", 1e-13, 1e-6),
    ("large_frame", 1e-6, 1e-3),
    ("attn_sweep", 1e-13, 1e-6),
))
def test_reference_tolerance_passes_rounding_and_fails_wrong_values(
        tmp_path, key, rounding, wrong):
    near = tiny(key, 0, "--reference",
                perturbed_reference(tmp_path, f"{key}/tiny", rounding))
    assert near.returncode == 0, near.stderr
    far = tiny(key, 0, "--reference",
               perturbed_reference(tmp_path, f"{key}/tiny", wrong))
    assert far.returncode == 1
    assert result_of(far)["correct"] is False
    assert result_of(far)["failed"] >= 1
    assert "reference" in far.stderr


def run_in_process(capsys, *argv):
    code = run.main(["--seed", "1", "--seconds", "0.2", "--tiny", *argv])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_wrong_stage_mac_expectation_fails_the_traced_run(monkeypatch,
                                                          capsys):
    from cuenet import analysis
    count_flops = analysis.count_flops

    def off_by_one(cfg):
        report = count_flops(cfg)
        report.stages["global.dpe"] += 1
        return report

    monkeypatch.setattr(analysis, "count_flops", off_by_one)
    code, result = run_in_process(capsys, "--workload", "desk_mixed",
                                  "--trace", "1")
    assert code == 1 and result["correct"] is False
    assert result["failed"] >= 1


@pytest.mark.parametrize("name", ("attention_macs", "estimate_memory"))
def test_wrong_attention_expectation_fails_every_op(monkeypatch, capsys,
                                                    name):
    from cuenet import analysis
    original = getattr(analysis, name)
    if name == "attention_macs":
        monkeypatch.setattr(analysis, name,
                            lambda *a, **k: original(*a, **k) + 1)
    else:
        def bigger(*a, **k):
            estimate = original(*a, **k)
            estimate.elements += 1
            return estimate
        monkeypatch.setattr(analysis, name, bigger)
    code, result = run_in_process(capsys, "--workload", "attn_sweep")
    assert code == 1 and result["failed"] == result["attempted"] - 1


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "desk_mixed", "--seed", "1", "--seconds",
                 "1", "--trace", "0", cwd=tmp_path,
                 script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert done.stdout == ""


def test_self_time_subtracts_children():
    recorder = SpanRecorder()
    with recorder.span("clip", 0):
        with recorder.span("decode", 0):
            pass
        with recorder.span("network", 0):
            with recorder.span("backbone", 0):
                pass
    own = recorder.self_times_ns()
    clip, decode, network, backbone = recorder.spans
    assert own[decode[0]] == decode[5] - decode[4]
    assert own[network[0]] == (network[5] - network[4]) \
        - (backbone[5] - backbone[4])
    assert own[clip[0]] == (clip[5] - clip[4]) - (decode[5] - decode[4]) \
        - (network[5] - network[4])
    assert [s[1] for s in recorder.spans] == [None, 0, 0, 2]
