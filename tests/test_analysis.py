"""Cost accounting: work model, memory peaks, timing, gradient checker."""

import numpy as np
import pytest

from cuenet import analysis, attention
from cuenet.attention import ATTENTION_EAA, ATTENTION_KINDS, ATTENTION_MEAA, \
    ATTENTION_SELF
from cuenet.config import desk_preset, paper_preset
from cuenet.errors import ConfigError, ParamError, VerificationError
from cuenet.instrument import MemoryMeter, metering
from cuenet.weights import INIT_SIZE_LIMIT


class TestAttentionMacs:
    def test_formula_spot_values(self):
        # n=2, d=3 by hand from the per-product counts
        assert analysis.attention_macs(ATTENTION_MEAA, 2, 3, pooled=False) \
            == 3 * 2 * 9 + 2 * 3 + 9 + 6 + 1
        assert analysis.attention_macs(ATTENTION_EAA, 2, 3, pooled=False) \
            == 4 * 2 * 9 + 3 * 2 * 3 + 2
        assert analysis.attention_macs(ATTENTION_SELF, 2, 3, pooled=False) \
            == 4 * 2 * 9 + 2 * 3 + 2 * 4 * 3

    def test_pooling_adds_width(self):
        for kind in ATTENTION_KINDS:
            base = analysis.attention_macs(kind, 5, 8, pooled=False)
            assert analysis.attention_macs(kind, 5, 8, pooled=True) \
                == base + 8

    def test_modified_kind_is_affine_in_token_count(self):
        d = 64
        counts = {n: analysis.attention_macs(ATTENTION_MEAA, n, d)
                  for n in (1, 2, 7)}
        slope = counts[2] - counts[1]
        assert slope == 3 * d * d + d
        assert counts[7] == counts[1] + 6 * slope
        intercept = counts[1] - slope
        assert intercept == d * d + 3 * d + 1  # pooled adds d to the 2d term

    def test_self_kind_is_quadratic_in_token_count(self):
        d = 16
        def quad_part(n):
            return analysis.attention_macs(ATTENTION_SELF, n, d,
                                           pooled=False) \
                - 4 * n * d * d - n * d
        assert quad_part(10) == 2 * 100 * d
        assert quad_part(20) == 4 * quad_part(10)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown attention kind"):
            analysis.attention_macs("windowed", 2, 2)


class TestCountFlops:
    def test_desk_stage_anchors(self):
        report = analysis.count_flops(desk_preset())
        assert report.stages["backbone"] == 4718592
        assert report.stages["local0.lt"] == 166912
        assert report.stages["local0.attn"] == 341760
        assert report.stages["local0.ffn"] == 655360
        assert report.stages["global.dpe"] == 27648
        assert report.stages["global.attn"] == 251329
        assert report.stages["global.ffn"] == 32768
        assert report.stages["fusion"] == 320
        assert report.total == 7358721

    def test_global_kind_ordering_at_desk_scale(self):
        base = desk_preset()
        totals = {kind: analysis.count_flops(
            base.with_attention(kind)).total for kind in ATTENTION_KINDS}
        assert totals[ATTENTION_MEAA] < totals[ATTENTION_EAA] \
            < totals[ATTENTION_SELF]

    def test_everywhere_ordering_at_desk_scale(self):
        base = desk_preset()
        meaa = analysis.count_flops(
            base.with_attention(ATTENTION_MEAA, "everywhere")).total
        default = analysis.count_flops(base).total
        full_self = analysis.count_flops(
            base.with_attention(ATTENTION_SELF, "everywhere")).total
        assert meaa == 7203081
        assert default == 7358721
        assert full_self == 7487616
        assert meaa < default < full_self

    def test_stage_set_follows_depth(self):
        report = analysis.count_flops(desk_preset(
            local_depth=0, local_attention=()))
        assert set(report.stages) == {"backbone", "global.dpe",
                                      "global.attn", "global.ffn", "fusion"}

    def test_paper_scale_report_is_finite_and_large(self):
        report = analysis.count_flops(paper_preset())
        assert report.total > 10 ** 11
        assert all(v >= 0 for v in report.stages.values())

    def test_desk_peaks(self):
        # the input; the backbone's (8 + 2) frames of 2x2 patch rows of
        # 16*16*3 values, its 8x2x2x64 output and one tap product; per
        # attention stage t * estimate_memory: 4 frames of 5 tokens, d=64;
        # per FFN stage its GELU output, 256 wide for each token row
        report = analysis.count_flops(desk_preset())
        local = 4 * analysis.estimate_memory(ATTENTION_SELF, 5, 64).elements
        assert local == 4 * 4 * 5 * 64 + 4 * 5 * 5
        assert 10 * 4 * 768 + 2 * 8 * 4 * 64 == 34816
        assert list(report.peaks.items()) == [
            ("input", 8 * 32 * 32 * 3), ("backbone", 34816),
            ("local0.attn", local),
            ("local0.ffn", 4 * 5 * 256), ("local1.attn", local),
            ("local1.ffn", 4 * 5 * 256),
            ("global.attn", analysis.estimate_memory(ATTENTION_MEAA, 20,
                                                     64).elements),
            ("global.ffn", 256)]

    def test_check_peaks_names_the_stage(self):
        report = analysis.count_flops(desk_preset().with_attention(
            ATTENTION_SELF, "global"))
        report.check_peaks("probe clip", "double")
        report.peaks["global.attn"] = (2 << 30) // 8 + 1
        with pytest.raises(ConfigError, match="^global.attn intermediates: "
                           "2147483656 bytes in double "
                           "precision, over the 2 GiB limit$"):
            report.check_peaks("probe clip", "double")
        report.check_peaks("probe clip", "single")
        report.peaks["input"] = (2 << 30) // 4 + 1
        with pytest.raises(ConfigError, match="^probe clip: 2147483652 "):
            report.check_peaks("probe clip", "single")

    def test_format_layout(self):
        text = analysis.count_flops(desk_preset()).format()
        lines = text.splitlines()
        assert lines[0] == "# flop report v1"
        assert lines[1].startswith("# convention: one fused multiply-add")
        assert any(line.startswith("# config: frames=8") for line in lines)
        assert lines[-1].split() == ["total", "7358721"]


class TestVerifyFlops:
    @pytest.mark.parametrize("kind", ATTENTION_KINDS)
    def test_global_kinds_match_instrumented_run(self, kind):
        verification = analysis.verify_flops(desk_preset().with_attention(
            kind))
        assert verification.ok, verification.mismatches

    @pytest.mark.parametrize("kind", ATTENTION_KINDS)
    def test_local_kinds_match_instrumented_run(self, kind):
        verification = analysis.verify_flops(desk_preset().with_attention(
            kind, "local"))
        assert verification.ok, verification.mismatches

    def test_additive_local_blocks_match(self):
        cfg = desk_preset().with_attention(ATTENTION_MEAA, "everywhere")
        assert analysis.verify_flops(cfg).ok

    def test_zero_depth_matches(self):
        cfg = desk_preset(local_depth=0, local_attention=())
        assert analysis.verify_flops(cfg).ok

    def test_require_flops_match_passes_and_returns(self):
        verification = analysis.require_flops_match(desk_preset())
        assert verification.ok

    def test_analytic_drift_is_reported(self, monkeypatch):
        # corrupt the analytic model; verification must name the stage
        original = analysis.count_flops

        def skewed(cfg):
            report = original(cfg)
            report.stages["fusion"] += 1
            return report

        monkeypatch.setattr(analysis, "count_flops", skewed)
        verification = analysis.verify_flops(desk_preset())
        assert not verification.ok
        assert any("fusion" in m for m in verification.mismatches)
        with pytest.raises(VerificationError, match="fusion"):
            analysis.require_flops_match(desk_preset())


class TestMemoryEstimate:
    def test_closed_forms(self):
        assert analysis.estimate_memory(ATTENTION_MEAA, 20, 64).elements \
            == 2 * 20 * 64 + 2 * 64
        assert analysis.estimate_memory(ATTENTION_EAA, 20, 64).elements \
            == 3 * 20 * 64 + 20 + 64
        assert analysis.estimate_memory(ATTENTION_SELF, 20, 64).elements \
            == 4 * 20 * 64 + 20 * 20

    def test_modified_kind_beats_original_for_multiple_tokens(self):
        for d in (4, 16, 64):
            for n in range(2, 40):
                meaa = analysis.estimate_memory(ATTENTION_MEAA, n, d)
                eaa = analysis.estimate_memory(ATTENTION_EAA, n, d)
                assert meaa.elements < eaa.elements
                assert eaa.elements - meaa.elements == n * d + n - d

    def test_self_kind_quadratic_term(self):
        d = 64
        def quadratic(n):
            return analysis.estimate_memory(ATTENTION_SELF, n, d).elements \
                - 4 * n * d
        # up to 512 tokens past q, k, v and the context the rest is one
        # score matrix: doubling n quadruples it
        assert quadratic(512) == 4 * quadratic(256)
        # above, one block of 2**18 // n score rows: 4*n*d + 2**18 for n
        # dividing 2**18, so doubling n doubles it
        for n in (1024, 4096, 8192):
            assert analysis.estimate_memory(ATTENTION_SELF, n, d).elements \
                == 4 * n * d + 2 ** 18

    @pytest.mark.parametrize("kind", ATTENTION_KINDS)
    def test_instrumented_peaks_match_estimates(self, kind):
        for n, d in ((1, 1), (1, 5), (2, 3), (7, 16), (20, 64), (64, 32)):
            estimate = analysis.estimate_memory(kind, n, d).elements
            measured = analysis.measured_attention_elements(kind, n, d)
            assert measured == estimate, (kind, n, d)

    @pytest.mark.parametrize("kind", ATTENTION_KINDS)
    def test_instrumented_peaks_match_estimates_across_blocks(self, kind):
        # self-attention's scores go from one block to two past n = 512
        for n in (511, 512, 513, 600):
            assert analysis.measured_attention_elements(kind, n, 8) \
                == analysis.estimate_memory(kind, n, 8).elements, (kind, n)

    def test_multi_head_self_attention_holds_its_context(self):
        # the context is charged where it is allocated, beside q, k and v,
        # so one head or many peak at the one estimate, over one block of
        # scores or several
        rng = np.random.default_rng(146)
        t, d = 2, 64
        w = rng.standard_normal((3, d, d)) / 8
        for n in (1, 5, 400, 512, 513, 2048):
            x = rng.standard_normal((t, n, d))
            for heads in (1, 2, 4):
                meter = MemoryMeter()
                with metering(meter):
                    attention.softmax_attention(x, *w, heads)
                assert meter.high_water == t * analysis.estimate_memory(
                    ATTENTION_SELF, n, d).elements, (n, heads)

    def test_invalid_arguments(self):
        with pytest.raises(ParamError):
            analysis.estimate_memory(ATTENTION_MEAA, 0, 4)
        with pytest.raises(ConfigError, match="unknown attention kind"):
            analysis.estimate_memory("windowed", 4, 4)


class TestBench:
    def test_small_sweep_shape_and_determinism(self):
        results = analysis.bench_attention(ATTENTION_MEAA, (4, 8), d=8,
                                           reps=5)
        assert [r.n for r in results] == [4, 8]
        assert all(r.median_ns > 0 for r in results)
        again = analysis.bench_attention(ATTENTION_MEAA, (4, 8), d=8,
                                         reps=5)
        assert [r.checksum for r in results] == [r.checksum for r in again]

    def test_checksum_tracks_seed(self):
        a = analysis.bench_attention(ATTENTION_SELF, (8,), d=8, reps=5,
                                     seed=0)
        b = analysis.bench_attention(ATTENTION_SELF, (8,), d=8, reps=5,
                                     seed=1)
        assert a[0].checksum != b[0].checksum

    def test_too_few_reps(self):
        with pytest.raises(ParamError, match="5"):
            analysis.bench_attention(ATTENTION_MEAA, (4,), d=8, reps=4)

    def test_empty_or_bad_sizes(self):
        with pytest.raises(ParamError):
            analysis.bench_attention(ATTENTION_MEAA, (), d=8)
        with pytest.raises(ParamError):
            analysis.bench_attention(ATTENTION_MEAA, (0,), d=8)

    def test_size_over_memory_limit_refused_before_inputs(self,
                                                          monkeypatch):
        def no_inputs(*args):
            raise AssertionError("inputs drawn for a refused size")
        monkeypatch.setattr(analysis, "_attention_instance", no_inputs)
        # n = 2**20 scores one row at a time: 4*n*64 + n intermediates and
        # n*64 + 3*64*64 instance elements, 336.6 M, 2.7 GB of f64
        with pytest.raises(ConfigError, match="^self_attention at "
                           "n=1048576: 2692841472 bytes in double "
                           "precision, over the 2 GiB limit$"):
            analysis.bench_attention(ATTENTION_SELF, (2 ** 20,), d=64)
        # the sweep holds every size's instance at once: n=8 adds its
        # 8*64 inputs and 3*64*64 parameters, 102,400 bytes
        with pytest.raises(ConfigError, match="^self_attention at "
                           "n=1048576: 2692943872 bytes in double "
                           "precision, over the 2 GiB limit$"):
            analysis.bench_attention(ATTENTION_SELF, (8, 2 ** 20), d=64)
        assert analysis.estimate_memory(ATTENTION_SELF, 2 ** 19, 64).elements \
            * 8 <= INIT_SIZE_LIMIT
        assert analysis.estimate_memory(ATTENTION_SELF, 8192, 64).elements \
            * 8 <= INIT_SIZE_LIMIT
        assert analysis.estimate_memory(ATTENTION_MEAA, 32768, 64).elements \
            * 8 <= INIT_SIZE_LIMIT

    def test_instance_over_memory_limit_refused_before_inputs(self,
                                                              monkeypatch):
        def no_inputs(*args):
            raise AssertionError("inputs drawn for a refused size")
        monkeypatch.setattr(analysis, "_attention_instance", no_inputs)
        # 65,536 intermediate elements, but x and four 16384x16384 maps
        # are 8.6 GB of f64, and three such maps 6.4 GB
        assert analysis.estimate_memory(ATTENTION_MEAA, 1, 16384).elements \
            * 8 <= INIT_SIZE_LIMIT
        with pytest.raises(ConfigError, match="limit"):
            analysis.bench_attention(ATTENTION_MEAA, (1,), d=16384)
        with pytest.raises(ConfigError, match="limit"):
            analysis.bench_attention(ATTENTION_SELF, (1,), d=16384)

    def test_csv_round_trip(self):
        results = analysis.bench_attention(ATTENTION_EAA, (4,), d=8, reps=5)
        text = analysis.format_bench_csv(results)
        assert text.splitlines()[0] == analysis.BENCH_CSV_HEADER
        back = analysis.parse_bench_csv(text)
        assert back[0].kind == ATTENTION_EAA
        assert back[0].n == 4
        assert back[0].median_ns == results[0].median_ns
        assert back[0].checksum == results[0].checksum

    def test_parse_rejects_foreign_text(self):
        with pytest.raises(ParamError):
            analysis.parse_bench_csv("time,value\n1,2\n")


class TestLinearFit:
    def test_exact_line(self):
        xs = [1, 2, 3, 4]
        ys = [3 * x + 2 for x in xs]
        slope, intercept, r2 = analysis.linear_fit_r2(xs, ys)
        assert abs(slope - 3.0) < 1e-9
        assert abs(intercept - 2.0) < 1e-9
        assert r2 == 1.0

    def test_noise_lowers_r2(self):
        xs = np.arange(10.0)
        rng = np.random.default_rng(0)
        ys = 2 * xs + 50 * rng.standard_normal(10)
        _, _, r2 = analysis.linear_fit_r2(xs, ys)
        assert r2 < 0.9

    def test_constant_target(self):
        _, _, r2 = analysis.linear_fit_r2([1, 2, 3], [5, 5, 5])
        assert r2 == 1.0


class TestGradCheck:
    def test_default_suite_passes(self):
        report = analysis.grad_check(instances=4, seed=1)
        assert report.ok
        modules = {row.module for row in report.rows}
        assert modules == {"meaa", "fuse", "classify"}
        groups = {row.group for row in report.rows if row.module == "meaa"}
        assert groups == {"q", "wq", "wk", "w_a", "w1", "b1", "w2", "b2"}
        for row in report.rows:
            assert row.instances == 4
            assert row.max_rel_err < 1e-4

    def test_fuse_is_tight(self):
        report = analysis.grad_check(modules=("fuse",), tol=1e-6,
                                     instances=6)
        assert report.ok

    def test_unknown_module(self):
        with pytest.raises(ParamError):
            analysis.grad_check(modules=("conv",))

    def test_report_format(self):
        text = analysis.grad_check(modules=("classify",),
                                   instances=2).format()
        lines = text.splitlines()
        assert lines[0] == "# gradient check v1"
        assert lines[1].startswith("module,group,")
        assert any(line.startswith("classify,proj,2,") for line in lines)
        assert all(line.endswith(",ok") for line in lines[2:])
