"""Attention mechanisms: oracles, invariants, gradients, buffer schedules."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from cuenet import analysis, attention
from cuenet.errors import ConfigError, ShapeError
from cuenet.instrument import (MacCounter, MemoryMeter, counting, meter_alloc,
                               metering)
from cuenet.tensor import LnParams, layer_norm, mean_rows

from util import (assert_close, eaa_oracle, matmul_oracle, meaa_oracle,
                  mhsa_oracle, random_additive_params, random_mhsa_params,
                  softmax_attention_reference)


class TestAttend:
    """The dispatcher runs exactly the kernel its parameter group names."""

    def instance(self, kind, n=5, d=8, seed=150):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, d))
        if kind == attention.ATTENTION_SELF:
            return x, random_mhsa_params(rng, d, 2)
        p = random_additive_params(rng, d,
                                   with_q=kind == attention.ATTENTION_MEAA)
        if kind == attention.ATTENTION_MEAA:
            p.q_ln = LnParams(gamma=rng.standard_normal(d),
                              beta=rng.standard_normal(d))
        return x, p

    @pytest.mark.parametrize("pool", (True, False))
    @pytest.mark.parametrize("kind", attention.ATTENTION_KINDS)
    def test_matches_direct_kernel_call(self, kind, pool):
        # attend's rows, and so the mean of them the global block takes, are
        # the direct kernel call's
        x, p = self.instance(kind)
        got = attention.attend(x, p)
        if kind == attention.ATTENTION_SELF:
            want = attention.mhsa(x, p)
        elif kind == attention.ATTENTION_MEAA:
            q_normed = layer_norm(p.q, p.q_ln.gamma, p.q_ln.beta)
            want = attention.meaa(q_normed, x, p)
        else:
            want = attention.eaa_original(x, p)
        if pool:
            got, want = mean_rows(got), mean_rows(want)
        assert got.shape == ((1, 8) if pool else (5, 8))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("pool", (True, False))
    @pytest.mark.parametrize("kind", attention.ATTENTION_KINDS)
    def test_releases_what_the_kernel_leaves_live(self, kind, pool):
        # a call leaves only its output charged, the unpooled additive rows,
        # and only while the caller holds it: two calls in a row peak at the
        # estimate when the first output is dropped, and at the estimate
        # plus that output's charge when it is kept
        x, p = self.instance(kind)
        estimate = analysis.estimate_memory(kind, 5, 8).elements
        charged = 0 if pool or kind == attention.ATTENTION_SELF else 5 * 8

        def call():
            rows = attention.attend(x, p)
            return mean_rows(rows) if pool else rows

        meter = MemoryMeter()
        with metering(meter):
            for _ in range(2):
                out = call()
                assert meter.live == charged
                del out
        assert meter.live == 0
        assert meter.high_water == estimate
        meter = MemoryMeter()
        with metering(meter):
            first = call()
            second = call()
        assert meter.live == 2 * charged
        assert meter.high_water == estimate + charged
        del first, second
        assert meter.live == 0

    def test_rejects_what_is_not_a_parameter_group(self):
        x, p = self.instance(attention.ATTENTION_EAA)
        for other in (attention.ATTENTION_EAA, vars(p), None):
            with pytest.raises(ConfigError, match="no attention mechanism"):
                attention.attend(x, other)


class TestMeaa:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(100)
        for _ in range(10):
            n = int(rng.integers(1, 9))
            d = int(rng.integers(2, 10))
            params = random_additive_params(rng, d, with_q=True)
            q_normed = rng.standard_normal((1, d))
            x = rng.standard_normal((n, d))
            rows = attention.meaa(q_normed, x, params)
            assert_close(mean_rows(rows), meaa_oracle(q_normed, x, params),
                         rel=1e-12)
            assert_close(rows, meaa_oracle(q_normed, x, params, pooled=False),
                         rel=1e-12)

    def test_hand_value_all_ones_d1(self):
        # d=1, n=1, all parameters and inputs 1: q*=1, alpha=1, gated
        # key=1, hidden=1*1+1+1=3, row=3*1+1=4, mean=4
        ones = np.ones((1, 1))
        params = attention.AdditiveParams(
            wq=ones.copy(), wk=ones.copy(), w_a=np.ones(1), w1=ones.copy(),
            b1=np.ones(1), w2=ones.copy(), b2=np.ones(1))
        out = mean_rows(attention.meaa(ones, ones, params))
        assert out.shape == (1, 1)
        assert out[0, 0] == 4.0

    def test_zero_score_weights_collapse_token_dependence(self):
        # with w_a = 0 the gate is zero, so the output depends only on the
        # query pathway: W2 @ (b1 + q*) + b2, identical for any token set
        rng = np.random.default_rng(101)
        d = 6
        params = random_additive_params(rng, d, with_q=True)
        params.w_a[:] = 0.0
        q_normed = rng.standard_normal((1, d))
        out_a = mean_rows(attention.meaa(q_normed,
                                         rng.standard_normal((5, d)), params))
        out_b = mean_rows(attention.meaa(q_normed,
                                         rng.standard_normal((9, d)), params))
        assert_close(out_a, out_b, rel=1e-15)
        q_star = q_normed @ params.wq
        expected = (params.b1 + q_star) @ params.w2 + params.b2
        assert_close(out_a, expected, rel=1e-12)

    def test_token_permutation_invariance(self):
        rng = np.random.default_rng(102)
        d, n = 8, 7
        params = random_additive_params(rng, d, with_q=True)
        q_normed = rng.standard_normal((1, d))
        x = rng.standard_normal((n, d))
        base = mean_rows(attention.meaa(q_normed, x, params))
        perm = rng.permutation(n)
        shuffled = mean_rows(attention.meaa(q_normed, x[perm], params))
        assert_close(shuffled, base, rel=1e-12)

    def test_single_token_mean_equals_row(self):
        rng = np.random.default_rng(103)
        d = 5
        params = random_additive_params(rng, d, with_q=True)
        q_normed = rng.standard_normal((1, d))
        x = rng.standard_normal((1, d))
        rows = attention.meaa(q_normed, x, params)
        assert np.array_equal(mean_rows(rows), rows)

    def test_gate_scalar_linear_in_score_weights(self):
        rng = np.random.default_rng(104)
        d = 9
        params = random_additive_params(rng, d, with_q=True)
        q_star = rng.standard_normal((1, d))
        alpha = attention.attention_scalar(q_star, params.w_a)
        for factor in (2.0, -3.5, 0.25):
            scaled = attention.attention_scalar(q_star, params.w_a * factor)
            assert abs(scaled - factor * alpha) \
                <= 1e-12 * max(1.0, abs(scaled))

    def test_gate_scalar_value(self):
        q_star = np.array([[1.0, 2.0, 2.0, 0.0]])
        w_a = np.array([1.0, 1.0, -1.0, 5.0])
        assert attention.attention_scalar(q_star, w_a) \
            == (1.0 + 2.0 - 2.0) / 2.0

    def test_empty_tokens_rejected(self):
        params = random_additive_params(np.random.default_rng(0), 3,
                                        with_q=True)
        with pytest.raises(ShapeError):
            attention.meaa(np.zeros((1, 3)), np.zeros((0, 3)), params)

    def test_query_shape_checked(self):
        params = random_additive_params(np.random.default_rng(0), 3,
                                        with_q=True)
        with pytest.raises(ShapeError):
            attention.meaa(np.zeros((1, 4)), np.zeros((2, 3)), params)

    def test_work_count_closed_form(self):
        rng = np.random.default_rng(106)
        for n, d in ((1, 3), (5, 8), (20, 64)):
            params = random_additive_params(rng, d, with_q=True)
            counter = MacCounter()
            with counting(counter):
                mean_rows(attention.meaa(rng.standard_normal((1, d)),
                                         rng.standard_normal((n, d)), params))
            assert counter.total \
                == 3 * n * d * d + n * d + d * d + 3 * d + 1


class TestEaa:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(110)
        for _ in range(10):
            n = int(rng.integers(1, 9))
            d = int(rng.integers(2, 10))
            params = random_additive_params(rng, d, with_q=False)
            x = rng.standard_normal((n, d))
            rows = attention.eaa_original(x, params)
            assert_close(mean_rows(rows), eaa_oracle(x, params), rel=1e-12)
            assert_close(rows, eaa_oracle(x, params, pooled=False),
                         rel=1e-12)

    def test_single_token_degenerates_to_scalar_query_shape(self):
        # with one token the softmax weight is exactly 1, so the matrix
        # query collapses to that token's projected query; the remainder
        # then matches the scalar-query tail with gate forced to one
        rng = np.random.default_rng(111)
        d = 6
        params = random_additive_params(rng, d, with_q=False)
        x = rng.standard_normal((1, d))
        got = mean_rows(attention.eaa_original(x, params))
        want = eaa_oracle(x, params, force_uniform_weights=True)
        assert_close(got, want, rel=1e-12)

    def test_identical_tokens_weight_uniformly(self):
        rng = np.random.default_rng(112)
        d, n = 5, 6
        params = random_additive_params(rng, d, with_q=False)
        row = rng.standard_normal((1, d))
        x = np.repeat(row, n, axis=0)
        got_rows = attention.eaa_original(x, params)
        # all rows identical, and equal to the uniform-weight oracle
        for i in range(1, n):
            assert_close(got_rows[i], got_rows[0], rel=1e-14)
        want = eaa_oracle(x, params, pooled=False,
                          force_uniform_weights=True)
        assert_close(got_rows, want, rel=1e-12)

    def test_work_count_closed_form(self):
        rng = np.random.default_rng(113)
        for n, d in ((1, 3), (5, 8), (20, 64)):
            params = random_additive_params(rng, d, with_q=False)
            counter = MacCounter()
            with counting(counter):
                mean_rows(attention.eaa_original(rng.standard_normal((n, d)),
                                                 params))
            assert counter.total == 4 * n * d * d + 3 * n * d + n + d

    def test_empty_tokens_rejected(self):
        params = random_additive_params(np.random.default_rng(0), 3,
                                        with_q=False)
        with pytest.raises(ShapeError):
            attention.eaa_original(np.zeros((0, 3)), params)


class TestMeaaGrad:
    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(120)
        d, n = 5, 4
        params = random_additive_params(rng, d, with_q=True)
        grads = attention.meaa_grad(rng.standard_normal((1, d)),
                                    rng.standard_normal((n, d)), params,
                                    np.zeros((1, d)))
        for name in ("q", "tokens", "wq", "wk", "w_a", "w1", "b1", "w2",
                     "b2"):
            assert np.all(getattr(grads, name) == 0.0)

    def test_b2_gradient_is_upstream(self):
        rng = np.random.default_rng(121)
        d, n = 6, 3
        params = random_additive_params(rng, d, with_q=True)
        upstream = rng.standard_normal((1, d))
        grads = attention.meaa_grad(rng.standard_normal((1, d)),
                                    rng.standard_normal((n, d)), params,
                                    upstream)
        assert np.array_equal(grads.b2, upstream[0])

    def test_all_groups_match_central_differences(self):
        rng = np.random.default_rng(122)
        eps, tol = 1e-5, 1e-4
        for _ in range(8):
            n = int(rng.integers(1, 6))
            d = int(rng.integers(3, 8))
            params = random_additive_params(rng, d, with_q=True)
            q_normed = rng.standard_normal((1, d))
            x = rng.standard_normal((n, d))
            upstream = rng.standard_normal((1, d))
            grads = attention.meaa_grad(q_normed, x, params, upstream)

            def objective():
                return float((upstream * mean_rows(
                    attention.meaa(q_normed, x, params))).sum())

            targets = [(q_normed, grads.q), (x, grads.tokens),
                       (params.wq, grads.wq), (params.wk, grads.wk),
                       (params.w_a, grads.w_a), (params.w1, grads.w1),
                       (params.b1, grads.b1), (params.w2, grads.w2),
                       (params.b2, grads.b2)]
            for array, analytic in targets:
                numeric = np.zeros_like(array)
                flat = array.reshape(-1)
                num_flat = numeric.reshape(-1)
                for i in range(flat.size):
                    original = flat[i]
                    flat[i] = original + eps
                    high = objective()
                    flat[i] = original - eps
                    low = objective()
                    flat[i] = original
                    num_flat[i] = (high - low) / (2 * eps)
                assert np.allclose(np.asarray(analytic).reshape(
                    numeric.shape), numeric, rtol=tol, atol=tol)

    def test_gradient_respects_linearity_in_upstream(self):
        rng = np.random.default_rng(123)
        d, n = 4, 3
        params = random_additive_params(rng, d, with_q=True)
        q_normed = rng.standard_normal((1, d))
        x = rng.standard_normal((n, d))
        u1 = rng.standard_normal((1, d))
        u2 = rng.standard_normal((1, d))
        g1 = attention.meaa_grad(q_normed, x, params, u1)
        g2 = attention.meaa_grad(q_normed, x, params, u2)
        g_sum = attention.meaa_grad(q_normed, x, params, u1 + u2)
        assert_close(g_sum.wq, g1.wq + g2.wq, rel=1e-12)
        assert_close(g_sum.tokens, g1.tokens + g2.tokens, rel=1e-12)

    @pytest.mark.parametrize("shape, message", (
        ((2, 3, 4), r"must have rank 2, got shape \(2, 3, 4\)"),
        ((0, 4), r"needs at least one token row, got shape \(0, 4\)")),
        ids=("stack", "empty"))
    def test_takes_only_tokens_a_pool_can_mean(self, shape, message):
        # the gradient is of the mean of (n, d) rows, n >= 1
        rng = np.random.default_rng(124)
        params = random_additive_params(rng, 4, with_q=True)
        q_normed, upstream = rng.standard_normal((2, 1, 4))
        with pytest.raises(ShapeError, match=message):
            attention.meaa_grad(q_normed, np.zeros(shape), params, upstream)


class TestMhsa:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(130)
        for heads in (1, 2, 4):
            d, n = 8, 6
            params = random_mhsa_params(rng, d, heads)
            x = rng.standard_normal((n, d))
            assert_close(attention.mhsa(x, params), mhsa_oracle(x, params),
                         rel=1e-12)

    def test_single_token_passes_value_through(self):
        rng = np.random.default_rng(131)
        d = 6
        params = random_mhsa_params(rng, d, 2)
        x = rng.standard_normal((1, d))
        got = attention.mhsa(x, params)
        want = matmul_oracle(matmul_oracle(x, params.wv), params.fuse)
        assert_close(got, want, rel=1e-12)

    def test_identical_tokens_give_identical_rows(self):
        rng = np.random.default_rng(132)
        d, n = 8, 5
        params = random_mhsa_params(rng, d, 2)
        x = np.repeat(rng.standard_normal((1, d)), n, axis=0)
        out = attention.mhsa(x, params)
        for i in range(1, n):
            assert_close(out[i], out[0], rel=1e-14)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(133)
        d, n = 8, 7
        params = random_mhsa_params(rng, d, 4)
        x = rng.standard_normal((n, d))
        perm = rng.permutation(n)
        base = attention.mhsa(x, params)
        shuffled = attention.mhsa(x[perm], params)
        assert_close(shuffled, base[perm], rel=1e-12)

    def test_head_count_must_divide_width(self):
        params = random_mhsa_params(np.random.default_rng(0), 6, 4)
        with pytest.raises(ShapeError):
            attention.mhsa(np.zeros((2, 6)), params)

    def test_work_count_closed_form(self):
        rng = np.random.default_rng(134)
        for heads in (1, 2, 4):
            n, d = 10, 8
            params = random_mhsa_params(rng, d, heads)
            counter = MacCounter()
            with counting(counter):
                attention.mhsa(rng.standard_normal((n, d)), params)
            # head-count independent
            assert counter.total == 4 * n * d * d + n * d + 2 * n * n * d

    def test_pooled_adds_mean_cost(self):
        rng = np.random.default_rng(135)
        n, d = 6, 8
        params = random_mhsa_params(rng, d, 2)
        counter = MacCounter()
        with counting(counter):
            out = mean_rows(attention.attend(rng.standard_normal((n, d)),
                                             params))
        assert out.shape == (1, d)
        assert counter.total == 4 * n * d * d + n * d + 2 * n * n * d + d


class TestFrameStacks:
    """A (t, n, d) stack is t frames that each attend only within
    themselves: the same values and t times the work of t separate calls."""

    KINDS = attention.ATTENTION_KINDS

    def instance(self, kind, t=3, n=17, d=8, seed=160):
        # n = 17 leaves a tail past any 4- or 8-row BLAS blocking
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((t, n, d))
        if kind == attention.ATTENTION_SELF:
            return x, random_mhsa_params(rng, d, 2)
        p = random_additive_params(rng, d,
                                   with_q=kind == attention.ATTENTION_MEAA)
        if kind == attention.ATTENTION_MEAA:
            p.q_ln = LnParams(gamma=rng.standard_normal(d),
                              beta=rng.standard_normal(d))
        return x, p

    @staticmethod
    def mix(tokens, p):
        return attention.attend(tokens, p)

    @pytest.mark.parametrize("kind", KINDS)
    def test_stack_equals_per_frame_calls(self, kind):
        x, p = self.instance(kind)
        got = self.mix(x, p)
        want = np.stack([self.mix(frame, p) for frame in x])
        assert got.shape == x.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_stack_counts_frames_times_frame_work(self, kind):
        x, p = self.instance(kind)
        stacked, single = MacCounter(), MacCounter()
        with counting(stacked):
            self.mix(x, p)
        with counting(single):
            self.mix(x[0], p)
        assert stacked.total == len(x) * single.total

    @pytest.mark.parametrize("kind", KINDS)
    def test_rank_4_tokens_rejected(self, kind):
        x, p = self.instance(kind)
        with pytest.raises(ShapeError, match="rank"):
            self.mix(x[None], p)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("flat", (True, False))
    def test_inputs_left_unchanged(self, kind, flat):
        # on (n, d) tokens, else on a (t, n, d) stack
        x, p = self.instance(kind)
        tokens = x[0] if flat else x
        q_normed = np.random.default_rng(161).standard_normal((1, x.shape[-1]))
        arrays = [tokens, q_normed]
        for field in dataclasses.fields(p):
            value = getattr(p, field.name)
            if isinstance(value, LnParams):
                arrays += [value.gamma, value.beta]
            elif isinstance(value, np.ndarray):
                arrays.append(value)
        before = [a.tobytes() for a in arrays]
        if kind == attention.ATTENTION_MEAA:
            attention.meaa(q_normed, tokens, p)
        elif kind == attention.ATTENTION_EAA:
            attention.eaa_original(tokens, p)
        else:
            self.mix(tokens, p)
        assert [a.tobytes() for a in arrays] == before


class TestScoreBlocks:
    """Scores in blocks of query rows: the untiled kernel's work and bytes,
    at the peak the schedule names."""

    @pytest.mark.parametrize("dtype", (np.float64, np.float32))
    @pytest.mark.parametrize("t", (1, 3))
    @pytest.mark.parametrize("heads", (1, 4))
    @pytest.mark.parametrize("n", (1, 7, 512, 513, 1000, 2048))
    def test_matches_untiled_reference(self, n, heads, t, dtype):
        d = 64
        rng = np.random.default_rng([n, heads, t])
        shape = (n, d) if t == 1 else (t, n, d)
        x = rng.standard_normal(shape).astype(dtype)
        w = [(rng.standard_normal((d, d)) / 8).astype(dtype)
             for _ in range(3)]
        counter, meter = MacCounter(), MemoryMeter()
        with counting(counter), metering(meter):
            got = attention.softmax_attention(x, *w, heads)
        want = softmax_attention_reference(x, *w, heads)
        assert got.shape == shape and got.dtype == dtype
        if n % 2 and attention.score_rows(n) < n:
            # BLAS rounds the last column of an odd-width product in edge
            # kernels that depend on the rows one call holds, so a block's
            # last score may differ from the untiled one in its last bit
            assert_close(got, want, rel=16 * np.finfo(dtype).eps)
        else:
            assert got.tobytes() == want.tobytes()
        # the flat kernel applies no output projection (n*d*d of the count)
        kind = attention.ATTENTION_SELF
        assert counter.total == t * (analysis.attention_macs(
            kind, n, d, pooled=False) - n * d * d)
        # the context stays charged while it is held
        assert meter.live == got.size
        del got
        assert meter.live == 0
        assert meter.high_water == t * analysis.estimate_memory(
            kind, n, d).elements

    @pytest.mark.parametrize("n, rows", (
        (1, 1), (512, 512), (513, 511), (1000, 262), (2048, 128),
        (2 ** 18, 1), (2 ** 20, 1)))
    def test_block_rows(self, n, rows):
        assert attention.score_rows(n) == rows


class TestBufferSchedules:
    def meter_for(self, run):
        meter = MemoryMeter()
        with metering(meter):
            run()
        return meter

    def test_meaa_peak(self):
        rng = np.random.default_rng(140)
        for n, d in ((1, 1), (1, 4), (3, 2), (20, 64), (100, 16)):
            params = random_additive_params(rng, d, with_q=True)
            meter = self.meter_for(
                lambda: attention.meaa(rng.standard_normal((1, d)),
                                       rng.standard_normal((n, d)), params))
            assert meter.high_water == 2 * n * d + 2 * d

    def test_eaa_peak(self):
        rng = np.random.default_rng(141)
        for n, d in ((1, 1), (1, 4), (3, 2), (20, 64), (100, 16)):
            params = random_additive_params(rng, d, with_q=False)
            meter = self.meter_for(
                lambda: attention.eaa_original(rng.standard_normal((n, d)),
                                               params))
            assert meter.high_water == 3 * n * d + n + d

    def test_self_attention_peak(self):
        rng = np.random.default_rng(142)
        for n, d in ((1, 1), (2, 4), (16, 8), (64, 8), (20, 64)):
            wq, wk, wv = (rng.standard_normal((d, d)) for _ in range(3))
            meter = self.meter_for(
                lambda: attention.softmax_attention(
                    rng.standard_normal((n, d)), wq, wk, wv, 1))
            assert meter.high_water == 4 * n * d + n * n

    def test_additive_step_schedules(self):
        # live elements after each charge on a (t, n, d) stack, per frame:
        # the kernel's query path, then the tail's keys, gated keys, hidden
        # rows and output rows; both kernels first peak at the gated keys
        class StepMeter(MemoryMeter):
            def __init__(self):
                super().__init__()
                self.steps = []

            def alloc(self, array):
                super().alloc(array)
                self.steps.append(self.live)

        t, n, d = 3, 5, 4
        nd = n * d
        rng = np.random.default_rng(146)
        x = rng.standard_normal((t, n, d))
        q_normed = rng.standard_normal((1, d))
        pm = random_additive_params(rng, d, with_q=True)
        pe = random_additive_params(rng, d, with_q=False)
        schedules = (
            (attention.ATTENTION_MEAA, lambda: attention.meaa(q_normed, x, pm),
             [d, d + 1, 2 * d + 1, nd + 2 * d, 2 * nd + 2 * d,
              2 * nd + 2 * d, 2 * nd + 2 * d]),
            (attention.ATTENTION_EAA, lambda: attention.eaa_original(x, pe),
             [nd, nd + n, nd + n + d, 2 * nd + n + d, 3 * nd + n + d,
              3 * nd + n + d, 3 * nd + n + d]))
        for kind, run, per_frame in schedules:
            meter = StepMeter()
            with metering(meter):
                rows = run()
            assert meter.steps == [t * live for live in per_frame]
            peak = t * analysis.estimate_memory(kind, n, d).elements
            assert meter.steps.index(peak) == 4
            assert meter.high_water == peak
            assert meter.live == t * nd
            del rows
            assert meter.live == 0

    @pytest.mark.parametrize("shape, heads, peak", (
        ((3, 5, 8), 4, 555), ((1, 400, 64), 4, 262_400)))
    def test_multi_head_stack_peak(self, shape, heads, peak):
        # context beside q, k, v and one head's scores: 4*t*n*d + t*n*n
        t, n, d = shape
        assert peak == 4 * t * n * d + t * n * n
        rng = np.random.default_rng(145)
        wq, wk, wv = (rng.standard_normal((d, d)) for _ in range(3))
        meter = self.meter_for(
            lambda: attention.softmax_attention(
                rng.standard_normal(shape), wq, wk, wv, heads))
        assert meter.high_water == peak

    @pytest.mark.parametrize("pool, shape", (
        (True, (5, 8)), (False, (5, 8)), (False, (3, 5, 8))),
        ids=("pooled", "rows", "stack"))
    @pytest.mark.parametrize("kind", attention.ATTENTION_KINDS)
    def test_every_call_ends_with_nothing_live(self, kind, pool, shape):
        # a direct kernel call and attend peak at t frames of the schedule,
        # with one head or two, and hold nothing once the output is dropped
        rng = np.random.default_rng(143)
        x = rng.standard_normal(shape)
        *frames, n, d = shape

        def finish(rows):
            return mean_rows(rows) if pool else rows

        calls = []
        if kind == attention.ATTENTION_SELF:
            for heads in (1, 2):
                p = random_mhsa_params(rng, d, heads)
                calls.append((p, lambda p=p: attention.softmax_attention(
                    x, p.wq, p.wk, p.wv, p.heads)))
        elif kind == attention.ATTENTION_MEAA:
            p = random_additive_params(rng, d, with_q=True)
            p.q_ln = LnParams(gamma=np.ones(d), beta=np.zeros(d))
            q_normed = layer_norm(p.q, p.q_ln.gamma, p.q_ln.beta)
            calls.append((p, lambda: finish(attention.meaa(q_normed, x, p))))
        else:
            p = random_additive_params(rng, d, with_q=False)
            calls.append((p, lambda: finish(attention.eaa_original(x, p))))
        peak = int(np.prod(frames)) * analysis.estimate_memory(
            kind, n, d).elements
        for p, direct in calls:
            for run in (direct, lambda p=p: finish(attention.attend(x, p))):
                meter = self.meter_for(run)
                assert meter.live == 0
                assert meter.high_water == peak

    @pytest.mark.parametrize("kind, n, bound", (
        (attention.ATTENTION_SELF, 400, 1.05),
        (attention.ATTENTION_SELF, 2048, 1.05),
        (attention.ATTENTION_MEAA, 16384, 1.05),
        (attention.ATTENTION_EAA, 16384, 1.05)))
    def test_measured_peak_tracks_schedule(self, kind, n, bound):
        # pooled f64 call at d=64: the bytes held at once, measured, stay
        # near the peak the schedule names; the second call is measured
        d = 64
        rng = np.random.default_rng(144)
        x = rng.standard_normal((n, d))
        if kind == attention.ATTENTION_SELF:
            wq, wk, wv = (rng.standard_normal((d, d)) / 8 for _ in range(3))
            run = lambda: attention.softmax_attention(x, wq, wk, wv, 1)
        elif kind == attention.ATTENTION_MEAA:
            p = random_additive_params(rng, d, with_q=True)
            q_normed = rng.standard_normal((1, d))
            run = lambda: mean_rows(attention.meaa(q_normed, x, p))
        else:
            p = random_additive_params(rng, d, with_q=False)
            run = lambda: mean_rows(attention.eaa_original(x, p))
        self.meter_for(run)
        tracemalloc.start()
        try:
            self.meter_for(run)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * analysis.estimate_memory(kind, n,
                                                         d).elements * 8

    def test_charge_lasts_as_long_as_its_array(self):
        # a view keeps its base, and so the charge, alive; a charged view
        # stays charged while any view of its base lives; the charge ends
        # at the last reference
        meter = MemoryMeter()
        with metering(meter):
            owner = np.zeros((4, 3))
            meter_alloc(owner)
            view = np.ones(6).reshape(2, 3)
            meter_alloc(view)
        meter_alloc(np.zeros(5))
        assert (meter.live, meter.high_water) == (18, 18)
        row = owner[1]
        del owner
        assert meter.live == 18
        del row
        assert meter.live == 6
        column = view[:, 0]
        del view
        assert meter.live == 6
        del column
        assert (meter.live, meter.high_water) == (0, 18)
