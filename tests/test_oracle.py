import numpy as np
import pytest

from convcnp.autodiff import gaussian_ll
from convcnp.kernels import DATA_KERNELS, EQ, Matern52, gram
from convcnp.oracle import GPOracle, gp_posterior_predict, gp_task_ll
from convcnp.synthdata import ProcessSpec, Task, gp_sample, make_rng, sample_task
from convcnp.training import evaluate, standard_error


class TestPosteriorPredict:
    def test_empty_context_is_prior(self):
        mean, std = gp_posterior_predict(EQ(), [], [], [0.0, 1.0])
        np.testing.assert_array_equal(mean, 0.0)
        np.testing.assert_allclose(std, 1.0)

    def test_interpolates_noiseless_context(self, rng):
        xs = rng.uniform(-2, 2, size=8)
        ys = gp_sample(EQ(), xs, rng=make_rng(1))
        mean, std = gp_posterior_predict(EQ(), xs, ys, xs)
        np.testing.assert_allclose(mean, ys, atol=1e-3)
        assert np.all(std <= 1e-3)

    def test_matches_dense_solve_oracle(self, rng):
        # independent conditioning computation: plain dense solve, no Cholesky
        ctx_x = np.array([-1.0, 0.2, 0.8])
        ctx_y = np.array([0.5, -1.2, 0.3])
        xs = np.linspace(-2, 2, 17)
        kernel = EQ()
        jitter = 1e-6 * np.eye(3)
        k_cc = gram(kernel, ctx_x) + jitter
        k_sc = kernel(xs, ctx_x)
        expected_mean = k_sc @ np.linalg.solve(k_cc, ctx_y)
        expected_var = np.diag(
            gram(kernel, xs) - k_sc @ np.linalg.solve(k_cc, k_sc.T)
        )
        mean, std = gp_posterior_predict(kernel, ctx_x, ctx_y, xs)
        np.testing.assert_allclose(mean, expected_mean, atol=1e-8)
        np.testing.assert_allclose(std**2, np.maximum(expected_var, 0), atol=1e-6)

    def test_variance_clamped_nonnegative(self, rng):
        xs = rng.uniform(-2, 2, size=20)
        ys = gp_sample(Matern52(), xs, rng=make_rng(2))
        _, std = gp_posterior_predict(Matern52(), xs, ys, xs)
        assert np.all(std >= 0)


class TestOracleLL:
    def _prior_task(self, seed):
        xs = np.random.default_rng(seed).uniform(-2, 2, size=10)
        ys = gp_sample(EQ(), xs, rng=make_rng(seed))
        return Task(
            context_x=np.zeros(0), context_y=np.zeros((0, 1)),
            target_x=xs, target_y=ys[:, None],
        )

    def test_empty_context_ll_is_prior_log_density(self):
        tasks = [self._prior_task(s) for s in range(20)]
        mean_ll = evaluate(GPOracle(EQ()), tasks).mean_ll
        expected = np.mean([
            gaussian_ll(t.target_y[:, 0], 0.0, 1.0).mean() for t in tasks
        ])
        assert mean_ll == pytest.approx(expected, abs=1e-9)

    def test_ll_nondecreasing_in_context_size(self):
        # paired: same realization conditioned on nested context sets
        diffs = []
        for seed in range(300):
            rng = np.random.default_rng(seed)
            xs = rng.uniform(-2, 2, size=40)
            ys = gp_sample(EQ(), xs, rng=make_rng(seed))
            tgt_x, tgt_y = xs[30:], ys[30:]
            small = gp_posterior_predict(EQ(), xs[:5], ys[:5], tgt_x)
            large = gp_posterior_predict(EQ(), xs[:30], ys[:30], tgt_x)
            diffs.append(
                gaussian_ll(tgt_y, *large).mean() - gaussian_ll(tgt_y, *small).mean()
            )
        assert np.mean(diffs) > 0

    def test_oracle_exceeds_prior_ll_paired(self):
        tasks = [sample_task(ProcessSpec("eq"), s) for s in range(200)]
        gains = []
        for t in tasks:
            post = gaussian_ll(
                t.target_y[:, 0],
                *gp_posterior_predict(EQ(), t.context_x, t.context_y[:, 0], t.target_x),
            ).mean()
            prior = gaussian_ll(t.target_y[:, 0], 0.0, 1.0).mean()
            gains.append(post - prior)
        assert np.mean(gains) > 0

    def test_deterministic(self):
        tasks = [sample_task(ProcessSpec("eq"), s) for s in range(10)]
        first, second = (evaluate(GPOracle(EQ()), tasks) for _ in range(2))
        np.testing.assert_array_equal(first.per_task_ll, second.per_task_ll)
        assert (first.mean_ll, first.stderr_ll) == (second.mean_ll, second.stderr_ll)

    @pytest.mark.parametrize("kind", sorted(DATA_KERNELS))
    @pytest.mark.parametrize("n_context", [(3, 50), (0, 0)], ids=["context", "empty-context"])
    def test_evaluate_scores_each_task_as_gp_task_ll(self, kind, n_context):
        # one scoring path: evaluate on the oracle gives gp_task_ll, bit for bit
        kernel = DATA_KERNELS[kind]
        tasks = [sample_task(ProcessSpec(kind, n_context=n_context), s) for s in range(12)]
        summary = evaluate(GPOracle(kernel), tasks)
        expected = np.array([gp_task_ll(kernel, t) for t in tasks])
        np.testing.assert_array_equal(summary.per_task_ll, expected)
        assert summary.mean_ll == expected.mean()
        assert summary.stderr_ll == standard_error(expected)

    def test_mean_reproduces_context(self, rng):
        xs = rng.uniform(-2, 2, size=6)
        ys = gp_sample(EQ(), xs, rng=make_rng(3))
        mean, _ = gp_posterior_predict(EQ(), xs, ys, xs)
        np.testing.assert_allclose(mean, ys, atol=1e-4)
