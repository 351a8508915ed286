"""Exact Gaussian-process posterior predictive, used as an evaluation oracle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from .autodiff import gaussian_ll
from .kernels import cholesky_with_jitter, gram

VARIANCE_CLAMP = 1e-12


@dataclass
class GPPosterior:
    """Posterior predictive of a GP conditioned on noiseless context points."""

    kernel: object
    context_x: np.ndarray
    context_y: np.ndarray
    noise_variance: float
    _chol: np.ndarray
    _alpha: np.ndarray

    @classmethod
    def fit(cls, kernel, context_x, context_y, noise_variance: float = 0.0):
        context_x = np.atleast_1d(np.asarray(context_x, float))
        context_y = np.atleast_1d(np.asarray(context_y, float)).reshape(len(context_x))
        if context_x.size == 0:
            return cls(kernel, context_x, context_y, noise_variance,
                       np.zeros((0, 0)), np.zeros(0))
        k_cc = gram(kernel, context_x) + noise_variance * np.eye(len(context_x))
        chol = cholesky_with_jitter(k_cc)
        alpha = cho_solve((chol, True), context_y)
        return cls(kernel, context_x, context_y, noise_variance, chol, alpha)

    def predict(self, xs):
        """Marginal posterior mean and standard deviation at ``xs``.

        With no context this is the prior: mean 0, variance k(x, x).
        Variances are clamped at 1e-12 before the square root.
        """
        xs = np.atleast_1d(np.asarray(xs, float))
        prior_var = np.array([self.kernel(np.atleast_1d(x), np.atleast_1d(x))[0, 0]
                              for x in xs])
        if self.context_x.size == 0:
            return np.zeros(len(xs)), np.sqrt(np.maximum(prior_var, VARIANCE_CLAMP))
        k_sc = self.kernel(xs, self.context_x)
        mean = k_sc @ self._alpha
        v = solve_triangular(self._chol, k_sc.T, lower=True)
        var = prior_var - np.sum(v**2, axis=0) + self.noise_variance
        return mean, np.sqrt(np.maximum(var, VARIANCE_CLAMP))


def gp_posterior_predict(kernel, context_x, context_y, xs, noise_variance=0.0):
    """One-shot posterior predictive at ``xs`` given a noiseless context set."""
    return GPPosterior.fit(kernel, context_x, context_y, noise_variance).predict(xs)


def gp_task_ll(kernel, task) -> float:
    """Mean log density of a task's targets under the exact posterior."""
    mean, std = gp_posterior_predict(
        kernel, task.context_x, task.context_y[:, 0], task.target_x
    )
    return float(gaussian_ll(task.target_y[:, 0], mean, std).mean())


def standard_error(a) -> float:
    """Standard error of the mean of array ``a`` (0 for fewer than two values)."""
    return float(a.std(ddof=1) / np.sqrt(len(a))) if len(a) > 1 else 0.0


def gp_oracle_ll(kernel, tasks):
    """Mean per-task target log density plus its standard error over tasks."""
    lls = np.array([gp_task_ll(kernel, t) for t in tasks])
    return float(lls.mean()), standard_error(lls)
