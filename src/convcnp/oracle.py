"""Exact Gaussian-process posterior predictive, used as an evaluation oracle."""

from __future__ import annotations

import numpy as np

from .autodiff import constant
from .kernels import cholesky_with_jitter, gram
from .models import Predictive, _offsets, task_log_likelihood

VARIANCE_CLAMP = 1e-12


def gp_posterior_predict(kernel, context_x, context_y, xs):
    """Marginal posterior mean and standard deviation at ``xs``.

    The GP is conditioned on a noiseless context set.  With no context this
    is the prior: mean 0, variance k(x, x).  Variances are clamped at 1e-12
    before the square root.
    """
    context_x = np.atleast_1d(np.asarray(context_x, float))
    context_y = np.atleast_1d(np.asarray(context_y, float)).reshape(len(context_x))
    xs = np.atleast_1d(np.asarray(xs, float))
    prior_var = np.diag(kernel(xs, xs))
    if context_x.size == 0:
        return np.zeros(len(xs)), np.sqrt(np.maximum(prior_var, VARIANCE_CLAMP))
    chol = cholesky_with_jitter(gram(kernel, context_x))
    k_sc = kernel(xs, context_x)
    # With K = L L^T: mean = (L^-1 k_sc^T)^T L^-1 y and var = prior - |L^-1 k_sc^T|^2
    solved = np.linalg.solve(chol, np.column_stack([context_y, k_sc.T]))
    v = solved[:, 1:]
    mean = v.T @ solved[:, 0]
    var = prior_var - np.sum(v**2, axis=0)
    return mean, np.sqrt(np.maximum(var, VARIANCE_CLAMP))


def gp_task_ll(kernel, task) -> float:
    """Mean log density of a task's targets under the exact posterior."""
    return task_log_likelihood(GPOracle(kernel).forward_many([task]), 0, task.target_y)


class GPOracle:
    """The exact GP posterior as a model, scored by ``training.evaluate`` like any other."""

    def __init__(self, kernel):
        self.kernel = kernel

    def forward_many(self, tasks) -> Predictive:
        """One constant prediction for the batch, (1, sum M)."""
        means, stds = zip(*(
            gp_posterior_predict(self.kernel, t.context_x, t.context_y[:, 0], t.target_x)
            for t in tasks
        ))
        return Predictive(constant(np.concatenate(means)[None]),
                          constant(np.concatenate(stds)[None]), _offsets(map(len, means)))
