"""Stationary kernels for data generation and for the smoothing layers.

The data-generation kernels are frozen at their published constants (EQ
length scale 0.25, Matern distance rescaling d = 4|x - x'|, weakly
periodic feature frequencies 8*pi).  The model-side smoothing kernels are
separate EQ instances with a trainable log length scale.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad


class EQ:
    """Exponentiated-quadratic kernel exp(-0.5 ((x-x')/l)^2), length scale l = 0.25."""

    def __call__(self, x, x2):
        d = np.subtract.outer(np.asarray(x, float), np.asarray(x2, float))
        return np.exp(-0.5 * (d / 0.25) ** 2)


class Matern52:
    """Matern-5/2 with the rescaled distance d = 4 * |x - x'|.

    (1 + sqrt(5)*d + (5/3)*d^2) exp(-sqrt(5)*d); the factor 4 is a length
    scale of 0.25.  The factor 4 belongs in the distance: written instead as
    a 4*sqrt(5)*d linear coefficient, the expression is not positive definite.
    """

    def __call__(self, x, x2):
        d = 4.0 * np.abs(
            np.subtract.outer(np.asarray(x, float), np.asarray(x2, float))
        )
        return (1.0 + np.sqrt(5.0) * d + (5.0 / 3.0) * d**2) * np.exp(
            -np.sqrt(5.0) * d
        )


class WeaklyPeriodic:
    """Periodic-feature EQ kernel with a wide EQ envelope."""

    def __call__(self, x, x2):
        x = np.asarray(x, float)
        x2 = np.asarray(x2, float)
        f1 = np.subtract.outer(np.cos(8 * np.pi * x), np.cos(8 * np.pi * x2))
        f2 = np.subtract.outer(np.sin(8 * np.pi * x), np.sin(8 * np.pi * x2))
        d = np.subtract.outer(x, x2)
        return np.exp(-0.5 * f1**2 - 0.5 * f2**2) * np.exp(-0.125 * d**2)


DATA_KERNELS = {
    "eq": EQ(),
    "matern": Matern52(),
    "weakly-periodic": WeaklyPeriodic(),
}


def gram(spec, xs) -> np.ndarray:
    """Symmetric Gram matrix of pairwise kernel values."""
    xs = np.asarray(xs, float)
    g = spec(xs, xs)
    return 0.5 * (g + g.T)


JITTER_SCALE = 1e-6
JITTER_RETRIES = 3


def cholesky_with_jitter(matrix):
    """Lower-triangular Cholesky of matrix + jitter*I, escalating jitter x10.

    Base jitter is JITTER_SCALE * mean(diagonal), or JITTER_SCALE itself when
    that mean is not positive; it grows JITTER_RETRIES times.
    """
    matrix = np.asarray(matrix, float)
    mean_diagonal = float(np.mean(np.diag(matrix))) if matrix.size else 0.0
    jitter = JITTER_SCALE * mean_diagonal if mean_diagonal > 0 else JITTER_SCALE
    for attempt in range(JITTER_RETRIES + 1):
        try:
            return np.linalg.cholesky(matrix + jitter * np.eye(len(matrix)))
        except np.linalg.LinAlgError:
            if attempt == JITTER_RETRIES:
                raise np.linalg.LinAlgError(
                    f"Cholesky failed after {JITTER_RETRIES} jitter escalations "
                    f"(largest jitter tried {jitter:.1e})"
                ) from None
            jitter *= 10.0


def init_log_length_scale(gamma: float) -> float:
    """Initial log length scale: twice the grid spacing 1/gamma."""
    return float(np.log(2.0 / gamma))


# exp underflows to exactly 0.0 below -745.13, so exp(-0.5 (d / l)^2) is 0.0
# wherever d is beyond UNDERFLOW_REACH length scales (an exponent below -746)
UNDERFLOW_REACH = np.sqrt(2.0 * 746.0)


def learnable_psi_eval(log_length_scale, grid, xs, grid_axis: int):
    """EQ weights exp(-0.5 (d / l)^2), l = exp(log_length_scale), between a uniform
    grid's points and the inputs ``xs``: (T, M) if ``grid_axis`` is 0, else (M, T).

    Returns the weights and their vjp: a function from a gradient of the weights
    to the gradient of the log length scale.

    exp is taken only on each input's window of grid points: those within
    UNDERFLOW_REACH length scales, found by index arithmetic, with one point of
    slack each side.  The other entries stay 0, as exp gives.  A window over 3/4
    of the grid evaluates every entry.  The stage nodes ``embedding.encode``
    (``grid_axis`` 1) and ``models.decode`` (0) call this, and errors name them.
    """
    xs = np.atleast_1d(np.asarray(xs, float))
    inv_l2 = np.exp(log_length_scale * -2.0)  # 1 / l^2
    reach = np.ceil(UNDERFLOW_REACH * np.exp(log_length_scale) / grid.spacing) + 1.0
    index = None  # flat positions of the evaluated entries; None when all are
    if 2.0 * reach + 1.0 <= 0.75 * grid.n_points:
        steps = np.arange(int(2.0 * reach + 1.0))
        start = np.floor((xs - grid.lower) / grid.spacing) - reach
        start = np.fmin(np.fmax(start, 0.0), grid.n_points - steps.size).astype(int)
        cols, rows = start[:, None] + steps, np.arange(xs.size)[:, None]  # (M, window)
        index = cols * xs.size + rows if grid_axis == 0 else rows * grid.n_points + cols
        d = grid.points[cols] - xs[:, None]
    else:  # every entry, laid out as the result
        d = np.subtract.outer(*((grid.points, xs) if grid_axis == 0 else (xs, grid.points)))
    d2 = d**2
    exponent = d2 * (inv_l2 * -0.5)
    if not np.isfinite(exponent).all():
        stage, prefix = ("decode", "readout") if grid_axis == 0 else ("encode", "encoder")
        raise ad.DiffError(f"op '{stage}': {prefix}.log_length_scale {log_length_scale:g} "
                           "overflows 1 / l^2")
    psi = values = np.exp(exponent)
    if index is not None:
        psi = np.zeros((grid.n_points, xs.size) if grid_axis == 0 else (xs.size, grid.n_points))
        psi.ravel()[index.ravel()] = values.ravel()  # a view: psi is contiguous

    def vjp(g):
        g = g if index is None else g.take(index)
        return ((np.sum(g * values * d2) * -0.5) * inv_l2) * -2.0

    return psi, vjp
