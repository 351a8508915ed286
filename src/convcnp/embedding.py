"""Set-to-function embedding on a uniform grid.

A context set is smoothed onto an anchored uniform grid through a
learnable EQ kernel.  Each point contributes phi(y) = [1, y]: the constant
feature makes a density channel recording how much observation mass lands
near each grid point, and the rest carry the data.  Dividing the signal
channels by the density channel (normalized convolution) decouples signal
scale from sampling density.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .kernels import learnable_psi_eval

DENSITY_EPS = 1e-8


@dataclass(frozen=True)
class UniformGrid:
    """Evenly spaced points with spacing exactly 1/density.

    The lower edge is snapped down to a multiple of the spacing in a fixed
    global frame, so translating all inputs by a multiple of the spacing
    translates every grid point by exactly that amount.
    """

    lower: float
    spacing: float
    n_points: int

    @property
    def points(self) -> np.ndarray:
        return self.lower + np.arange(self.n_points) * self.spacing


def make_grid(context_xs, target_xs, gamma: float, margin: float = 0.0) -> UniformGrid:
    """Anchored uniform grid of density ``gamma`` covering all inputs plus margin."""
    xs = np.concatenate([np.atleast_1d(context_xs), np.atleast_1d(target_xs)])
    if xs.size == 0:
        raise ValueError("make_grid: no input points")
    if gamma <= 0:
        raise ValueError(f"make_grid: density must be positive, got {gamma}")
    lo = float(xs.min()) - margin
    hi = float(xs.max()) + margin
    lower = np.floor(lo * gamma) / gamma
    n_points = int(np.ceil((hi - lower) * gamma)) + 1
    return UniformGrid(lower=float(lower), spacing=1.0 / gamma, n_points=max(n_points, 2))


def context_order(context_x, context_y) -> np.ndarray:
    """Sort order of a context set, by x, then by each column of (N, dim_y) ``context_y``:
    sums taken in it are bit-identical under permutations, ties included."""
    return np.lexsort((*context_y.T[::-1], context_x))


def embed(context_x, context_y, grid: UniformGrid, log_length_scale):
    """Smooth the features phi(y) = [1, y] of a context set onto the grid.

    Returns the (1 + dim_y, T) channels, channel 0 the density:
    channels[:, i] = sum_n phi(y_n) * psi(t_i - x_n), and their vjp, a function
    from a gradient of the channels to the gradient of the smoothing kernel's
    log length scale; an empty context gives zeros and no vjp.  Context points
    are accumulated in :func:`context_order`.
    """
    context_x = np.atleast_1d(np.asarray(context_x, float))
    context_y = np.asarray(context_y, float)
    if context_y.ndim == 1:
        context_y = context_y[:, None]
    if context_x.size == 0:
        return np.zeros((1 + context_y.shape[1], grid.n_points)), None

    order = context_order(context_x, context_y)
    context_y = context_y[order]
    psi, psi_vjp = learnable_psi_eval(log_length_scale, grid, context_x[order], grid_axis=1)
    phi = np.concatenate([np.ones((1, len(context_y))), context_y.T])  # (1 + dim_y, N)
    return phi @ psi, lambda g: psi_vjp(phi.T @ g)


def encode(contexts, grids, cols, log_length_scale: ad.Node) -> ad.Node:
    """Every task's :func:`embed` on one (1 + dim_y, L) signal, as one tape node.

    ``contexts`` holds (context_x, context_y) pairs, and task k's grid fills the
    columns ``cols[k]``; the others stay zero.  The vjp runs each task's embed
    vjp on its columns of the gradient and adds the results in task order.
    """
    pieces = [embed(x, y, grid, log_length_scale.value) for (x, y), grid in zip(contexts, grids)]
    value = np.zeros((len(pieces[0][0]), cols[-1].stop))
    for (piece, _), c in zip(pieces, cols):
        value[:, c] = piece
    vjps = [(piece_vjp, c) for (_, piece_vjp), c in zip(pieces, cols) if piece_vjp]

    def vjp(g, i):
        grads = [piece_vjp(g[:, c]) for piece_vjp, c in vjps]
        return sum(grads[1:], grads[0])

    return ad.Node(value, (log_length_scale,) if vjps else (), vjp, op="encode")


def divide_by_density(channels: ad.Node) -> ad.Node:
    """Divide channels 1.. by (channel 0 + DENSITY_EPS); channel 0, the density, stays.

    ``channels`` is channels-first, (C, ...) over any grid shape.  One node:
    with d the density plus DENSITY_EPS and s_c the signal channels, the vjp
    passes g_c / d to each signal row and g_0 + sum_c(-g_c * s_c / d**2) to
    the density row.
    """
    x = channels.value
    signal, denom = x[1:], x[:1] + DENSITY_EPS

    def vjp(g, i):  # + 0.0 turns -0.0 into 0.0, as adding each slice's gradient to zeros does
        d_density = (-g[1:] * signal / denom**2).sum(axis=0, keepdims=True)
        return np.concatenate([g[:1] + d_density, g[1:] / denom]) + 0.0

    value = np.concatenate([x[:1], signal / denom])
    return ad.Node(value, (channels,), vjp, op="divide_by_density")
