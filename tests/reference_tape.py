"""Reference tape compositions: the conv stack, the losses and the model stages op by op.

These are the direct forms of eight rewrites in ``convcnp``, which must match
them bit for bit:

- padding with ``np.pad`` in both modes, and the last-axis window matrix
  from ``sliding_window_view`` plus a move of the tap axis (``autodiff._pad``,
  ``_windows``);
- ``concat``'s vjp as ``np.split`` of the whole gradient (``autodiff.concat``);
- each hidden conv layer as conv, then ``relu``, then ``mul`` by the column
  mask, three nodes (``models.cnn_forward``);
- the batch loss as one Gaussian log density, mean and negation per task,
  summed by ``add`` and scaled by ``mul`` (``models.batch_nll``);
- the on-grid loss as a Gaussian log density, ``mul`` by the target mask,
  ``reduce_sum`` and ``mul`` by -1 / count (``models.grid_nll_loss``);
- the density division as two ``narrow``s, an ``add`` of DENSITY_EPS, a
  ``div`` and a ``concat`` (``embedding.divide_by_density``);
- the deviation floor as a ``mul`` and an ``add`` of two constants
  (``models._floor_sigma``);
- the off-grid models task by task, with one ``PredictiveDistribution`` per
  task: the ConvCNP's ``psi`` and ``matmul`` nodes per task for the embedding,
  its ``concat`` with gap constants, and ``narrow``, ``psi``, ``matmul`` and
  ``floor_sigma`` nodes per task for the readout; the CNP's two ``narrow``s per
  task; and the loss over the list (``embedding.encode``, ``models.decode``,
  ``ConvCNP.forward_many``, ``CNPBaseline.forward_many``, ``models.batch_nll``).

``reduce_sum``, ``gaussian_log_pdf`` and ``div`` are the primitives those
forms were built from; the tests also use ``reduce_sum`` to make scalar losses.
``windows`` and ``one_gemm_conv`` are the conv's earlier lowering: a window
matrix over every spatial axis, and one matmul each for the value and both
vjps.  The 1-D conv must still match it bit for bit.  ``backward`` is the
reverse walk that keeps the whole tape (``autodiff.backward`` releases each
node once its vjps have run); both must give the same gradients bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from convcnp import autodiff as ad
from convcnp import embedding, models
from convcnp.embedding import DENSITY_EPS, context_order, make_grid
from convcnp.kernels import learnable_psi_eval
from convcnp.models import KERNEL_SIZE, SIGMA_FLOOR_WEIGHT, SIGMA_MIN, Predictive


def pad(x, width, mode, op="conv"):
    if width == 0:
        return x
    widths = ((0, 0),) + ((width, width),) * (x.ndim - 1)
    return np.pad(x, widths, mode="constant" if mode == "zeros" else "wrap")


def last_axis_windows(xp, k, groups):
    view = np.lib.stride_tricks.sliding_window_view(xp, k, axis=-1)  # (C, *S, k)
    rows = xp.shape[0] // groups * k
    return np.moveaxis(view, -1, 1).reshape(groups, rows, -1)


def windows(xp, k, groups):
    nd = xp.ndim - 1
    axes = tuple(range(1, nd + 1))
    view = np.lib.stride_tricks.sliding_window_view(xp, (k,) * nd, axis=axes)
    order = (0,) + tuple(range(nd + 1, 2 * nd + 1)) + axes  # (channel, *taps, *positions)
    return view.transpose(order).reshape(groups, xp.shape[0] // groups * k**nd, -1)


def one_gemm_conv(x, w, padding, groups, g):
    """A conv's value, input vjp and weight vjp of ``g``, each as one batched
    matmul with the window matrix over every spatial axis."""
    c_out, c_in_g, k = w.shape[:3]
    nd, width = x.ndim - 1, (k - 1) // 2
    cols = windows(pad(x, width, padding), k, groups)
    out = np.matmul(w.reshape(groups, c_out // groups, -1), cols)
    dw = np.matmul(g.reshape(groups, c_out // groups, -1), cols.transpose(0, 2, 1))
    w_adj = w.reshape(groups, c_out // groups, c_in_g, *w.shape[2:])
    w_adj = np.flip(w_adj, tuple(range(3, nd + 3))).swapaxes(1, 2)
    cols = windows(pad(g, width, padding), k, groups)
    dx = np.matmul(w_adj.reshape(groups, c_in_g, -1), cols)
    return out.reshape(c_out, *x.shape[1:]), dx.reshape(x.shape), dw.reshape(w.shape)


def concat(nodes, axis=0):
    nodes = list(nodes)
    splits = np.cumsum([n.value.shape[axis] for n in nodes])[:-1]
    return ad.Node(
        np.concatenate([n.value for n in nodes], axis=axis),
        nodes,
        lambda g, i: np.split(g, splits, axis=axis)[i],
        op="concat",
    )


def conv_layer(x, w, bias, padding="zeros", groups=1, mask=None):
    """A hidden layer: conv with bias, ReLU, then the mask as a constant."""
    conv = ad.conv1d if x.value.ndim == 2 else ad.conv2d
    h = ad.relu(conv(x, w, bias, padding=padding, groups=groups))
    return h if mask is None else ad.mul(h, ad.constant(mask))


def cnn_forward(spec, x, leaves, prefix, padding="zeros", mask=None):
    conv = ad.conv1d if x.value.ndim == 2 else ad.conv2d
    acts = {}
    h = x
    for i in range(1, spec.n_layers + 1):
        if i in spec.skips:
            h = concat([acts[j] for j in spec.skips[i]], axis=0)
        bias = leaves[f"{prefix}.l{i}.bias"]
        if spec.separable:
            h = conv(h, leaves[f"{prefix}.l{i}.dw"], padding=padding, groups=h.value.shape[0])
            w = leaves[f"{prefix}.l{i}.pw"]
        else:
            w = leaves[f"{prefix}.l{i}.weight"]
        if i < spec.n_layers:
            h = conv_layer(h, w, bias, padding, mask=mask)
        else:
            h = conv(h, w, bias, padding=padding)
        acts[i] = h
    return h


def reduce_sum(x):
    shape = x.value.shape
    return ad.Node(x.value.sum(), (x,), lambda g, i: np.broadcast_to(g, shape).copy(), op="sum")


def gaussian_log_pdf(y, mu, sigma):
    """Elementwise log N(y; mu, sigma^2) with observations ``y`` held fixed."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != mu.value.shape or mu.value.shape != sigma.value.shape:
        raise ad.DiffError(
            f"op 'gaussian_log_pdf': shapes y={y.shape}, mu={mu.value.shape}, "
            f"sigma={sigma.value.shape} must match"
        )
    return ad.Node(
        ad.gaussian_ll(y, mu.value, sigma.value), (mu, sigma),
        lambda g, i: ad.gaussian_ll_grad(g, y, mu.value, sigma.value, i), op="gaussian_log_pdf",
    )


def reduce_mean(x):
    shape, count = x.value.shape, x.value.size
    return ad.Node(
        x.value.mean(), (x,), lambda g, i: np.broadcast_to(g, shape) / count, op="mean"
    )


@dataclass
class PredictiveDistribution:
    """One task's Gaussian mean and standard deviation, as graph nodes."""

    mu: ad.Node  # (dim_y, M)
    sigma: ad.Node  # (dim_y, M)

    @property
    def mean(self):
        return self.mu.value.T.copy()

    @property
    def std(self):
        return self.sigma.value.T.copy()


def _target_rows(pred, target_y):
    target_y = np.asarray(target_y, float)
    if target_y.ndim == 1:
        target_y = target_y[:, None]
    if target_y.T.shape != pred.mu.value.shape:
        raise ad.DiffError(
            f"targets {target_y.shape} do not fit predictions {pred.mu.value.shape}"
        )
    return target_y.T


def per_task_batch_nll(preds, targets):
    """The batch loss as one node over every task's ``mu`` and ``sigma``."""
    ys = [_target_rows(pred, y) for pred, y in zip(preds, targets, strict=True)]
    if not ys or min(y.size for y in ys) == 0:
        raise ad.DiffError("batch_nll: empty batch or target set")
    terms = [-ad.gaussian_ll(y, p.mu.value, p.sigma.value).mean() for p, y in zip(preds, ys)]
    scale = 1.0 / len(ys)

    def vjp(g, i):
        p, y = preds[i // 2], ys[i // 2]
        return ad.gaussian_ll_grad(g * scale * -1.0 / y.size, y, p.mu.value, p.sigma.value, i % 2)

    parents = [node for pred in preds for node in (pred.mu, pred.sigma)]
    return ad.Node(sum(terms[1:], terms[0]) * scale, parents, vjp, op="batch_nll")


def log_likelihood_per_point(pred, target_y):
    lp = ad.gaussian_ll(_target_rows(pred, target_y), pred.mu.value, pred.sigma.value)
    if not np.all(np.isfinite(lp)):
        raise ad.DiffError("log_likelihood_per_point: non-finite log density")
    return float(lp.mean())


def split(pred):
    """A batch ``Predictive`` as one ``PredictiveDistribution`` per task, by ``narrow``."""
    return [
        PredictiveDistribution(
            ad.narrow(pred.mu, 1, pred.offsets[k], pred.offsets[k + 1] - pred.offsets[k]),
            ad.narrow(pred.sigma, 1, pred.offsets[k], pred.offsets[k + 1] - pred.offsets[k]),
        )
        for k in range(len(pred))
    ]


def joined(preds):
    """One ``Predictive`` over per-task predictions, by ``concat``, whose vjp hands
    each task a view of the gradient."""
    offsets = tuple(np.cumsum([0] + [p.mu.value.shape[1] for p in preds]).tolist())
    return Predictive(ad.concat([p.mu for p in preds], axis=1),
                      ad.concat([p.sigma for p in preds], axis=1), offsets)


def psi(log_length_scale, grid, xs, grid_axis):
    basis, vjp = learnable_psi_eval(log_length_scale.value, grid, xs, grid_axis)
    return ad.Node(basis, (log_length_scale,), lambda g, i: vjp(g), op="psi")


def embed(context_x, context_y, grid, log_length_scale):
    context_x = np.atleast_1d(np.asarray(context_x, float))
    context_y = np.asarray(context_y, float)
    if context_y.ndim == 1:
        context_y = context_y[:, None]
    if context_x.size == 0:
        return ad.constant(np.zeros((1 + context_y.shape[1], grid.n_points)))
    order = context_order(context_x, context_y)
    context_y = context_y[order]
    basis = psi(log_length_scale, grid, context_x[order], grid_axis=1)  # (N, T)
    phi = np.concatenate([np.ones((1, len(context_y))), context_y.T])  # (1 + dim_y, N)
    return ad.matmul(ad.constant(phi), basis)


def convcnp_forward_many(model, tasks, leaves):
    """``ConvCNP.forward_many`` with per-task embedding and readout nodes."""
    grids = [make_grid(t.context_x, t.target_x, model.gamma, model.margin) for t in tasks]
    pieces = [
        embed(t.context_x, t.context_y, grid, leaves["encoder.log_length_scale"])
        for t, grid in zip(tasks, grids)
    ]
    gap = (KERNEL_SIZE - 1) // 2
    sizes = [grid.n_points for grid in grids]
    starts = np.cumsum([0] + [n + gap for n in sizes[:-1]])
    signal, mask = pieces[0], None
    if len(tasks) > 1:
        zeros = ad.constant(np.zeros((1 + model.dim_y, gap)))
        signal = ad.concat([p for piece in pieces for p in (zeros, piece)][1:], axis=1)
        mask = np.zeros((1, starts[-1] + sizes[-1]))
        for start, n in zip(starts, sizes):
            mask[:, start : start + n] = 1.0
    signal = embedding.divide_by_density(signal)
    h = models.cnn_forward(model.cnn, signal, leaves, "cnn", mask=mask)
    return readout(h, grids, starts, [t.target_x for t in tasks],
                   leaves["readout.log_length_scale"], model.dim_y)


def readout(h, grids, starts, target_xs, log_length_scale, dim_y):
    """The ConvCNP's readout with ``narrow``, ``psi``, ``matmul`` and ``floor_sigma`` per task."""
    f_mu = ad.narrow(h, 0, 0, dim_y)
    f_sigma = ad.softplus(ad.narrow(h, 0, dim_y, dim_y))
    preds = []
    for x, grid, start in zip(target_xs, grids, starts):
        basis = psi(log_length_scale, grid, x, grid_axis=0)
        mu = ad.matmul(ad.narrow(f_mu, 1, start, grid.n_points), basis)
        sigma = ad.matmul(ad.narrow(f_sigma, 1, start, grid.n_points), basis)
        preds.append(PredictiveDistribution(mu=mu, sigma=floor_sigma_node(sigma)))
    return preds


def cnp_forward_many(model, tasks, leaves):
    """``CNPBaseline.forward_many`` with two ``narrow``s per task."""
    inputs, targets, n_ctx, n_tgt = [], [], [], []
    for task in tasks:
        ctx_x = np.atleast_1d(np.asarray(task.context_x, float))
        if ctx_x.size:
            ctx_y = np.asarray(task.context_y, float).reshape(ctx_x.size, -1)
            order = context_order(ctx_x, ctx_y)
            inputs.append(np.vstack([ctx_x[order][None, :], ctx_y[order].T]))
        targets.append(np.atleast_1d(np.asarray(task.target_x, float)))
        n_ctx.append(ctx_x.size)
        n_tgt.append(targets[-1].size)
    segments = np.repeat(np.arange(len(tasks)), n_ctx)
    if segments.size:
        average = np.zeros((segments.size, len(tasks)))
        average[np.arange(segments.size), segments] = 1.0 / np.asarray(n_ctx)[segments]
        encoded = model._mlp("enc", ad.constant(np.concatenate(inputs, axis=1)), leaves)
        rep = ad.matmul(encoded, ad.constant(average))
    else:
        rep = ad.constant(np.zeros((model.HIDDEN, len(tasks))))
    spread = np.zeros((len(tasks), sum(n_tgt)))
    spread[np.repeat(np.arange(len(tasks)), n_tgt), np.arange(sum(n_tgt))] = 1.0
    tiled = ad.matmul(rep, ad.constant(spread))
    dec_in = ad.concat([ad.constant(np.concatenate(targets)[None, :]), tiled], axis=0)
    out = model._mlp("dec", dec_in, leaves)
    mu = ad.narrow(out, 0, 0, model.dim_y)
    sigma = floor_sigma_node(ad.softplus(ad.narrow(out, 0, model.dim_y, model.dim_y)))
    starts = np.cumsum([0] + n_tgt[:-1])
    return [
        PredictiveDistribution(mu=ad.narrow(mu, 1, start, m), sigma=ad.narrow(sigma, 1, start, m))
        for start, m in zip(starts, n_tgt)
    ]


def floor_sigma_node(sigma):
    scale = 1.0 - SIGMA_FLOOR_WEIGHT
    return ad.Node(SIGMA_FLOOR_WEIGHT * SIGMA_MIN + scale * sigma.value, (sigma,),
                   lambda g, i: g * scale, op="floor_sigma")


def nll_loss(pred, target_y):
    lp = gaussian_log_pdf(_target_rows(pred, target_y), pred.mu, pred.sigma)
    return ad.mul(reduce_mean(lp), ad.constant(np.asarray(-1.0)))


def mean_loss(losses):
    """The per-example losses summed by ``add``, then scaled by ``mul``: the
    batch loss as ``perfbench/workloads.py`` ``mean_loss`` composes it."""
    total = losses[0]
    for extra in losses[1:]:
        total = ad.add(total, extra)
    return ad.mul(total, ad.constant(np.asarray(1.0 / len(losses))))


def batch_nll(preds, targets):
    """The per-task chains over a list of predictions, or over a ``Predictive`` split
    by ``narrow``."""
    if isinstance(preds, Predictive):
        preds = split(preds)
    return mean_loss([nll_loss(p, y) for p, y in zip(preds, targets)])


def grid_nll_loss(pred, image):
    image = np.asarray(image, float)
    mask = pred.target_mask[None]
    count = mask.sum() * image.shape[0]
    if count == 0:
        raise ad.DiffError("grid_nll_loss: empty target mask")
    lp = gaussian_log_pdf(image, pred.mu, pred.sigma)
    masked = ad.mul(lp, ad.constant(np.broadcast_to(mask, image.shape).copy()))
    total = reduce_sum(masked)
    return ad.mul(total, ad.constant(np.asarray(-1.0 / count)))


def div(a, b):
    """Elementwise division.  No implicit epsilon: callers guard denominators."""
    ad._check_same_shape("div", a, b)
    return ad.Node(
        a.value / b.value,
        (a, b),
        lambda g, i: (
            ad._unbroadcast(g / b.value, a.value.shape)
            if i == 0
            else ad._unbroadcast(-g * a.value / b.value**2, b.value.shape)
        ),
        op="div",
    )


def divide_by_density(channels):
    density = ad.narrow(channels, 0, 0, 1)
    signal = ad.narrow(channels, 0, 1, channels.value.shape[0] - 1)
    normalized = div(signal, ad.add(density, ad.constant(np.asarray(DENSITY_EPS))))
    return ad.concat([density, normalized], axis=0)


def floor_sigma(sigma):
    return ad.add(
        ad.constant(np.asarray(SIGMA_FLOOR_WEIGHT * SIGMA_MIN)),
        ad.mul(ad.constant(np.asarray(1.0 - SIGMA_FLOOR_WEIGHT)), sigma),
    )


def backward(loss):
    """Reverse accumulation that keeps every node's parents, vjp and gradient."""
    order = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.needs_grad and id(parent) not in seen:
                stack.append((parent, False))
    ad._add_grad(loss, np.ones_like(loss.value))
    for node in reversed(order):
        for i, parent in enumerate(node._parents):
            if parent.needs_grad:
                ad._add_grad(parent, node._vjp(node._grad, i))
