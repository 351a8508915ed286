"""Reference tape compositions: the conv stack, the losses and the model stages op by op.

These are the direct forms of eleven rewrites in ``convcnp``, which must match
them bit for bit:

- padding with ``np.pad`` in both modes, and the last-axis window matrix
  from ``sliding_window_view`` plus a move of the tap axis (``autodiff._pad``,
  ``_windows``);
- ``concat``'s vjp as ``np.split`` of the whole gradient (``autodiff.concat``);
- each hidden conv layer as conv, then ``relu``, then ``mul`` by the column
  mask, three nodes (``models.cnn_forward``), and the on-grid CNN's last
  layer as conv, then ``relu`` (its ``last_relu``, in ``ongrid_forward``);
- each CNP layer as ``matmul``, an ``add`` of the bias and ``relu``
  (``autodiff.dense``, in ``mlp``);
- the batch loss as one Gaussian log density, mean and negation per task,
  summed by ``add`` and scaled by ``mul`` (``models.batch_nll``);
- the on-grid loss as a Gaussian log density, ``mul`` by the target mask,
  ``reduce_sum`` and ``mul`` by -1 / count (``models.grid_nll_loss``);
- the density division as two ``narrow``s, an ``add`` of DENSITY_EPS, a
  ``div`` and a ``concat`` (``embedding.divide_by_density``);
- the output head as two ``narrow``s of the raw rows, a softplus node, and
  for the CNP the deviation floor, as one node (``floor_sigma_node``) or as a
  ``mul`` and an ``add`` of two constants (``floor_sigma``) (``models.head``);
- a model's output as two ``narrow``s, the means and the deviations, that the
  losses read (``Predictive``, ``GridPredictive``);
- the off-grid models task by task, with one ``PredictiveDistribution`` per
  task: the ConvCNP's ``psi`` and ``matmul`` nodes per task for the embedding,
  its ``concat`` with gap constants, and ``narrow``, ``psi``, ``matmul`` and
  ``floor_sigma`` nodes per task for the readout; the CNP's two ``narrow``s per
  task; and the loss over the list (``embedding.encode``, ``models.decode``,
  ``ConvCNP.forward_many``, ``CNPBaseline.forward_many``, ``models.batch_nll``);
- the CNP's pooling as a ``narrow`` of each task's encoded columns, their
  ``column_mean`` and a ``spread`` over the task's targets, joined by two
  ``concat``s under the target xs (``models.pool``).

``add``, ``mul``, ``matmul``, ``relu``, ``softplus`` and ``narrow`` are the
nodes those forms were built from, as ``autodiff`` had them: ``add`` and ``mul``
broadcast, and their vjps sum a gradient back to each parent's shape.
``cnp_forward_many_matmul`` is the CNP's pooling before ``pool``: a ``matmul``
by an averaging matrix and one by a 0/1 spread matrix.  It rounds differently,
so the CNP matches it within 1e-12 relative, not bit for bit.  ``reduce_sum``,
``gaussian_log_pdf``, with ``gaussian_ll_grad`` for one parent at a time, and
``div`` are primitives of the same kind; the tests
also use ``reduce_sum`` to make scalar losses.  ``windows`` and
``one_gemm_conv`` are the conv's earlier lowering: a window matrix over every
spatial axis, and one matmul each for the value and both vjps.  The 1-D conv
must still match it bit for bit.  ``backward`` is the reverse walk that keeps
the whole tape (``autodiff.backward`` releases each node once its vjps have
run); both must give the same gradients bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from convcnp import autodiff as ad
from convcnp import embedding, models
from convcnp.embedding import DENSITY_EPS, context_order, make_grid
from convcnp.kernels import learnable_psi_eval
from convcnp.models import KERNEL_SIZE, SIGMA_FLOOR_WEIGHT, SIGMA_MIN, Predictive


def _check_same_shape(op, a, b):
    if a.value.shape != b.value.shape and a.value.ndim != 0 and b.value.ndim != 0:
        try:
            np.broadcast_shapes(a.value.shape, b.value.shape)
        except ValueError:
            raise ad.DiffError(
                f"op '{op}': incompatible shapes {a.value.shape} and {b.value.shape}"
            ) from None


def _unbroadcast(g, shape):
    """Reduce a broadcasted gradient back to ``shape``."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b):
    _check_same_shape("add", a, b)
    return ad.Node(
        a.value + b.value,
        (a, b),
        lambda g, i: _unbroadcast(g, (a, b)[i].value.shape),
        op="add",
    )


def mul(a, b):
    _check_same_shape("mul", a, b)
    return ad.Node(
        a.value * b.value,
        (a, b),
        lambda g, i: _unbroadcast(g * (b, a)[i].value, (a, b)[i].value.shape),
        op="mul",
    )


def matmul(a, b):
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[0]:
        raise ad.DiffError(
            f"op 'matmul': incompatible shapes {a.value.shape} and {b.value.shape}"
        )
    return ad.Node(
        a.value @ b.value,
        (a, b),
        lambda g, i: g @ b.value.T if i == 0 else a.value.T @ g,
        op="matmul",
    )


def relu(x):
    mask = x.value > 0
    return ad.Node(np.where(mask, x.value, 0.0), (x,), lambda g, i: g * mask, op="relu")


def softplus(x):
    with np.errstate(over="ignore"):  # exp(-x) is inf below x = -709: sigmoid 0
        sig = 1.0 / (1.0 + np.exp(-x.value))
    return ad.Node(np.logaddexp(0.0, x.value), (x,), lambda g, i: g * sig, op="softplus")


def narrow(x, axis, start, length):
    """Slice ``length`` entries from ``start`` along ``axis``."""
    index = [slice(None)] * x.value.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)

    def vjp(g, i):
        out = np.zeros_like(x.value)
        out[index] = g
        return out

    return ad.Node(x.value[index], (x,), vjp, op="narrow")


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
    h = relu(conv(x, w, bias, padding=padding, groups=groups))
    return h if mask is None else mul(h, ad.constant(mask))


def cnn_forward(spec, x, leaves, padding="zeros", mask=None):
    conv = ad.conv1d if x.value.ndim == 2 else ad.conv2d
    acts = {}
    h = x
    for i in range(1, spec.n_layers + 1):
        if i in spec.skips:
            h = concat([acts[j] for j in spec.skips[i]], axis=0)
        bias = leaves[f"cnn.l{i}.bias"]
        if spec.separable:
            h = conv(h, leaves[f"cnn.l{i}.dw"], padding=padding, groups=h.value.shape[0])
            w = leaves[f"cnn.l{i}.pw"]
        else:
            w = leaves[f"cnn.l{i}.weight"]
        if i < spec.n_layers:
            h = conv_layer(h, w, bias, padding, mask=mask)
        else:
            h = conv(h, w, bias, padding=padding)
        acts[i] = h
    return h


def reduce_sum(x):
    shape = x.value.shape
    return ad.Node(x.value.sum(), (x,), lambda g, i: np.broadcast_to(g, shape).copy(), op="sum")


def gaussian_ll_grad(g, y, mu, sigma, i):
    """``g`` times the derivative of ``ad.gaussian_ll`` in mu (i = 0) or sigma (i = 1)."""
    z = (y - mu) / sigma
    return g * z / sigma if i == 0 else g * (z**2 - 1.0) / sigma


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
        lambda g, i: gaussian_ll_grad(g, y, mu.value, sigma.value, i), op="gaussian_log_pdf",
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
        return gaussian_ll_grad(g * scale * -1.0 / y.size, y, p.mu.value, p.sigma.value, i % 2)

    parents = [node for pred in preds for node in (pred.mu, pred.sigma)]
    return ad.Node(sum(terms[1:], terms[0]) * scale, parents, vjp, op="batch_nll")


def log_likelihood_per_point(pred, target_y):
    lp = ad.gaussian_ll(_target_rows(pred, target_y), pred.mu.value, pred.sigma.value)
    if not np.all(np.isfinite(lp)):
        raise ad.DiffError("log_likelihood_per_point: non-finite log density")
    return float(lp.mean())


def split(pred):
    """A batch ``Predictive`` as one ``PredictiveDistribution`` per task, by ``narrow``:
    its means and its deviations, then each task's columns of them."""
    dim_y = len(pred.out.value) // 2
    mu, sigma = narrow(pred.out, 0, 0, dim_y), narrow(pred.out, 0, dim_y, dim_y)
    return [
        PredictiveDistribution(
            narrow(mu, 1, pred.offsets[k], pred.offsets[k + 1] - pred.offsets[k]),
            narrow(sigma, 1, pred.offsets[k], pred.offsets[k + 1] - pred.offsets[k]),
        )
        for k in range(len(pred))
    ]


def joined(preds):
    """One ``Predictive`` over per-task predictions, by ``concat``s, whose vjps hand
    each task views of the gradient."""
    offsets = tuple(np.cumsum([0] + [p.mu.value.shape[1] for p in preds]).tolist())
    rows = [ad.concat([getattr(p, a) for p in preds], axis=1) for a in ("mu", "sigma")]
    return Predictive(ad.concat(rows, axis=0), offsets)


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
    return matmul(ad.constant(phi), basis)


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
    h = models.cnn_forward(model.cnn, signal, leaves, mask=mask)
    return readout(h, grids, starts, [t.target_x for t in tasks],
                   leaves["readout.log_length_scale"], model.dim_y)


def readout(h, grids, starts, target_xs, log_length_scale, dim_y):
    """The ConvCNP's readout with ``narrow``, ``psi``, ``matmul`` and ``floor_sigma`` per task."""
    f_mu = narrow(h, 0, 0, dim_y)
    f_sigma = softplus(narrow(h, 0, dim_y, dim_y))
    preds = []
    for x, grid, start in zip(target_xs, grids, starts):
        basis = psi(log_length_scale, grid, x, grid_axis=0)
        mu = matmul(narrow(f_mu, 1, start, grid.n_points), basis)
        sigma = matmul(narrow(f_sigma, 1, start, grid.n_points), basis)
        preds.append(PredictiveDistribution(mu=mu, sigma=floor_sigma_node(sigma)))
    return preds


def mlp(prefix, x, leaves):
    """``CNPBaseline._mlp`` as ``matmul``, a broadcasting ``add`` of the (C, 1)
    bias, and ``relu`` per layer."""
    h = x
    for i in range(1, 4):
        h = add(matmul(leaves[f"{prefix}.l{i}.weight"], h), leaves[f"{prefix}.l{i}.bias"])
        if i < 3:
            h = relu(h)
    return h


def head(out, floor):
    """``models.head`` as two ``narrow``s, a softplus node and, with ``floor``,
    ``floor_sigma_node``: the means and the deviations."""
    dim_y = len(out.value) // 2
    sigma = softplus(narrow(out, 0, dim_y, dim_y))
    return narrow(out, 0, 0, dim_y), floor(sigma) if floor else sigma


def _cnp_inputs(model, tasks):
    """Each task's (1 + dim_y, N) encoder inputs in ``context_order``, and its target xs."""
    inputs, targets = [], []
    for task in tasks:
        ctx_x = np.atleast_1d(np.asarray(task.context_x, float))
        ctx_y = np.asarray(task.context_y, float).reshape(ctx_x.size, model.dim_y)
        order = context_order(ctx_x, ctx_y)
        inputs.append(np.vstack([ctx_x[order][None, :], ctx_y[order].T]))
        targets.append(np.atleast_1d(np.asarray(task.target_x, float)))
    return inputs, targets


def _cnp_decode(dec_in, targets, leaves, floor):
    """The decoder of :func:`mlp`, the head of :func:`head` floored by ``floor``
    (``floor_sigma_node`` by default), and two ``narrow``s per task."""
    mu, sigma = head(mlp("dec", dec_in, leaves), floor or floor_sigma_node)
    starts = np.cumsum([0] + [len(x) for x in targets])
    return [
        PredictiveDistribution(mu=narrow(mu, 1, start, len(x)), sigma=narrow(sigma, 1, start, len(x)))
        for start, x in zip(starts, targets)
    ]


def column_mean(x):
    """The mean of ``x``'s columns, (C, 1): their sum, then / N, as ``models.pool`` takes it."""
    n = x.value.shape[1]
    return ad.Node(x.value.sum(axis=1, keepdims=True) / n, (x,),
                   lambda g, i: np.broadcast_to(g / n, x.value.shape), op="column_mean")


def spread(x, m):
    """A (C, 1) column repeated over ``m`` columns; the vjp sums them."""
    return ad.Node(np.repeat(x.value, m, axis=1), (x,),
                   lambda g, i: g.sum(axis=1, keepdims=True), op="spread")


def cnp_forward_many(model, tasks, leaves, floor=None):
    """``CNPBaseline.forward_many`` with the encoder of :func:`mlp`, ``models.pool``
    as a ``narrow``, :func:`column_mean` and :func:`spread` per task (zeros for an
    empty context) joined by ``concat``s, and the decoder of :func:`_cnp_decode`."""
    inputs, targets = _cnp_inputs(model, tasks)
    encoded = mlp("enc", ad.constant(np.ascontiguousarray(np.hstack(inputs))), leaves)
    starts = np.cumsum([0] + [x.shape[1] for x in inputs])
    pooled = [
        spread(column_mean(narrow(encoded, 1, start, x.shape[1])), len(t)) if x.shape[1]
        else ad.constant(np.zeros((model.HIDDEN, len(t))))
        for start, x, t in zip(starts, inputs, targets)
    ]
    dec_in = ad.concat([ad.constant(np.concatenate(targets)[None]), ad.concat(pooled, axis=1)])
    return _cnp_decode(dec_in, targets, leaves, floor)


def cnp_forward_many_matmul(model, tasks, leaves):
    """``CNPBaseline.forward_many`` as it pooled before ``models.pool``: a ``matmul``
    by a (sum N, B) averaging matrix, a ``matmul`` by a 0/1 (B, sum M) spread
    matrix and a ``concat`` under the target xs."""
    inputs, targets = _cnp_inputs(model, tasks)
    n_ctx = [x.shape[1] for x in inputs]
    segments = np.repeat(np.arange(len(tasks)), n_ctx)
    if segments.size:
        average = np.zeros((segments.size, len(tasks)))
        average[np.arange(segments.size), segments] = 1.0 / np.asarray(n_ctx)[segments]
        # the contexts' own layout: for dim_y 2 column-major, unless one is empty
        nonempty = np.concatenate([x for x in inputs if x.shape[1]], axis=1)
        encoded = mlp("enc", ad.constant(nonempty), leaves)
        rep = matmul(encoded, ad.constant(average))
    else:
        rep = ad.constant(np.zeros((model.HIDDEN, len(tasks))))
    n_tgt = [len(x) for x in targets]
    ones = np.zeros((len(tasks), sum(n_tgt)))
    ones[np.repeat(np.arange(len(tasks)), n_tgt), np.arange(sum(n_tgt))] = 1.0
    tiled = matmul(rep, ad.constant(ones))
    dec_in = ad.concat([ad.constant(np.concatenate(targets)[None, :]), tiled], axis=0)
    return _cnp_decode(dec_in, targets, leaves, None)


def floor_sigma_node(sigma):
    scale = 1.0 - SIGMA_FLOOR_WEIGHT
    return ad.Node(SIGMA_FLOOR_WEIGHT * SIGMA_MIN + scale * sigma.value, (sigma,),
                   lambda g, i: g * scale, op="floor_sigma")


def nll_loss(pred, target_y):
    lp = gaussian_log_pdf(_target_rows(pred, target_y), pred.mu, pred.sigma)
    return mul(reduce_mean(lp), ad.constant(np.asarray(-1.0)))


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


@dataclass
class GridPrediction:
    """A ``GridPredictive`` whose means and deviations are two nodes."""

    mu: ad.Node
    sigma: ad.Node
    target_mask: np.ndarray


def ongrid_forward(model, image, context_mask, target_mask, leaves):
    """``ConvCNPOnGrid.forward`` with the head of :func:`head`, unfloored."""
    image = np.asarray(image, float)
    target_mask = models._check_mask(target_mask, "target_mask", image.shape[1:])
    conv = ad.conv1d if model.ndim == 1 else ad.conv2d
    h = model.encode(image, context_mask, leaves)
    h = relu(models.cnn_forward(model.cnn, h, leaves, padding="circular"))
    out = conv(h, leaves["head.weight"], leaves["head.bias"], padding="circular")
    return GridPrediction(*head(out, floor=None), target_mask)


def grid_nll_loss(pred, image):
    image = np.asarray(image, float)
    mask = pred.target_mask[None]
    count = mask.sum() * image.shape[0]
    if count == 0:
        raise ad.DiffError("grid_nll_loss: empty target mask")
    lp = gaussian_log_pdf(image, pred.mu, pred.sigma)
    masked = mul(lp, ad.constant(np.broadcast_to(mask, image.shape).copy()))
    total = reduce_sum(masked)
    return mul(total, ad.constant(np.asarray(-1.0 / count)))


def div(a, b):
    """Elementwise division.  No implicit epsilon: callers guard denominators."""
    _check_same_shape("div", a, b)
    return ad.Node(
        a.value / b.value,
        (a, b),
        lambda g, i: (
            _unbroadcast(g / b.value, a.value.shape)
            if i == 0
            else _unbroadcast(-g * a.value / b.value**2, b.value.shape)
        ),
        op="div",
    )


def divide_by_density(channels):
    density = narrow(channels, 0, 0, 1)
    signal = narrow(channels, 0, 1, channels.value.shape[0] - 1)
    normalized = div(signal, add(density, ad.constant(np.asarray(DENSITY_EPS))))
    return ad.concat([density, normalized], axis=0)


def floor_sigma(sigma):
    return add(
        ad.constant(np.asarray(SIGMA_FLOOR_WEIGHT * SIGMA_MIN)),
        mul(ad.constant(np.asarray(1.0 - SIGMA_FLOOR_WEIGHT)), sigma),
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
