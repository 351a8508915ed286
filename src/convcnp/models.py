"""Predictive models: off-grid ConvCNP, on-grid ConvCNP, and a CNP baseline.

All models output factorized Gaussian predictive distributions and are
differentiable end-to-end through the autodiff engine, so one NLL
backward pass trains any of them.  The off-grid models predict a batch as
one :class:`Predictive`; the ConvCNP builds it from three stage nodes,
:func:`~convcnp.embedding.encode`, the CNN and :func:`decode`, so its tape
does not grow with the batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .embedding import context_order, divide_by_density, encode, make_grid
from .kernels import init_log_length_scale, learnable_psi_eval
from .synthdata import Task, make_rng

SIGMA_MIN = 0.1
SIGMA_FLOOR_WEIGHT = 0.1  # sigma_post = 0.1 * sigma_min + 0.9 * raw
KERNEL_SIZE = 5  # taps per axis of every conv kernel that is not 1x1


def _floor(raw):
    """Mix a raw deviation array with SIGMA_MIN so it stays above 0.1 * SIGMA_MIN."""
    return SIGMA_FLOOR_WEIGHT * SIGMA_MIN + (1.0 - SIGMA_FLOOR_WEIGHT) * raw


def head(out: ad.Node, floor: bool) -> ad.Node:
    """Raw output rows as means over deviations, one node: softplus on the lower
    half of the rows, then :func:`_floor` with ``floor``.  The vjp adds 0.0, so a
    -0.0 in the gradient of ``out`` leaves as 0.0."""
    dim_y = len(out.value) // 2
    sigma, slope = ad.softplus(out.value[dim_y:])

    def vjp(g, i):  # the floor's vjp, then the softplus's
        g_sigma = g[dim_y:] * (1.0 - SIGMA_FLOOR_WEIGHT) if floor else g[dim_y:]
        return np.concatenate([g[:dim_y], g_sigma * slope]) + 0.0

    value = np.concatenate([out.value[:dim_y], _floor(sigma) if floor else sigma])
    return ad.Node(value, (out,), vjp, op="head")


@dataclass(frozen=True)
class CnnSpec:
    """A plain convolutional stack: ReLU between layers, none after the last.

    ``channels`` lists output channels per layer.  ``skips`` maps a 1-based
    layer index to the earlier layers whose activations are concatenated to
    form its input (the last entry is always the preceding layer).
    """

    channels: tuple
    skips: dict = field(default_factory=dict)
    separable: bool = False

    @classmethod
    def small(cls, dim_y: int = 1) -> "CnnSpec":
        return cls(channels=(16, 32, 16, 2 * dim_y))

    @classmethod
    def xl(cls, dim_y: int = 1) -> "CnnSpec":
        """12 layers: 8 channels doubling to 256 and back, with U-Net skips."""
        up = tuple(8 * 2**i for i in range(6))
        return cls(
            channels=up + up[-2::-1] + (2 * dim_y,),
            skips={8: (5, 7), 9: (4, 8), 10: (3, 9), 11: (2, 10), 12: (1, 11)},
        )

    @property
    def n_layers(self) -> int:
        return len(self.channels)

    def receptive_field_steps(self) -> int:
        """Half-width of the receptive field in grid steps."""
        return self.n_layers * (KERNEL_SIZE - 1) // 2


def _he_init(rng, shape, fan_in):
    return rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)


def _init_cnn_params(params: dict, spec: CnnSpec, in_channels: int, rng, ndim=1):
    """Add a CnnSpec's conv weights and biases to ``params`` as ``cnn.l{i}.*``, in layer order."""
    kshape = (KERNEL_SIZE,) * ndim
    ksize = KERNEL_SIZE**ndim
    widths = {}  # layer index -> output channels, for skip bookkeeping
    c_in = in_channels
    for i, c_out in enumerate(spec.channels, start=1):
        if i in spec.skips:
            c_in = sum(widths[j] for j in spec.skips[i])
        if spec.separable:
            params[f"cnn.l{i}.dw"] = _he_init(rng, (c_in, 1) + kshape, ksize)
            params[f"cnn.l{i}.pw"] = _he_init(rng, (c_out, c_in) + (1,) * ndim, c_in)
        else:
            params[f"cnn.l{i}.weight"] = _he_init(
                rng, (c_out, c_in) + kshape, c_in * ksize
            )
        params[f"cnn.l{i}.bias"] = np.zeros(c_out)
        widths[i] = c_out
        c_in = c_out


def cnn_forward(
    spec: CnnSpec, x: ad.Node, leaves, padding="zeros", mask=None, last_relu=False
) -> ad.Node:
    """Run the ``cnn.*`` conv stack; ``x`` is channels-first (C, T) or (C, H, W).

    Each hidden layer is one conv node: conv, bias, ReLU, then ``mask``, a 0/1
    array that broadcasts against every hidden layer, so masked positions stay
    zero from layer to layer as they would in the zero padding of a separate signal.
    With ``last_relu`` the last layer's node ends in a ReLU too, without the mask.
    """
    conv = ad.conv1d if x.value.ndim == 2 else ad.conv2d
    acts = {}
    h = x
    n = spec.n_layers
    for i in range(1, n + 1):
        if i in spec.skips:
            h = ad.concat([acts[j] for j in spec.skips[i]], axis=0)
        if spec.separable:
            h = conv(h, leaves[f"cnn.l{i}.dw"], padding=padding, groups=h.value.shape[0])
        w = leaves[f"cnn.l{i}.pw" if spec.separable else f"cnn.l{i}.weight"]
        gate = {"relu": True, "mask": mask} if i < n else {"relu": last_relu}
        h = acts[i] = conv(h, w, leaves[f"cnn.l{i}.bias"], padding=padding, **gate)
    return h


@dataclass
class Predictive:
    """Per-target Gaussian means and deviations of a batch of tasks, as one node.

    ``out`` is (2 dim_y, sum M), dim_y mean rows over dim_y deviation rows, with
    the tasks' targets end to end: task k's are the columns ``offsets[k]:offsets[k + 1]``.
    ``mu`` and ``sigma`` view its halves, and ``mean`` and ``std`` their transposes.
    """

    out: ad.Node
    offsets: tuple  # B + 1 column boundaries, from 0 to sum M

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def task(self, k: int) -> slice:
        """Task k's columns of ``mu`` and ``sigma``, and its rows of ``mean`` and ``std``."""
        return slice(self.offsets[k], self.offsets[k + 1])

    @property
    def mu(self) -> np.ndarray:
        return self.out.value[: len(self.out.value) // 2]

    @property
    def sigma(self) -> np.ndarray:
        return self.out.value[len(self.out.value) // 2 :]

    @property
    def mean(self) -> np.ndarray:
        return self.mu.T

    @property
    def std(self) -> np.ndarray:
        return self.sigma.T


def _offsets(sizes) -> tuple:
    return tuple(np.cumsum([0, *sizes]).tolist())


def task_log_densities(pred: Predictive, targets) -> list:
    """Each task's target rows and their Gaussian log densities, both (dim_y, M) as
    ``pred.mu`` is, in task order; a task's targets may be (M,) or (M, dim_y).  Raises
    DiffError on an empty batch or target set, on targets that do not fit their
    task's predictions, and on a non-positive sigma."""
    cols = [pred.task(k) for k in range(len(pred))]
    rows = [np.atleast_2d(np.asarray(y, float).T) for y in targets]
    for y, c in zip(rows, cols, strict=True):
        if y.shape != pred.mu[:, c].shape:
            raise ad.DiffError(f"targets {y.T.shape} do not fit predictions {pred.mu[:, c].shape}")
    if not rows or min(y.size for y in rows) == 0:
        raise ad.DiffError("empty batch or target set")
    return [(y, ad.gaussian_ll(y, pred.mu[:, c], pred.sigma[:, c])) for y, c in zip(rows, cols)]


def batch_nll(pred: Predictive, targets) -> ad.Node:
    """Mean over tasks of each task's negative mean target log density.

    One node whose parent is ``pred.out``.  The value sums the per-task terms
    in task order, then scales by 1 / B.  The vjp adds 0.0, as :func:`head`'s does.
    """
    ys, lps = zip(*task_log_densities(pred, targets))
    terms = [-lp.mean() for lp in lps]
    scale = 1.0 / len(ys)

    def vjp(g, i):  # ((g / B) * -1 / M) times d log N / d mu and d sigma, task by task
        return np.concatenate([
            ad.gaussian_ll_grad(g * scale * -1.0 / y.size, y, pred.mu[:, c], pred.sigma[:, c])
            for y, c in zip(ys, map(pred.task, range(len(pred))))
        ], axis=1) + 0.0

    return ad.Node(sum(terms[1:], terms[0]) * scale, (pred.out,), vjp, op="batch_nll")


def nll_loss(pred: Predictive, target_y) -> ad.Node:
    """Negative mean Gaussian log density of the targets under a one-task ``pred``."""
    return batch_nll(pred, [target_y])


def decode(h: ad.Node, grids, cols, target_xs, log_length_scale: ad.Node,
           dim_y: int) -> Predictive:
    """Each task's EQ-basis readout from its columns ``cols[k]`` of ``h``, as one node.

    ``h`` holds dim_y mean channels, then dim_y that softplus makes positive;
    the deviations are floored after the readout.  The node stacks the means
    over the deviations.  The vjp adds the tasks' log-length-scale gradients in
    task order, and 0.0 to the gradient of ``h``, as :func:`head`'s does.
    """
    f_mu, (f_sigma, slope) = h.value[:dim_y], ad.softplus(h.value[dim_y:])
    bases = [learnable_psi_eval(log_length_scale.value, grid, x, grid_axis=0)
             for grid, x in zip(grids, target_xs)]
    offsets = _offsets(basis.shape[1] for basis, _ in bases)
    targets = [slice(a, b) for a, b in zip(offsets, offsets[1:])]
    value = np.concatenate([
        np.hstack([f_mu[:, c] @ basis for c, (basis, _) in zip(cols, bases)]),
        np.hstack([_floor(f_sigma[:, c] @ basis) for c, (basis, _) in zip(cols, bases)]),
    ])

    def vjp(g, i):  # per task, the floor's vjp and then the two matmuls'
        tasks = [(c, basis, basis_vjp, g[:dim_y, t], g[dim_y:, t] * (1.0 - SIGMA_FLOOR_WEIGHT))
                 for c, (basis, basis_vjp), t in zip(cols, bases, targets)]
        if i == 1:
            grads = [basis_vjp(f_mu[:, c].T @ g_mu + f_sigma[:, c].T @ g_sigma)
                     for c, _, basis_vjp, g_mu, g_sigma in tasks]
            return sum(grads[1:], grads[0])
        dh = np.zeros_like(h.value)
        for c, basis, _, g_mu, g_sigma in tasks:
            dh[:dim_y, c], dh[dim_y:, c] = g_mu @ basis.T, g_sigma @ basis.T
        dh[dim_y:] *= slope  # the softplus's vjp
        return dh + 0.0

    return Predictive(ad.Node(value, (h, log_length_scale), vjp, op="decode"), offsets)


class ConvCNP:
    """Off-grid translation-equivariant conditional neural process.

    Pipeline: anchored uniform grid over context and target inputs ->
    kernel-smoothed set embedding with density channel -> normalized
    division -> 1-D CNN -> EQ-basis readout of per-target mean and
    standard deviation (softplus keeps the deviation channel positive
    before the readout sum, and the deviation is floored after it).
    """

    def __init__(
        self,
        dim_y: int = 1,
        gamma: float = 32.0,
        cnn: CnnSpec | None = None,
        init_seed: int = 0,
    ):
        self.dim_y = dim_y
        self.gamma = float(gamma)
        self.cnn = cnn or CnnSpec.small(dim_y)
        # The CNN's receptive-field half-width in input units, so boundary
        # effects stay outside the data range.
        self.margin = self.cnn.receptive_field_steps() / self.gamma

        params = {
            "encoder.log_length_scale": init_log_length_scale(self.gamma),
            "readout.log_length_scale": init_log_length_scale(self.gamma),
        }
        rng = make_rng(init_seed, 0xC0)
        _init_cnn_params(params, self.cnn, 1 + dim_y, rng, ndim=1)
        self.params = ad.ParameterStore(params)

    def forward(self, task: Task, leaves=None) -> Predictive:
        return self.forward_many([task], leaves)

    def forward_many(self, tasks, leaves=None) -> Predictive:
        """One predictive for the batch, from the three stages: :func:`encode`,
        the CNN and :func:`decode`.

        Each task keeps its own anchored grid.  The grids are laid end to end
        along one (C, L) signal, with (k - 1) / 2 zero columns between
        neighbours, and a column mask keeps those gaps at zero after every
        hidden layer.  So each task's columns see exactly the zero padding
        they would see alone, and the readout uses only the task's own
        columns: the result matches a task-by-task run up to the rounding of
        the batched matmuls.
        """
        if leaves is None:
            leaves = self.params.constants()
        grids = [make_grid(t.context_x, t.target_x, self.gamma, self.margin) for t in tasks]
        starts = np.cumsum([0] + [grid.n_points + (KERNEL_SIZE - 1) // 2 for grid in grids])
        cols = [slice(start, start + grid.n_points) for start, grid in zip(starts, grids)]
        signal = encode([(t.context_x, t.context_y) for t in tasks], grids, cols,
                        leaves["encoder.log_length_scale"])
        mask = np.zeros((1, cols[-1].stop))
        for c in cols:
            mask[:, c] = 1.0
        # the division is elementwise, and a gap's 0 / eps stays 0
        h = cnn_forward(self.cnn, divide_by_density(signal), leaves, mask=mask)
        return decode(h, grids, cols, [t.target_x for t in tasks],
                      leaves["readout.log_length_scale"], self.dim_y)


def pool(encoded: ad.Node, counts, target_xs) -> ad.Node:
    """The CNP decoder's input, as one node: each target's x over its task's mean
    encoded context.  ``encoded`` holds the tasks' contexts end to end, task k's
    ``counts[k]`` columns in :func:`context_order`; a task's mean sums only its own
    columns, then divides by N, and an empty context pools to zeros.  The vjp
    hands each of a task's columns its targets' summed gradients, divided by N."""
    ctx, tgt = _offsets(counts), _offsets(map(len, target_xs))
    n = np.maximum(counts, 1)

    def means(x, offsets):  # column k: the sum of x's columns offsets[k]:offsets[k + 1], / n[k]
        return np.stack([x[:, a:b].sum(axis=1) for a, b in zip(offsets, offsets[1:])], 1) / n

    def vjp(g, i):
        return np.repeat(means(g[1:], tgt), counts, axis=1)

    rep = np.repeat(means(encoded.value, ctx), np.diff(tgt), axis=1)
    return ad.Node(np.vstack([np.concatenate(target_xs), rep]), (encoded,), vjp, op="pool")


class CNPBaseline:
    """Vanilla conditional neural process with mean pooling.

    Encoder: 3-layer ReLU MLP (128 units) on each (x, y) pair, then :func:`pool`
    takes each task's mean.  Decoder: same architecture on (x*, mean), emitting
    mean and pre-deviation channels.  The deviation is floored:
    sigma = 0.1 * 0.1 + 0.9 * softplus(pre).
    """

    HIDDEN = 128

    def __init__(self, dim_y: int = 1, init_seed: int = 0):
        self.dim_y = dim_y
        h = self.HIDDEN
        rng = make_rng(init_seed, 0xC1)
        params = {}
        for prefix, dims in (("enc", [1 + dim_y, h, h, h]), ("dec", [1 + h, h, h, 2 * dim_y])):
            for i in range(1, 4):
                params[f"{prefix}.l{i}.weight"] = _he_init(
                    rng, (dims[i], dims[i - 1]), dims[i - 1]
                )
                params[f"{prefix}.l{i}.bias"] = np.zeros((dims[i], 1))
        self.params = ad.ParameterStore(params)

    def _mlp(self, prefix, x, leaves):
        for i in range(1, 4):
            x = ad.dense(leaves[f"{prefix}.l{i}.weight"], x, leaves[f"{prefix}.l{i}.bias"],
                         relu=i < 3)
        return x

    def forward(self, task: Task, leaves=None) -> Predictive:
        return self.forward_many([task], leaves)

    def forward_many(self, tasks, leaves=None) -> Predictive:
        """One predictive for the batch: the encoder, :func:`pool` and the decoder.

        All context points go through the encoder together, each task's in
        ``context_order``, so pooling is exactly permutation invariant, and each
        task's mean reads only its own columns.
        """
        if leaves is None:
            leaves = self.params.constants()
        inputs = []
        for task in tasks:
            ctx_x = np.atleast_1d(np.asarray(task.context_x, float))
            ctx_y = np.asarray(task.context_y, float).reshape(ctx_x.size, self.dim_y)
            order = context_order(ctx_x, ctx_y)
            inputs.append(np.vstack([ctx_x[order], ctx_y[order].T]))
        target_xs = [np.atleast_1d(np.asarray(t.target_x, float)) for t in tasks]
        # one memory layout, which the encoder's GEMMs round by, whatever the contexts
        encoded = self._mlp("enc", ad.constant(np.ascontiguousarray(np.hstack(inputs))), leaves)
        out = self._mlp("dec", pool(encoded, [x.shape[1] for x in inputs], target_xs), leaves)
        return Predictive(head(out, floor=True), _offsets(map(len, target_xs)))


@dataclass
class GridPredictive:
    """Full-grid Gaussian prediction with the target mask attached.  ``out`` is
    (2 C, ...): C mean channels over C deviation channels, viewed by ``mean`` and ``std``."""

    out: ad.Node
    target_mask: np.ndarray

    @property
    def mean(self) -> np.ndarray:
        return self.out.value[: len(self.out.value) // 2]

    @property
    def std(self) -> np.ndarray:
        return self.out.value[len(self.out.value) // 2 :]


def _check_mask(mask, name, shape):
    """``mask`` as floats, if it is 0/1 and has the data's spatial ``shape``."""
    mask = np.asarray(mask, float)
    if not np.all((mask == 0) | (mask == 1)):
        raise ValueError(f"{name} must be binary")
    if mask.shape != shape:
        raise ValueError(f"{name} {mask.shape} must match the spatial shape {shape} of the data")
    return mask


class ConvCNPOnGrid:
    """ConvCNP for data living on a fixed grid (1-D or 2-D).

    The smoothing step is a convolution with a positivity-constrained
    trainable filter (elementwise absolute value): the density channel is
    the filtered context mask, the signal channels are the filtered masked
    data divided by the density.  A separable CNN plus a 1x1-conv head
    produce mean and deviation channels.  Every conv pads circularly, so the
    model is equivariant to circular shifts of the grid.
    """

    def __init__(
        self, channels: int = 1, ndim: int = 2, cnn: CnnSpec | None = None, init_seed: int = 0
    ):
        if ndim not in (1, 2):
            raise ValueError("ndim must be 1 or 2")
        self.channels = channels
        self.ndim = ndim
        self.cnn = replace(cnn or CnnSpec(channels=(16, 32, 16)), separable=True)

        rng = make_rng(init_seed, 0xC2)
        kshape = (1, 1) + (KERNEL_SIZE,) * ndim
        params = {"encoder.weight": np.abs(_he_init(rng, kshape, KERNEL_SIZE**ndim))}
        _init_cnn_params(params, self.cnn, 1 + channels, rng, ndim=ndim)
        head_shape = (2 * channels, self.cnn.channels[-1]) + (1,) * ndim
        params["head.weight"] = _he_init(rng, head_shape, self.cnn.channels[-1])
        params["head.bias"] = np.zeros(2 * channels)
        self.params = ad.ParameterStore(params)

    def encode(self, image, context_mask, leaves=None) -> ad.Node:
        """Density channel plus density-normalized smoothed signal channels."""
        if leaves is None:
            leaves = self.params.constants()
        image = np.asarray(image, float)
        if image.ndim != self.ndim + 1 or image.shape[0] != self.channels:
            raise ValueError(
                f"expected channels-first data with {self.channels} channels and "
                f"{self.ndim} spatial dims, got shape {image.shape}"
            )
        context_mask = _check_mask(context_mask, "context_mask", image.shape[1:])
        conv = ad.conv1d if self.ndim == 1 else ad.conv2d
        # one depthwise conv smooths the mask and every masked channel with
        # the same kernel
        stacked = np.concatenate([context_mask[None], context_mask[None] * image])
        smoothing = ad.concat([ad.absolute(leaves["encoder.weight"])] * len(stacked), axis=0)
        smoothed = conv(
            ad.constant(stacked), smoothing, padding="circular", groups=len(stacked)
        )
        return divide_by_density(smoothed)

    def forward(self, image, context_mask, target_mask, leaves=None) -> GridPredictive:
        if leaves is None:
            leaves = self.params.constants()
        image = np.asarray(image, float)
        target_mask = _check_mask(target_mask, "target_mask", image.shape[1:])
        conv = ad.conv1d if self.ndim == 1 else ad.conv2d
        h = self.encode(image, context_mask, leaves)
        h = cnn_forward(self.cnn, h, leaves, padding="circular", last_relu=True)
        out = conv(h, leaves["head.weight"], leaves["head.bias"], padding="circular")
        return GridPredictive(head(out, floor=False), target_mask)


def grid_nll_loss(pred: GridPredictive, image) -> ad.Node:
    """Negative mean log density over target-mask positions, as one node.

    The value sums the masked log densities, then scales by -1 / count; the
    vjp scales the incoming gradient by -1 / count, masks it, and adds 0.0.
    """
    image = np.asarray(image, float)
    mu, sigma = pred.mean, pred.std
    if not image.shape == mu.shape == sigma.shape:
        raise ad.DiffError(
            f"grid_nll_loss: image {image.shape} does not fit predictions {mu.shape}"
        )
    mask = np.broadcast_to(pred.target_mask[None], image.shape).copy()
    count = pred.target_mask.sum() * image.shape[0]
    if count == 0:
        raise ad.DiffError("grid_nll_loss: empty target mask")
    scale = -1.0 / count

    def vjp(g, i):
        masked = np.broadcast_to(g * scale, image.shape).copy() * mask
        return ad.gaussian_ll_grad(masked, image, mu, sigma) + 0.0

    value = (ad.gaussian_ll(image, mu, sigma) * mask).sum() * scale
    return ad.Node(value, (pred.out,), vjp, op="grid_nll_loss")
