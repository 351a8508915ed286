"""The cheap conv stack, the one-node losses and stages against their direct forms.

Each rewrite must perform the same floating-point operations in the same
order as the composition it replaces (``reference_tape.py``), so values and
gradients are compared for exact equality, signed zeros included.  The one
exception is the CNP's ``pool`` against the two matmuls it replaced, whose sums
round differently: it is held within 1e-12 relative.
"""

from dataclasses import replace

import numpy as np
import pytest

import reference_tape as ref
from convcnp import autodiff as ad
from convcnp import models, training
from convcnp.embedding import UniformGrid, divide_by_density
from convcnp.kernels import DATA_KERNELS
from convcnp.models import (
    CNPBaseline,
    CnnSpec,
    ConvCNP,
    ConvCNPOnGrid,
    GridPredictive,
    Predictive,
    batch_nll,
    grid_nll_loss,
    nll_loss,
)
from convcnp.oracle import GPOracle, gp_posterior_predict
from convcnp.synthdata import ProcessSpec, sample_task


def assert_bits_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def _inputs(rng, rank, contiguous):
    """A (3, *S) input; the non-contiguous one is a strided view of a larger array."""
    shape = (3,) + (6, 7)[:rank]
    if contiguous:
        return rng.normal(size=shape)
    big = rng.normal(size=(shape[0],) + tuple(2 * n for n in shape[1:]))
    return big[(slice(None),) + (slice(None, None, 2),) * rank]


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("width", [0, 1, 2])
@pytest.mark.parametrize("mode", ["zeros", "circular"])
@pytest.mark.parametrize("contiguous", [True, False])
def test_pad_matches_np_pad(rank, width, mode, contiguous):
    x = _inputs(np.random.default_rng(rank + 3 * width), rank, contiguous)
    assert x.flags.c_contiguous == contiguous
    assert_bits_equal(ad._pad(x, width, mode, "conv"), ref.pad(x, width, mode))


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("width", [0, 1, 2])
@pytest.mark.parametrize("groups", [1, 3])
@pytest.mark.parametrize("contiguous", [True, False])
def test_windows_match_sliding_window_view(rank, width, groups, contiguous):
    xp = _inputs(np.random.default_rng(rank + 3 * width), rank, contiguous)
    k = 2 * width + 1
    got = ad._windows(xp, k, groups)
    assert_bits_equal(got, ref.last_axis_windows(xp, k, groups))
    if rank == 1 or k == 1:  # along the one axis, or with one tap: the matrix over every axis
        assert_bits_equal(got, ref.windows(xp, k, groups))
    if k == 1 and contiguous:  # a 1x1 kernel's window matrix is its input, not a copy
        assert np.shares_memory(got, xp)


def _layer_grads(layer, arrays, g):
    """Value of ``layer`` on fresh leaves and the gradient of <layer, g> for each."""
    leaves = [ad.Node(a, needs_grad=True) for a in arrays]
    out = layer(*leaves)
    ad.backward(ref.reduce_sum(ad.mul(out, ad.constant(g))))
    return out.value, [leaf.grad for leaf in leaves]


# name -> (x shape, w shape, padding, column mask)
_LAYERS = {
    "1-D with a column mask": ((4, 23), (6, 4, 5), "zeros", True),
    "1-D, no mask": ((4, 23), (6, 4, 5), "zeros", False),
    "2-D circular 1x1": ((4, 7, 9), (6, 4, 1, 1), "circular", False),
    "2-D circular 5x5": ((4, 7, 9), (6, 4, 5, 5), "circular", False),
}


@pytest.mark.parametrize("case", list(_LAYERS))
def test_fused_layer_matches_conv_relu_mask(case):
    x_shape, w_shape, padding, masked = _LAYERS[case]
    rng = np.random.default_rng(len(case))
    arrays = [rng.normal(size=x_shape), rng.normal(size=w_shape), rng.normal(size=w_shape[0])]
    mask = None
    if masked:  # a gap of zero columns, as between two tasks of a batch
        mask = np.ones((1, x_shape[1]))
        mask[:, 10:12] = 0.0
    conv = ad.conv1d if len(x_shape) == 2 else ad.conv2d
    g = rng.normal(size=(w_shape[0],) + x_shape[1:])
    got = _layer_grads(
        lambda x, w, b: conv(x, w, b, padding=padding, relu=True, mask=mask), arrays, g
    )
    want = _layer_grads(
        lambda x, w, b: ref.conv_layer(x, w, b, padding, mask=mask), arrays, g
    )
    assert (got[0] == 0).any() and (got[0] > 0).any()
    assert_bits_equal(got[0], want[0])
    for a, b in zip(got[1], want[1], strict=True):
        assert_bits_equal(a, b)


@pytest.mark.parametrize("case", [c for c, layer in _LAYERS.items() if len(layer[0]) == 2])
@pytest.mark.parametrize("padding", ["zeros", "circular"])
@pytest.mark.parametrize("depthwise", [False, True])
def test_conv1d_matches_the_one_gemm_lowering(case, padding, depthwise):
    """1-D convs still run one matmul each for the value and both vjps."""
    x_shape, w_shape, _, _ = _LAYERS[case]
    if depthwise:  # two output channels per input channel
        w_shape = (2 * x_shape[0], 1, w_shape[2])
    groups = x_shape[0] if depthwise else 1
    rng = np.random.default_rng(len(case) + len(padding) + groups)
    x, w = rng.normal(size=x_shape), rng.normal(size=w_shape)
    g = rng.normal(size=(w_shape[0],) + x_shape[1:])
    got = _layer_grads(lambda x, w: ad.conv1d(x, w, padding=padding, groups=groups), [x, w], g)
    want = ref.one_gemm_conv(x, w, padding, groups, g)
    for a, b in zip((got[0], *got[1]), want, strict=True):
        assert_bits_equal(a, b)


@pytest.mark.parametrize("padding", ["zeros", "circular"])
def test_depthwise_conv1d_with_one_output_per_channel_matches_the_one_gemm_lowering(padding):
    """The separable layers of ``ConvCNPOnGrid(ndim=1)``: a (C, 1, 5) kernel with C
    groups.  Its flipped kernel reaches matmul as a strided view, and so does the
    window matrix of the padded gradient; the view of the windows keeps numpy's
    matmul outside BLAS whatever the kernel's layout, so the input gradient
    matches the lowering that reshapes both as views, bit for bit."""
    rng = np.random.default_rng(len(padding))
    x, w, g = rng.normal(size=(16, 40)), rng.normal(size=(16, 1, 5)), rng.normal(size=(16, 40))
    got = _layer_grads(lambda x, w: ad.conv1d(x, w, padding=padding, groups=16), [x, w], g)
    want = ref.one_gemm_conv(x, w, padding, 16, g)
    for a, b in zip((got[0], *got[1]), want, strict=True):
        assert_bits_equal(a, b)


@pytest.mark.parametrize("relu", [False, True])
def test_dense_matches_matmul_add_relu(relu):
    """A CNP layer as one node against ``matmul``, the broadcasting ``add`` of its
    (C, 1) bias and ``relu``: the value and the gradients of all three parents.
    A column of zero inputs leaves a pre-activation of exactly 0.0, which the
    ReLU gates, and a column of the incoming gradient is -0.0."""
    rng = np.random.default_rng(4 + relu)
    arrays = [rng.normal(size=(5, 3)), rng.normal(size=(3, 7)), rng.normal(size=(5, 1))]
    arrays[1][:, 2] = 0.0
    arrays[2][1] = 0.0
    g = rng.normal(size=(5, 7))
    g[:, 4] = -0.0

    def chain(w, x, b):
        h = ref.add(ref.matmul(w, x), b)
        return ref.relu(h) if relu else h

    got = _layer_grads(lambda w, x, b: ad.dense(w, x, b, relu=relu), arrays, g)
    want = _layer_grads(chain, arrays, g)
    for a, b in zip((got[0], *got[1]), (want[0], *want[1]), strict=True):
        assert_bits_equal(a, b)


@pytest.mark.parametrize("floor", [False, True])
def test_head_matches_the_narrow_softplus_chain(floor):
    """``models.head`` against two ``narrow``s, a softplus node and, for the CNP,
    the floor node: the value, and the gradient of the raw rows, sign bits
    included.  Deviation rows of -800 saturate the softplus's slope to 0.0, so
    the negative weights there make its vjp -0.0, which the narrows' zero-filled
    sum turned into 0.0; some weights of the mean rows are -0.0 as well."""
    rng = np.random.default_rng(3 + floor)
    x = rng.normal(size=(4, 9))
    x[2:, ::3] = -800.0
    weights = -np.abs(rng.normal(size=(4, 9)))
    weights[:2, 1::4] = -0.0
    results = []
    for staged in (True, False):
        leaf = ad.Node(x, needs_grad=True)
        if staged:
            out = models.head(leaf, floor)
            ad.backward(ref.reduce_sum(ad.mul(out, ad.constant(weights))))
            value = out.value
        else:
            mu, sigma = ref.head(leaf, ref.floor_sigma_node if floor else None)
            ad.backward(ad.add(ref.reduce_sum(ad.mul(mu, ad.constant(weights[:2]))),
                               ref.reduce_sum(ad.mul(sigma, ad.constant(weights[2:])))))
            value = np.concatenate([mu.value, sigma.value])
        results.append([value, leaf.grad])
    assert (results[0][1][2:, ::3] == 0).all() and (results[0][1][:2, 1::4] == 0).all()
    for a, b in zip(*results, strict=True):
        assert_bits_equal(a, b)


def test_concat_vjp_matches_np_split():
    rng = np.random.default_rng(5)
    arrays = [rng.normal(size=(3, n)) for n in (4, 1, 6)]
    g = rng.normal(size=(3, 11))
    got = _layer_grads(lambda *xs: ad.concat(xs, axis=1), arrays, g)
    want = _layer_grads(lambda *xs: ref.concat(xs, axis=1), arrays, g)
    for a, b in zip(got[1], want[1], strict=True):
        assert_bits_equal(a, b)


@pytest.mark.parametrize("n_tasks", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("dim_y", [1, 2])
@pytest.mark.parametrize("weight", [1.0, 0.3])  # the gradient the loss receives
def test_batch_nll_matches_per_task_losses(n_tasks, dim_y, weight):
    rng = np.random.default_rng(10 * n_tasks + dim_y)
    sizes = rng.integers(1, 9, size=n_tasks)
    arrays = []
    for m in sizes:
        arrays += [rng.normal(size=(dim_y, m)), rng.uniform(0.05, 2.0, size=(dim_y, m))]
    ys = [rng.normal(size=(m, dim_y)) for m in sizes]

    def preds(*nodes):
        return [ref.PredictiveDistribution(mu, sigma) for mu, sigma in zip(nodes[::2], nodes[1::2])]

    results = []
    for loss in (lambda ps, ys: batch_nll(ref.joined(ps), ys), ref.batch_nll):
        leaves = [ad.Node(a, needs_grad=True) for a in arrays]
        value = loss(preds(*leaves), ys)
        ad.backward(ad.mul(value, ad.constant(np.asarray(weight))))
        results.append((value.value, [leaf.grad for leaf in leaves]))
    (value, grads), (want_value, want_grads) = results
    assert_bits_equal(value, want_value)
    for a, b in zip(grads, want_grads, strict=True):
        assert_bits_equal(a, b)
    if n_tasks == 1:
        one = Predictive(ad.constant(np.concatenate(arrays)), (0, sizes[0]))
        assert_bits_equal(nll_loss(one, ys[0]).value, value)


@pytest.mark.parametrize("grid", [False, True])
def test_losses_match_the_narrows_of_their_one_parent(grid):
    """``batch_nll`` and ``grid_nll_loss`` over one node of means over deviations,
    against the chains over two ``narrow``s of it: the loss and the node's
    gradient, sign bits included.  A target equal to its mean, and on the grid
    a position outside the target mask, gives a gradient of -0.0, which the
    narrows' zero-filled sum turned into 0.0."""
    rng = np.random.default_rng(7)
    shape = (3, 5) if grid else (9,)
    mean = rng.normal(size=(2,) + shape)
    target = mean + rng.normal(size=mean.shape)
    target.flat[::4] = mean.flat[::4]
    out = np.concatenate([mean, rng.uniform(0.5, 2.0, size=mean.shape)])
    mask = (rng.random(shape) < 0.6).astype(float)
    results = []
    for staged in (True, False):
        leaf = ad.Node(out, needs_grad=True)
        if grid and staged:
            value = grid_nll_loss(GridPredictive(leaf, mask), target)
        elif grid:
            pred = ref.GridPrediction(ref.narrow(leaf, 0, 0, 2), ref.narrow(leaf, 0, 2, 2), mask)
            value = ref.grid_nll_loss(pred, target)
        else:  # two tasks; the reference splits the Predictive by narrow
            ys = [target[:, :4].T, target[:, 4:].T]
            value = (batch_nll if staged else ref.batch_nll)(Predictive(leaf, (0, 4, 9)), ys)
        ad.backward(ad.mul(value, ad.constant(np.asarray(0.3))))
        results.append([value.value, leaf.grad])
    assert (results[0][1] == 0).any()
    for a, b in zip(*results, strict=True):
        assert_bits_equal(a, b)


def _grid_examples(rng, n, channels, shape):
    """``n`` (image, context mask, target mask) triples with mixed target masks."""
    out = []
    for _ in range(n):
        context = (rng.random(shape) < 0.4).astype(float)
        context.flat[:2] = (1.0, 0.0)  # neither mask empty
        out.append((rng.normal(size=(channels,) + shape), context, 1.0 - context))
    return out


def _grid_model(channels, ndim):
    return ConvCNPOnGrid(channels=channels, ndim=ndim, cnn=CnnSpec(channels=(3,)), init_seed=3)


def _grid_batch_loss(model, batch, leaves, staged=True):
    """One image's loss, or a batch's as ``perfbench``'s ``OnGrid`` composes it,
    and each image's means over deviations: from the model's forward and loss,
    or from their op-by-op chains."""
    losses, outs = [], []
    for img, ctx, tgt in batch:
        if staged:
            pred = model.forward(img, ctx, tgt, leaves=leaves)
            losses.append(grid_nll_loss(pred, img))
            outs.append(pred.out.value)
        else:
            pred = ref.ongrid_forward(model, img, ctx, tgt, leaves)
            losses.append(ref.grid_nll_loss(pred, img))
            outs.append(np.concatenate([pred.mu.value, pred.sigma.value]))
    return (losses[0] if len(losses) == 1 else ref.mean_loss(losses)), outs


@pytest.mark.parametrize("ndim, shape", [(1, (11,)), (2, (5, 6))])
@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("weight", [1.0, 0.3])  # the gradient the loss receives
@pytest.mark.parametrize("n_images", [1, 4])
def test_grid_nll_matches_the_four_node_chain(
    ndim, shape, channels, weight, n_images, monkeypatch
):
    """The on-grid loss, its head, and the density division of its encoder,
    against their chains: predictions, loss and every leaf gradient."""
    model = _grid_model(channels, ndim)
    batch = _grid_examples(np.random.default_rng(ndim + 7 * channels), n_images, channels, shape)
    results = []
    for staged, divide in ((True, divide_by_density), (False, ref.divide_by_density)):
        monkeypatch.setattr(models, "divide_by_density", divide)
        leaves = model.params.leaves()
        value, outs = _grid_batch_loss(model, batch, leaves, staged)
        ad.backward(ad.mul(value, ad.constant(np.asarray(weight))))
        results.append([value.value, *outs] + [leaf.grad for leaf in leaves.values()])
    for a, b in zip(*results, strict=True):
        assert_bits_equal(a, b)


def test_grid_adam_steps_match_the_four_node_chain():
    batches = [_grid_examples(np.random.default_rng(k), 2, 1, (6, 5)) for k in range(3)]
    stores = []
    for staged in (True, False):
        model = _grid_model(1, 2)
        store = model.params
        for batch in batches:
            leaves = store.leaves()
            ad.backward(_grid_batch_loss(model, batch, leaves, staged)[0])
            store.accumulate(leaves)
            ad.adam_step(store, 1e-3)
        stores.append(store)
    for field in ("value", "m", "v"):
        assert_bits_equal(getattr(stores[0], field), getattr(stores[1], field))


def _tape_size(roots):
    """Nodes reachable from ``roots`` through ``_parents``, roots included."""
    seen = {id(root) for root in roots}
    stack = list(roots)
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def test_grid_loss_adds_one_tape_node_per_image():
    model = _grid_model(2, 2)
    batch = _grid_examples(np.random.default_rng(1), 3, 2, (5, 6))
    leaves = model.params.leaves()
    preds = [model.forward(img, ctx, tgt, leaves=leaves) for img, ctx, tgt in batch]
    losses = [models.grid_nll_loss(p, img) for p, (img, _, _) in zip(preds, batch)]
    forward = _tape_size([p.out for p in preds])
    assert _tape_size(losses) == forward + len(batch)


def test_the_on_grid_cnn_gates_its_last_conv_node():
    """The ReLU after the on-grid CNN is its last conv node's gate: a 28x28
    image's tape has 26 nodes, none of them a ``relu``."""
    model = ConvCNPOnGrid(channels=1, ndim=2, init_seed=3)
    img, ctx, tgt = _grid_examples(np.random.default_rng(2), 1, 1, (28, 28))[0]
    loss = grid_nll_loss(model.forward(img, ctx, tgt, leaves=model.params.leaves()), img)
    ops, seen, stack = [], set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            ops.append(node.op)
            stack.extend(node._parents)
    assert len(ops) == 26 and "relu" not in ops


@pytest.mark.parametrize("shape", [(2, 9), (3, 9), (4, 3, 5)])
def test_density_node_matches_the_five_node_chain(shape):
    rng = np.random.default_rng(len(shape) + shape[0])
    x = rng.normal(size=shape)
    x[0] = np.abs(x[0])
    x[0, 1] = 0.0  # no context mass: the signal divides by DENSITY_EPS alone
    g = rng.normal(size=shape)
    g[:, 2] = -0.0  # an incoming -0.0 leaves as 0.0 in every row
    got = _layer_grads(divide_by_density, [x], g)
    want = _layer_grads(ref.divide_by_density, [x], g)
    for a, b in zip((got[0], *got[1]), (want[0], *want[1]), strict=True):
        assert_bits_equal(a, b)
    channels = ad.Node(x, needs_grad=True)
    assert _tape_size([divide_by_density(channels)]) == 2


@pytest.mark.parametrize("kind", ["eq", "lotka-volterra", "cnp"])
@pytest.mark.parametrize("weight", [1.0, 0.3])  # the gradient the loss receives
def test_off_grid_models_match_the_op_by_op_stages(kind, weight, monkeypatch):
    """The ConvCNP's density division, and the CNP's layers and head with its
    deviation floor as a ``mul`` and an ``add``, against their chains, on
    three tasks laid end to end with gap columns between their grids.  The
    ConvCNP floors inside ``decode``, pinned by the tests of the stages below."""
    dim_y = 2 if kind == "lotka-volterra" else 1
    process = ProcessSpec.default_for("eq" if kind == "cnp" else kind)
    tasks = [sample_task(process, seed) for seed in range(3)]
    ys = [t.target_y for t in tasks]
    results = []
    for staged in (True, False):
        monkeypatch.setattr(models, "divide_by_density",
                            divide_by_density if staged else ref.divide_by_density)
        if kind == "cnp":
            model = CNPBaseline(init_seed=1)
        else:
            model = ConvCNP(dim_y=dim_y, gamma=16.0, cnn=CnnSpec.small(dim_y), init_seed=4)
        leaves = model.params.leaves()
        if staged or kind != "cnp":
            pred = model.forward_many(tasks, leaves=leaves)
            value, arrays = batch_nll(pred, ys), [pred.mu, pred.sigma]
        else:
            preds = ref.cnp_forward_many(model, tasks, leaves, floor=ref.floor_sigma)
            value = ref.per_task_batch_nll(preds, ys)
            arrays = [np.hstack([getattr(p, a).value for p in preds]) for a in ("mu", "sigma")]
        ad.backward(ad.mul(value, ad.constant(np.asarray(weight))))
        results.append([value.value, *arrays] + [leaf.grad for leaf in leaves.values()])
    for a, b in zip(*results, strict=True):
        assert_bits_equal(a, b)


def test_cnn_forward_with_skips_matches_the_op_by_op_stack():
    spec = CnnSpec(channels=(3, 4, 4, 2), skips={3: (1, 2), 4: (1, 3)})
    model = ConvCNP(gamma=8.0, cnn=spec, init_seed=2)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 30))
    mask = np.ones((1, 30))
    mask[:, 14:16] = 0.0
    results = []
    for forward in (models.cnn_forward, ref.cnn_forward):
        leaves = model.params.leaves()
        signal = ad.Node(x, needs_grad=True)
        out = forward(spec, signal, leaves, mask=mask)
        ad.backward(ref.reduce_sum(ad.mul(out, out)))
        results.append([out.value, signal.grad] + [leaf.grad for leaf in leaves.values()])
    for a, b in zip(*results, strict=True):
        assert_bits_equal(a, b)


_STEP_MODELS = {  # name -> (model, process kind; None for 28x28 images)
    "convcnp-small-eq": (lambda: ConvCNP(gamma=16.0, init_seed=4), "eq"),
    "convcnp-small-lv": (lambda: ConvCNP(dim_y=2, gamma=16.0, init_seed=4), "lotka-volterra"),
    "convcnp-xl-sawtooth": (lambda: ConvCNP(gamma=16.0, cnn=CnnSpec.xl(1), init_seed=4),
                            "sawtooth"),
    "cnp": (lambda: CNPBaseline(init_seed=1), "eq"),
    "ongrid-2d": (lambda: ConvCNPOnGrid(channels=1, ndim=2, init_seed=3), None),
}


@pytest.mark.parametrize("case", list(_STEP_MODELS))
def test_freeing_walk_matches_the_keep_everything_walk(case):
    """One training step of four tasks or images: ``backward``, which frees
    the tape as it walks it, against the walk that keeps every node."""
    build, kind = _STEP_MODELS[case]
    model = build()
    results = []
    for walk in (ad.backward, ref.backward):
        leaves = model.params.leaves()
        if kind is None:
            batch = _grid_examples(np.random.default_rng(5), 4, 1, (28, 28))
            loss = _grid_batch_loss(model, batch, leaves)[0]
        else:
            tasks = [sample_task(ProcessSpec.default_for(kind), seed) for seed in range(4)]
            loss = batch_nll(model.forward_many(tasks, leaves=leaves), [t.target_y for t in tasks])
        walk(loss)
        results.append([loss.value] + [leaf.grad for leaf in leaves.values()])
    assert len(results[0]) == len(model.params.items()) + 1
    for a, b in zip(*results, strict=True):
        assert_bits_equal(a, b)


def _train_two_blocks(model, process):
    for block in range(2):
        config = training.TrainConfig(
            epochs=1, batches_per_epoch=3, batch_size=3, n_val_tasks=2, seed=block
        )
        training.train(model, config, process)
    return model.params


@pytest.mark.parametrize("kind", ["eq", "lotka-volterra"])
def test_train_matches_the_op_by_op_composition(kind, monkeypatch):
    dim_y = 2 if kind == "lotka-volterra" else 1
    process = ProcessSpec.default_for(kind)

    def model():
        return ConvCNP(dim_y=dim_y, gamma=16.0, cnn=CnnSpec.small(dim_y), init_seed=4)

    store = _train_two_blocks(model(), process)
    with monkeypatch.context() as patch:
        patch.setattr(ad, "_pad", ref.pad)
        patch.setattr(ad, "_windows", ref.windows)
        patch.setattr(ad, "concat", ref.concat)
        patch.setattr(models, "cnn_forward", ref.cnn_forward)
        patch.setattr(training, "batch_nll", ref.batch_nll)
        patch.setattr(models, "divide_by_density", ref.divide_by_density)
        want = _train_two_blocks(model(), process)
    assert store.step == want.step == 6
    for field in ("value", "m", "v"):
        assert_bits_equal(getattr(store, field), getattr(want, field))


_OFF_GRID = [case for case, (_, kind) in _STEP_MODELS.items() if kind]


def _tasks(kind, n, seed=0):
    """``n`` tasks; of more than one, the second has an empty context."""
    tasks = [sample_task(ProcessSpec.default_for(kind), seed + k) for k in range(n)]
    if n > 1:
        tasks[1] = replace(tasks[1], context_x=tasks[1].context_x[:0],
                           context_y=tasks[1].context_y[:0])
    return tasks


def _reference_forward(model, tasks, leaves):
    """``forward_many`` as the per-task chains: one ``PredictiveDistribution`` per task."""
    if isinstance(model, CNPBaseline):
        return ref.cnp_forward_many(model, tasks, leaves)
    return ref.convcnp_forward_many(model, tasks, leaves)


@pytest.mark.parametrize("n_tasks", [1, 4, 8])
@pytest.mark.parametrize("case", _OFF_GRID)
def test_stages_match_the_per_task_chains(case, n_tasks):
    """The ConvCNP's encode, CNN and decode stages, and the CNP's one Predictive,
    against the per-task nodes they replace: predictions, loss and every leaf
    gradient."""
    build, kind = _STEP_MODELS[case]
    model = build()
    tasks = _tasks(kind, n_tasks)
    ys = [t.target_y for t in tasks]
    results = []
    for staged in (True, False):
        leaves = model.params.leaves()
        if staged:
            pred = model.forward_many(tasks, leaves=leaves)
            loss = batch_nll(pred, ys)
            arrays = [a[:, pred.task(k)] for k in range(n_tasks) for a in (pred.mu, pred.sigma)]
        else:
            preds = _reference_forward(model, tasks, leaves)
            loss = ref.per_task_batch_nll(preds, ys)
            arrays = [a for p in preds for a in (p.mu.value, p.sigma.value)]
        ad.backward(ad.mul(loss, ad.constant(np.asarray(0.3))))
        results.append([loss.value, *arrays, *(leaf.grad for leaf in leaves.values())])
    assert len(results[0]) == 1 + 2 * n_tasks + len(model.params.items())
    for a, b in zip(*results, strict=True):
        assert_bits_equal(a, b)


@pytest.mark.parametrize("dim_y", [1, 2])
@pytest.mark.parametrize("n_tasks", [1, 3])
def test_decode_matches_the_per_task_readout(dim_y, n_tasks):
    """The gradients reaching ``h`` and the log length scale.  Grids of 300
    points reach past every target's window, where the basis is 0.0.  Below
    -709 the softplus's slope is 0.0, so negative weights make its vjp -0.0
    there, which the narrows of the per-task readout turned into 0.0.  Every
    third weight of a later task is -0.0, and reaches both sides as -0.0."""
    rng = np.random.default_rng(10 * dim_y + n_tasks)
    grids = [UniformGrid(lower=-2.0 + 20 * k, spacing=1 / 16, n_points=300 + 5 * k)
             for k in range(n_tasks)]
    starts = np.cumsum([0] + [grid.n_points + 2 for grid in grids[:-1]])
    cols = [slice(start, start + grid.n_points) for start, grid in zip(starts, grids)]
    target_xs = [rng.uniform(-1.0, 0.0, size=4 + k) + 20 * k for k in range(n_tasks)]
    h = rng.normal(size=(2 * dim_y, cols[-1].stop))
    h[dim_y:, ::7] = -800.0
    weights = -np.abs(rng.normal(size=(2, dim_y, sum(map(len, target_xs)))))
    weights[:, :, 4::3] = -0.0
    results = []
    for staged in (True, False):
        leaves = [ad.Node(h, needs_grad=True), ad.Node(np.log(2 / 16), needs_grad=True)]
        if staged:
            pred = models.decode(leaves[0], grids, cols, target_xs, leaves[1], dim_y)
            ad.backward(ref.reduce_sum(ad.mul(pred.out, ad.constant(np.concatenate(weights)))))
            arrays = [pred.mu, pred.sigma]
        else:
            preds = ref.readout(leaves[0], grids, starts, target_xs, leaves[1], dim_y)
            mu, sigma = (ad.concat([getattr(p, a) for p in preds], axis=1) for a in ("mu", "sigma"))
            ad.backward(ad.add(ref.reduce_sum(ad.mul(mu, ad.constant(weights[0]))),
                               ref.reduce_sum(ad.mul(sigma, ad.constant(weights[1])))))
            arrays = [mu.value, sigma.value]
        results.append(arrays + [leaf.grad for leaf in leaves])
    assert (results[0][2] == 0).any()
    for a, b in zip(*results, strict=True):
        assert_bits_equal(a, b)


@pytest.mark.parametrize("kind", ["eq", "lotka-volterra"])
def test_cnp_pool_stays_within_1e_12_of_the_matmul_chain(kind):
    """``pool`` against the averaging and spread matmuls it replaced, on eight
    tasks with an empty context: predictions, each task's log densities, the loss
    and every leaf gradient.  The sums round differently, so this is not bit for bit."""
    dim_y = 2 if kind == "lotka-volterra" else 1
    model = CNPBaseline(dim_y=dim_y, init_seed=1)
    tasks = _tasks(kind, 8)
    ys = [t.target_y for t in tasks]
    results = []
    for staged in (True, False):
        leaves = model.params.leaves()
        pred = (model.forward_many(tasks, leaves=leaves) if staged
                else ref.joined(ref.cnp_forward_many_matmul(model, tasks, leaves)))
        loss = batch_nll(pred, ys)
        ad.backward(loss)
        lps = [lp for _, lp in models.task_log_densities(pred, ys)]
        results.append([pred.out.value, *lps, loss.value, *(leaf.grad for leaf in leaves.values())])
    for a, b in zip(*results, strict=True):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


_TAPE_NODES = {"convcnp-small-eq": 18, "convcnp-small-lv": 18, "convcnp-xl-sawtooth": 47,
               "cnp": 22}


@pytest.mark.parametrize("case", _OFF_GRID)
def test_a_training_step_builds_the_same_tape_at_any_batch_size(case):
    """Steps of 4 and of 8 tasks build as many nodes: stages, and no per-task glue."""
    build, kind = _STEP_MODELS[case]
    model = build()
    sizes = []
    for n_tasks in (4, 8):
        tasks = _tasks(kind, n_tasks)
        pred = model.forward_many(tasks, leaves=model.params.leaves())
        sizes.append(_tape_size([batch_nll(pred, [t.target_y for t in tasks])]))
    assert sizes == [_TAPE_NODES[case]] * 2


def _joined_reference_forward(model, tasks, leaves=None):
    """The per-task chains joined into one ``Predictive``, for ``train`` and ``evaluate``."""
    return ref.joined(_reference_forward(
        model, tasks, model.params.constants() if leaves is None else leaves
    ))


@pytest.mark.parametrize("case", _OFF_GRID)
def test_train_matches_the_per_task_chains(case, monkeypatch):
    """The store's value and Adam moments after training, bit for bit."""
    build, kind = _STEP_MODELS[case]
    process = ProcessSpec.default_for(kind)
    store = _train_two_blocks(build(), process)
    model = build()
    monkeypatch.setattr(type(model), "forward_many", _joined_reference_forward)
    want = _train_two_blocks(model, process)
    assert store.step == want.step == 6
    for field in ("value", "m", "v"):
        assert_bits_equal(getattr(store, field), getattr(want, field))


@pytest.mark.parametrize("case", [*_OFF_GRID, "gp-oracle"])
def test_evaluate_matches_the_per_task_scoring(case):
    """evaluate's per-task log likelihoods and errors against each task scored
    alone, over two chunks of tasks."""
    if case == "gp-oracle":
        model, kind = GPOracle(DATA_KERNELS["eq"]), "eq"

        def per_task(chunk):
            moments = [gp_posterior_predict(model.kernel, t.context_x, t.context_y[:, 0],
                                            t.target_x) for t in chunk]
            return [ref.PredictiveDistribution(ad.constant(mean[None]), ad.constant(std[None]))
                    for mean, std in moments]
    else:
        build, kind = _STEP_MODELS[case]
        model = build()

        def per_task(chunk):
            return _reference_forward(model, chunk, model.params.constants())
    tasks = _tasks(kind, 11, seed=20)
    summary = training.evaluate(model, tasks)
    lls, mses = [], []
    for start in range(0, len(tasks), training._EVAL_CHUNK):
        chunk = tasks[start : start + training._EVAL_CHUNK]
        for task, pred in zip(chunk, per_task(chunk), strict=True):
            lls.append(ref.log_likelihood_per_point(pred, task.target_y))
            mses.append(float(np.mean((pred.mean - task.target_y) ** 2)))
    assert_bits_equal(summary.per_task_ll, np.asarray(lls))
    assert_bits_equal(summary.per_task_mse, np.asarray(mses))
    assert summary.mean_ll == float(np.mean(lls))


class TestGridLossChecks:
    def pred(self, target_mask, sigma=1.0):
        out = np.concatenate([np.zeros((2, 3, 4)), np.full((2, 3, 4), sigma)])
        return GridPredictive(ad.Node(out, needs_grad=True), target_mask)

    @pytest.mark.parametrize("shape", [(2, 3, 5), (1, 3, 4), (2, 12)])
    def test_image_that_does_not_fit_the_prediction(self, shape):
        with pytest.raises(ad.DiffError, match="does not fit"):
            grid_nll_loss(self.pred(np.ones((3, 4))), np.zeros(shape))

    def test_empty_target_mask(self):
        with pytest.raises(ad.DiffError, match="empty target mask"):
            grid_nll_loss(self.pred(np.zeros((3, 4))), np.zeros((2, 3, 4)))

    def test_nonpositive_sigma(self):
        pred = self.pred(np.ones((3, 4)), sigma=0.0)
        with pytest.raises(ad.DiffError, match="sigma must be positive"):
            grid_nll_loss(pred, np.zeros((2, 3, 4)))


class TestNonFiniteNamesTheOp:
    # (channel 0, channel 1) at one input position: a pre-activation of +inf,
    # -inf, or nan from inf - inf; ReLU would turn the last two into 0
    @pytest.mark.parametrize("bad", [(1e300, 0.0), (-1e300, 0.0), (1e300, -1e300)])
    @pytest.mark.parametrize("rank", [1, 2])
    def test_fused_layer(self, bad, rank):
        x = np.zeros((2,) + (5,) * rank)
        x[(slice(None),) + (2,) * rank] = bad
        w = ad.Node(np.full((3, 2) + (3,) * rank, 1e10), needs_grad=True)
        conv = ad.conv1d if rank == 1 else ad.conv2d
        mask = np.ones((1,) * (rank + 1))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ad.DiffError, match=f"op 'conv{rank}d' produced non-finite"
        ):
            conv(ad.constant(x), w, relu=True, mask=mask)

    def test_batch_loss(self):
        out = np.concatenate([np.zeros((1, 6)), np.ones((1, 6))])
        out[1, 3:] = 1e-200  # the second task's deviations
        pred = Predictive(ad.Node(out, needs_grad=True), (0, 3, 6))
        with np.errstate(over="ignore"), pytest.raises(
            ad.DiffError, match="op 'batch_nll' produced non-finite"
        ):
            batch_nll(pred, [np.ones(3), np.ones(3)])

    def test_grid_loss(self):
        out = np.concatenate([np.zeros((1, 2, 3)), np.ones((1, 2, 3))])
        out[1, 1, 2] = 1e-200  # a deviation
        pred = GridPredictive(ad.Node(out, needs_grad=True), np.ones((2, 3)))
        with np.errstate(over="ignore"), pytest.raises(
            ad.DiffError, match="op 'grid_nll_loss' produced non-finite"
        ):
            grid_nll_loss(pred, np.ones((1, 2, 3)))

    def test_nodes_keep_their_op(self):
        x = ad.Node(np.ones((2, 5)), needs_grad=True)
        assert ad.add(x, x).op == "add"
        assert ad.conv1d(x, ad.constant(np.ones((1, 2, 3))), relu=True).op == "conv1d"
