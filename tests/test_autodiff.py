import ast
import dataclasses
import json
import tracemalloc
import warnings
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

from convcnp import autodiff as ad
from convcnp.models import (
    CNPBaseline,
    CnnSpec,
    ConvCNP,
    ConvCNPOnGrid,
    batch_nll,
    grid_nll_loss,
)
from convcnp.synthdata import ProcessSpec, sample_task
from conftest import PRIMITIVE_OPS, primitive_case, primitive_grad_error
from reference_adam import reference_adam_step, reference_params
from reference_tape import matmul, mean_loss, reduce_sum, softplus


def test_softplus_at_zero():
    value, slope = ad.softplus(np.asarray(0.0))
    assert value == pytest.approx(np.log(2.0)) and slope == 0.5


def _softplus_vjp(x):
    """The softplus slope at ``x``, with any floating-point warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, slope = ad.softplus(np.asarray(x, float))
    np.testing.assert_array_equal(value, np.logaddexp(0.0, x))
    return slope


def test_softplus_vjp_matches_expit():
    from scipy.special import expit

    x = np.linspace(-800.0, 800.0, 400_001)
    got, ref = _softplus_vjp(x), expit(x)
    # Both lie in [0, 1], so the difference of their bit patterns counts ulps.
    ulps = np.abs(got.view(np.int64) - ref.view(np.int64))
    # Each is within 2 ulp of the exact sigmoid.  They take exp from different
    # libraries, so they can sit on opposite sides of it: up to 4 ulp apart
    # near x = -37, where exp(-x) passes 2**53 and 1 + exp(-x) rounds.
    assert ulps.max() <= 4
    with localcontext() as ctx:
        ctx.prec = 40
        exact = np.array([float(1 / (1 + (-Decimal(v)).exp())) for v in x[ulps > 0]])
    assert np.abs(got[ulps > 0].view(np.int64) - exact.view(np.int64)).max() <= 2


def test_softplus_vjp_saturates_exactly():
    tails = np.array([-1e300, -800.0, -710.0, 710.0, 800.0, 1e300])
    np.testing.assert_array_equal(_softplus_vjp(tails), [0.0, 0.0, 0.0, 1.0, 1.0, 1.0])


def test_conv1d_impulse_center():
    x = ad.constant(np.array([[0.0, 0.0, 1.0, 0.0, 0.0]]))
    w = ad.constant(np.array([[[1.0, 2.0, 3.0]]]))
    out = ad.conv1d(x, w)
    assert out.value[0, 2] == 2.0
    # cross-correlation: the impulse response reads the kernel reversed
    np.testing.assert_allclose(out.value[0, 1:4], [3.0, 2.0, 1.0])


def test_gaussian_log_pdf_at_mean():
    assert ad.gaussian_ll(1.5, 1.5, 1.0) == pytest.approx(-0.9189385332046727)


def test_gaussian_log_pdf_rejects_nonpositive_sigma():
    with pytest.raises(ad.DiffError, match="sigma"):
        ad.gaussian_ll(np.array(0.0), np.array(0.0), np.array(0.0))


def test_backward_sum_gives_ones():
    x = ad.Node(np.random.default_rng(0).normal(size=(3, 5)), needs_grad=True)
    ad.backward(reduce_sum(x))
    np.testing.assert_array_equal(x.grad, np.ones((3, 5)))


def test_backward_quadratic():
    x = ad.Node(np.array([1.0, 2.0]), needs_grad=True)
    ad.backward(reduce_sum(ad.mul(x, x)))
    np.testing.assert_allclose(x.grad, [2.0, 4.0])


def test_backward_requires_scalar():
    x = ad.constant(np.ones(3))
    with pytest.raises(ad.DiffError, match="scalar"):
        ad.backward(x)


def test_backward_accumulates_without_reset():
    x = ad.Node(np.array([3.0]), needs_grad=True)
    loss = reduce_sum(ad.mul(x, x))
    ad.backward(loss)
    first = x.grad.copy()
    loss2 = reduce_sum(ad.mul(x, x))
    # fresh graph over the same leaf: gradients add
    assert loss2._parents[0]._parents == (x, x)
    ad.backward(loss2)
    np.testing.assert_allclose(x.grad, 2 * first)


def test_random_three_op_graph_matches_finite_differences():
    rng = np.random.default_rng(42)
    store = ad.ParameterStore({"a": rng.normal(size=(2, 3)), "b": rng.normal(size=(3, 2))})

    def builder(leaves):
        prod = matmul(leaves["a"], leaves["b"])
        return reduce_sum(softplus(ad.mul(prod, prod)))

    assert ad.grad_check(builder, store, step=1e-5) < 1e-5


@pytest.mark.parametrize("op", PRIMITIVE_OPS)
def test_primitive_gradients(op):
    worst = max(primitive_grad_error(op, seed) for seed in range(5))
    assert worst < 1e-5
    # each parameter's gradient is the same, bit for bit, when it alone takes
    # one; the other parents then stay constants that backward never touches
    builder, store = primitive_case(op, seed=0)
    every = store.leaves()
    ad.backward(builder(every))
    for name, p in store.items():
        alone = store.constants()
        alone[name] = ad.Node(p.value, needs_grad=True)
        ad.backward(builder(alone))
        np.testing.assert_array_equal(alone[name].grad, every[name].grad)
        assert all(alone[other]._grad is None for other in alone if other != name)


def _training_tape(model):
    """The loss of one training step of four tasks or images, as ``train`` and
    ``perfbench`` build it."""
    leaves = model.params.leaves()
    if isinstance(model, ConvCNPOnGrid):
        rng = np.random.default_rng(0)
        context = (rng.random((6, 5)) < 0.4).astype(float)
        losses = []
        for _ in range(4):
            image = rng.normal(size=(1, 6, 5))
            pred = model.forward(image, context, 1.0 - context, leaves=leaves)
            losses.append(grid_nll_loss(pred, image))
        return mean_loss(losses)
    process = ProcessSpec.default_for("lotka-volterra" if model.dim_y == 2 else "eq")
    tasks = [sample_task(process, seed) for seed in range(4)]
    preds = model.forward_many(tasks, leaves=leaves)
    return batch_nll(preds, [t.target_y for t in tasks])


# the op a primitive case checks, where the case has another name
_CASE_OF_OP = {"grid_nll_loss": "grid_nll"}


@pytest.mark.parametrize("model", [
    ConvCNP(gamma=16.0), ConvCNP(dim_y=2, gamma=16.0), CNPBaseline(),
    ConvCNPOnGrid(cnn=CnnSpec(channels=(3,))),
], ids=["convcnp-eq", "convcnp-lv", "cnp", "ongrid"])
def test_every_op_on_a_training_tape_has_a_primitive_case(model):
    ops, seen, stack = set(), set(), [_training_tape(model)]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            ops.add(node.op)
            stack.extend(node._parents)
    checked = {case.split("-")[0] for case in PRIMITIVE_OPS}
    assert {_CASE_OF_OP.get(op, op) for op in ops} - {"const"} <= checked


def _package_uses(path, modules):
    """The (module, function) pairs of ``convcnp`` that a file uses: attributes of
    a package module under any alias, names imported from one and then read, and,
    in a package module, its own top-level names read outside their own body."""
    tree = ast.parse(path.read_text())
    aliases, imported = {}, {}  # local name -> module, and -> (module, name)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = (node.module or "").rpartition(".")[2]
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module in (None, "convcnp") and alias.name in modules:
                    aliases[local] = alias.name  # from . import autodiff as ad
                elif source in modules:  # from .models import batch_nll
                    imported[local] = (source, alias.name)
    own = path.stem if path.parent.name == "convcnp" else None
    used = set()
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in aliases:
                used.add((aliases[node.value.id], node.attr))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in imported:
                    used.add(imported[node.id])
                elif own and getattr(stmt, "name", None) != node.id:
                    used.add((own, node.id))
    return used


def test_every_public_function_has_a_caller():
    """A public module-level function of ``convcnp`` that neither the package
    nor ``perfbench`` calls has no place in the package."""
    root = Path(__file__).resolve().parents[1]
    package = sorted((root / "src" / "convcnp").glob("*.py"))
    modules = {path.stem for path in package}
    users = {
        (path.stem, node.name): set() for path in package for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    for path in [*package, *(root / "perfbench").glob("*.py")]:
        for use in _package_uses(path, modules) & users.keys():
            users[use].add("perfbench" if path.parent.name == "perfbench" else "src")
    assert [use for use, where in users.items() if not where] == []
    # kept for perfbench: its mean_loss adds per-task losses and scales the sum,
    # its oracle check scores one task at a time, and its on-grid workload
    # takes the loss of each image
    assert {use for use, where in users.items() if where == {"perfbench"}} == {
        ("autodiff", "add"), ("autodiff", "mul"), ("oracle", "gp_task_ll"),
        ("models", "grid_nll_loss"),
    }


def test_shape_mismatch_names_op_and_shapes():
    with pytest.raises(ad.DiffError) as err:
        ad.add(ad.constant(np.ones((2, 3))), ad.constant(np.ones((4, 5))))
    message = str(err.value)
    assert "add" in message and "(2, 3)" in message and "(4, 5)" in message


def test_nonfinite_forward_is_an_error():
    x = ad.Node(np.array([1e200]), needs_grad=True)
    with np.errstate(over="ignore"), pytest.raises(ad.DiffError, match="op 'mul'"):
        ad.mul(x, x)


@pytest.mark.parametrize("padding", ["zeros", "circular"])
def test_conv1d_linearity(padding):
    rng = np.random.default_rng(1)
    w = ad.constant(rng.normal(size=(3, 2, 5)))
    x = rng.normal(size=(2, 11))
    y = rng.normal(size=(2, 11))
    a, b = 0.7, -1.3
    combined = ad.conv1d(ad.constant(a * x + b * y), w, padding=padding).value
    separate = a * ad.conv1d(ad.constant(x), w, padding=padding).value + (
        b * ad.conv1d(ad.constant(y), w, padding=padding).value
    )
    np.testing.assert_allclose(combined, separate, rtol=1e-12, atol=1e-12)


def test_conv2d_circular_shift_equivariance():
    rng = np.random.default_rng(2)
    w = ad.constant(rng.normal(size=(2, 1, 3, 3)))
    x = rng.normal(size=(1, 6, 7))
    out = ad.conv2d(ad.constant(x), w, padding="circular").value
    shifted_in = np.roll(x, (2, 3), axis=(1, 2))
    out_shifted = ad.conv2d(ad.constant(shifted_in), w, padding="circular").value
    np.testing.assert_allclose(out_shifted, np.roll(out, (2, 3), axis=(1, 2)), atol=1e-12)


def test_reverse_pass_deterministic():
    def run():
        rng = np.random.default_rng(7)
        x = ad.Node(rng.normal(size=(2, 9)), needs_grad=True)
        w = ad.Node(rng.normal(size=(4, 2, 3)), needs_grad=True)
        out = ad.conv1d(x, w)
        ad.backward(reduce_sum(ad.mul(out, out)))
        return x.grad.copy(), w.grad.copy()

    gx1, gw1 = run()
    gx2, gw2 = run()
    assert np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)


class TestAdam:
    def make_store(self, value):
        return ad.ParameterStore({"w": np.array(value)})

    def test_zero_grad_zero_decay_is_noop(self):
        store = self.make_store([1.0, -2.0])
        ad.adam_step(store, lr=1e-3, weight_decay=0.0)
        np.testing.assert_array_equal(store.value, [1.0, -2.0])

    def test_decoupled_weight_decay_only(self):
        store = self.make_store([2.0])
        ad.adam_step(store, lr=3e-4, weight_decay=1e-5)
        assert store.value[0] == pytest.approx(2.0 * (1.0 - 3e-9), rel=1e-15)

    def test_rejects_nonpositive_lr(self):
        with pytest.raises(ad.DiffError, match="lr"):
            ad.adam_step(self.make_store([1.0]), lr=0.0)

    def test_zeroes_gradients_afterward(self):
        store = self.make_store([1.0])
        store.grad[...] = 3.0
        ad.adam_step(store, lr=1e-3)
        assert store.grad[0] == 0.0

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
    def test_matches_the_per_tensor_loop_bit_for_bit(self, weight_decay):
        rng = np.random.default_rng(5)
        arrays = {
            "w": rng.normal(size=(3, 4)),
            "b": np.array([0.0, -0.0, 0.5, -2.0, 0.0]),
            "s": np.asarray(-0.0),
            "z": np.array([-0.0, 0.0, -0.0]),  # never takes a gradient
        }
        store = ad.ParameterStore(arrays)
        params = dict(store.items())
        ref = reference_params(arrays)
        for _ in range(100):
            for name, p in ref.items():
                if name == "z":
                    continue
                g = rng.normal(size=p.value.shape)
                g[rng.uniform(size=g.shape) < 0.3] = 0.0  # some moments stay at zero
                g[rng.uniform(size=g.shape) < 0.2] = -0.0
                p.grad[...] = g
                params[name].grad[...] = g
            ad.adam_step(store, lr=1e-2, weight_decay=weight_decay)
            reference_adam_step(ref, lr=1e-2, weight_decay=weight_decay)
        assert store.step == 100 and all(p.step == 100 for p in ref.values())
        for flat, field in ((store.value, "value"), (store.grad, "grad"),
                            (store.m, "m"), (store.v, "v")):
            expected = np.concatenate([getattr(p, field).ravel() for p in ref.values()])
            np.testing.assert_array_equal(flat, expected)
            np.testing.assert_array_equal(np.signbit(flat), np.signbit(expected))
        # without weight decay a -0.0 that never moves keeps its sign
        assert np.signbit(params["z"].value[0]) == (weight_decay == 0.0)

    def test_leaves_share_the_flat_vectors(self):
        store = ad.ParameterStore({"w": np.ones((2, 3)), "b": np.zeros(4), "s": 0.5})
        assert [f.name for f in dataclasses.fields(ad.Param)] == ["value", "grad"]
        assert store.n_parameters() == store.value.size == 11
        params = dict(store.items())
        for name, leaf in store.leaves().items():
            assert np.shares_memory(leaf.value, store.value)
            assert np.shares_memory(params[name].grad, store.grad)
        params["b"].value[...] = 2.0
        np.testing.assert_array_equal(store.value[6:10], 2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_parameter_is_named(self, bad):
        store = ad.ParameterStore({"w": np.ones((2, 3)), "b": np.zeros(4)})
        dict(store.items())["b"].value[2] = bad
        for nodes in (store.leaves, store.constants):
            with pytest.raises(ad.DiffError, match="parameter 'b' holds non-finite values"):
                nodes()


class TestGradCheck:
    def test_linear_graph(self):
        store = ad.ParameterStore({"w": np.array([0.3])})
        x = np.array([2.0])
        builder = lambda lv: reduce_sum(ad.mul(lv["w"], ad.constant(x)))
        assert ad.grad_check(builder, store) < 1e-8

    def test_softplus_chain_at_zero(self):
        store = ad.ParameterStore({"w": np.array([0.0])})
        builder = lambda lv: reduce_sum(softplus(softplus(lv["w"])))
        assert ad.grad_check(builder, store, step=1e-5) < 1e-6


class TestCheckpoint:
    def make_store(self):
        return ad.ParameterStore(
            {
                "layer.weight": np.random.default_rng(3).normal(size=(2, 3)),
                "layer.bias": np.array([0.1, -1 / 3]),
            }
        )

    def test_roundtrip_exact(self, tmp_path):
        store = self.make_store()
        path = tmp_path / "ckpt.json"
        ad.save_checkpoint(store, path)
        other = self.make_store()
        other.value[...] = 0.0
        ad.load_checkpoint(other, path)
        np.testing.assert_array_equal(other.value, store.value)

    def test_format_fields(self, tmp_path):
        path = tmp_path / "ckpt.json"
        ad.save_checkpoint(self.make_store(), path)
        doc = json.loads(path.read_text())
        assert doc["format_version"] == 1
        assert {e["name"] for e in doc["params"]} == {"layer.weight", "layer.bias"}
        assert doc["params"][0]["shape"] == [2, 3]

    def test_shape_validation(self, tmp_path):
        path = tmp_path / "ckpt.json"
        ad.save_checkpoint(self.make_store(), path)
        other = ad.ParameterStore({"layer.weight": np.zeros((3, 2)), "layer.bias": np.zeros(2)})
        with pytest.raises(ad.DiffError, match="shape"):
            ad.load_checkpoint(other, path)

    def test_unknown_name_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        ad.save_checkpoint(self.make_store(), path)
        other = ad.ParameterStore({"other.weight": np.zeros((2, 3))})
        with pytest.raises(ad.DiffError):
            ad.load_checkpoint(other, path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_value_is_a_malformed_checkpoint(self, tmp_path, bad):
        store = self.make_store()
        before = store.value.copy()
        path = tmp_path / "ckpt.json"
        ad.save_checkpoint(store, path)
        doc = json.loads(path.read_text())
        doc["params"][1]["data"][1] = bad  # json writes NaN, Infinity and -Infinity
        path.write_text(json.dumps(doc))
        with pytest.raises(ad.DiffError, match=(
            r"malformed checkpoint \S*ckpt.json: .*parameter 'layer.bias' holds non-finite values"
        )):
            ad.load_checkpoint(store, path)
        np.testing.assert_array_equal(store.value, before)

    def test_a_failed_load_writes_nothing(self, tmp_path):
        store = self.make_store()
        before = store.value.copy()
        partial = tmp_path / "partial.json"
        ad.save_checkpoint(ad.ParameterStore({"layer.weight": np.zeros((2, 3))}), partial)
        # a well-formed first entry, then one without its data
        malformed = tmp_path / "malformed.json"
        malformed.write_text(json.dumps({"format_version": 1, "params": [
            {"name": "layer.weight", "shape": [2, 3], "data": [0.0] * 6},
            {"name": "layer.bias", "shape": [2]},
        ]}))
        loads = [
            lambda: ad.load_checkpoint(store, partial),
            lambda: ad.load_checkpoint(store, malformed),
            lambda: store.load_state_dict(
                {"layer.weight": np.zeros((2, 3)), "layer.bias": np.zeros(3)}
            ),
            lambda: store.load_state_dict(
                {"layer.weight": np.zeros((2, 3)), "layer.bias": np.zeros(2), "extra": 1.0}
            ),
            lambda: store.load_state_dict({"layer.weight": np.zeros((2, 3))}),
        ]
        for load in loads:
            with pytest.raises(ad.DiffError):
                load()
            np.testing.assert_array_equal(store.value, before)


def test_unreached_node_grad_reads_zeros():
    x = ad.Node(np.ones((2, 3)), needs_grad=True)
    unused = ad.Node(np.full(4, 2.0), needs_grad=True)
    ad.backward(reduce_sum(x))
    np.testing.assert_array_equal(unused.grad, np.zeros(4))


def test_two_backward_calls_accumulate_without_touching_the_first():
    x = ad.Node(np.array([1.0, -2.0]), needs_grad=True)
    ad.backward(reduce_sum(ad.mul(x, x)))
    first = x.grad  # kept as the first pass stored it, not copied
    ad.backward(reduce_sum(ad.mul(x, ad.constant(np.array([3.0, 5.0])))))
    np.testing.assert_array_equal(first, [2.0, -4.0])
    np.testing.assert_array_equal(x.grad, [5.0, 1.0])


def test_a_walked_tape_refuses_a_second_backward():
    x = ad.Node(np.array([1.0, -2.0]), needs_grad=True)
    h = ad.absolute(x)
    loss = reduce_sum(h)
    ad.backward(loss)
    first = x.grad.copy()
    with pytest.raises(ad.DiffError, match="op 'sum'"):
        ad.backward(loss)
    # a new loss over a walked node reaches the walked tape too
    with pytest.raises(ad.DiffError, match="op 'abs'"):
        ad.backward(reduce_sum(ad.mul(h, h)))
    np.testing.assert_array_equal(x.grad, first)  # refused before any vjp ran


def test_a_walked_node_refuses_its_grad():
    x = ad.Node(np.array([1.0, -2.0]), needs_grad=True)
    h = ad.absolute(x)
    loss = reduce_sum(h)
    ad.backward(loss)
    with pytest.raises(ad.DiffError, match="op 'abs'"):
        h.grad
    with pytest.raises(ad.DiffError, match="op 'sum'"):
        loss.grad
    # values stay, and the parents stay a tuple for code that counts a tape
    np.testing.assert_array_equal(h.value, [1.0, 2.0])
    assert h._parents == () and loss._parents == ()
    np.testing.assert_array_equal(x.grad, [1.0, -1.0])


def test_backward_frees_the_tape_as_it_walks_it():
    """One Lotka-Volterra training step of convcnp-small, four tasks at gamma
    32, under tracemalloc: the walk's peak stays near the memory the forward
    pass holds, and once backward returns only the leaves' gradients remain."""
    model = ConvCNP(dim_y=2, gamma=32.0, init_seed=1)
    process = ProcessSpec.default_for("lotka-volterra")
    tasks = [sample_task(process, seed) for seed in range(1000, 1004)]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        leaves = model.params.leaves()
        loss = batch_nll(model.forward_many(tasks, leaves=leaves), [t.target_y for t in tasks])
        forward = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        ad.backward(loss)
        held, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    grad_bytes = sum(leaf.grad.nbytes for leaf in leaves.values())
    assert held - grad_bytes < 2**20
    assert peak < 1.6 * forward


def test_constant_nodes_keep_no_parents():
    x = ad.constant(np.ones(3))
    y = ad.mul(ad.absolute(x), x)
    assert not y.needs_grad and y._parents == () and y._vjp is None
    p = ad.Node(np.ones(3), needs_grad=True)
    z = ad.mul(y, p)  # one parent that takes a gradient is enough
    assert z.needs_grad and z._parents == (y, p)


def test_backward_refuses_a_loss_without_gradient():
    loss = reduce_sum(ad.mul(ad.constant(np.ones(3)), ad.constant(np.ones(3))))
    with pytest.raises(ad.DiffError, match="takes no gradient.*parameter leaves"):
        ad.backward(loss)


def test_nonfinite_under_no_tape_names_the_op():
    # a node over constants records no tape, yet its finite check still runs
    x = ad.mul(ad.constant(np.array([1e100])), ad.constant(np.array([1e100])))
    assert not x.needs_grad and x._parents == ()
    with np.errstate(over="ignore"), pytest.raises(ad.DiffError, match="op 'mul'"):
        ad.mul(x, x)
