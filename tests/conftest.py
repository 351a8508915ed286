import numpy as np
import pytest

from convcnp import autodiff as ad
from convcnp import models
from convcnp.embedding import UniformGrid, divide_by_density, encode
from convcnp.models import GridPredictive, Predictive, batch_nll, decode, grid_nll_loss
from reference_tape import reduce_sum


PRIMITIVE_OPS = [
    "add", "add-broadcast", "mul", "matmul", "conv1d", "conv2d", "relu",
    "softplus", "encode", "decode", "abs", "concat", "narrow", "divide_by_density", "floor_sigma",
    "conv1d-circular", "conv2d-circular",
    "conv1d-depthwise", "conv2d-depthwise", "conv1d-relu-mask",
    "conv2d-separable-relu", "batch_nll", "grid_nll",
]

# name -> (conv, x shape, w shape, padding, groups)
_CONV_CASES = {
    "conv1d": (ad.conv1d, (2, 7), (3, 2, 5), "zeros", 1),
    "conv2d": (ad.conv2d, (2, 5, 6), (2, 2, 3, 3), "zeros", 1),
    "conv1d-circular": (ad.conv1d, (2, 7), (3, 2, 5), "circular", 1),
    "conv2d-circular": (ad.conv2d, (2, 5, 6), (2, 2, 5, 5), "circular", 1),
    "conv1d-depthwise": (ad.conv1d, (3, 7), (3, 1, 3), "zeros", 3),
    "conv2d-depthwise": (ad.conv2d, (2, 5, 6), (4, 1, 3, 3), "circular", 2),
}


def primitive_case(op: str, seed: int):
    """One primitive embedded in a scalar loss: ``(builder, store)``.

    Inputs are drawn away from non-differentiable points (relu/abs kinks,
    zero density) so the central-difference oracle is valid.
    """
    rng = np.random.default_rng(seed)

    def smooth(shape, low=0.5, high=1.5):
        return rng.uniform(low, high, size=shape) * rng.choice([-1.0, 1.0], size=shape)

    if op in ("add", "mul", "add-broadcast"):
        # a (3, 1) bias over (3, 4), as the CNP adds it, reduces in the vjp
        b_shape = (3, 1) if op == "add-broadcast" else (3, 4)
        store = ad.ParameterStore({"a": smooth((3, 4)), "b": smooth(b_shape)})
        fn = getattr(ad, op.split("-")[0])
        builder = lambda lv: reduce_sum(ad.mul(fn(lv["a"], lv["b"]), fn(lv["a"], lv["b"])))
    elif op == "narrow":
        store = ad.ParameterStore({"x": smooth((3, 5))})
        builder = lambda lv: reduce_sum(
            ad.mul(ad.narrow(lv["x"], 1, 1, 3), ad.narrow(lv["x"], 1, 2, 3))
        )
    elif op in ("divide_by_density", "floor_sigma"):
        # divide_by_density: a density channel and two signal channels on a 2-D grid
        x = smooth((3, 2, 4))
        x[0] = np.abs(x[0])
        store = ad.ParameterStore({"x": x})
        fn = divide_by_density if op == "divide_by_density" else models._floor_sigma
        builder = lambda lv: reduce_sum(ad.mul(fn(lv["x"]), fn(lv["x"])))
    elif op == "matmul":
        store = ad.ParameterStore({"a": smooth((3, 4)), "b": smooth((4, 2))})
        builder = lambda lv: reduce_sum(ad.matmul(lv["a"], lv["b"]))
    elif op in _CONV_CASES:
        conv, x_shape, w_shape, padding, groups = _CONV_CASES[op]
        store = ad.ParameterStore(
            {"x": smooth(x_shape), "w": smooth(w_shape), "b": smooth(w_shape[0])}
        )
        def builder(lv):
            c = conv(lv["x"], lv["w"], lv["b"], padding=padding, groups=groups)
            return reduce_sum(ad.mul(c, c))
    elif op in ("relu", "softplus", "abs"):
        store = ad.ParameterStore({"x": smooth((3, 4))})
        fn = {"relu": ad.relu, "softplus": ad.softplus, "abs": ad.absolute}[op]
        weights = smooth((3, 4))
        builder = lambda lv: reduce_sum(ad.mul(fn(lv["x"]), ad.constant(weights)))
    elif op in ("encode", "decode"):
        # three tasks on grids over twice as long as each input's window
        # (l < 0.019: at most 145 points), laid out with gaps; the second has no
        # context.  Small features keep the loss small, and with it the central
        # difference's roundoff against the 1e-10 gradients in the windows' tails.
        grids = [UniformGrid(lower=-1.5 + k, spacing=0.01, n_points=300 - 20 * k)
                 for k in range(3)]
        cols = [slice(start, start + grid.n_points) for start, grid in zip((0, 302, 584), grids)]
        log_l = np.log(0.01) + 0.4 * smooth(())
        xs = [rng.uniform(-1.7, 1.7, size=n) + k for k, n in enumerate((4, 3, 5))]
        if op == "encode":
            ys = [1e-3 * smooth((len(x), 2)) for x in xs]
            contexts = [(x, y) for x, y in zip(xs, ys)]
            contexts[1] = (xs[1][:0], ys[1][:0])
            store = ad.ParameterStore({"log_l": log_l})
            weights = smooth((3, cols[-1].stop))
            builder = lambda lv: reduce_sum(
                ad.mul(encode(contexts, grids, cols, lv["log_l"]), ad.constant(weights))
            )
        else:
            h = 1e-3 * smooth((4, cols[-1].stop))
            store = ad.ParameterStore({"h": h, "log_l": log_l})
            # the deviations sit near softplus(0) times the basis mass: small
            # weights keep their terms, and so the loss, small
            weights = [smooth((2, sum(map(len, xs)))) for _ in range(2)]
            weights[1] *= 1e-3

            def builder(lv):
                pred = decode(lv["h"], grids, cols, xs, lv["log_l"], 2)
                return reduce_sum(ad.add(ad.mul(pred.mu, ad.constant(weights[0])),
                                         ad.mul(pred.sigma, ad.constant(weights[1]))))
    elif op == "conv1d-relu-mask":
        # a hidden layer of the batched ConvCNP: conv, bias, ReLU and column
        # mask in one node
        store = ad.ParameterStore(
            {"x": smooth((2, 9)), "w": smooth((3, 2, 5)), "b": smooth(3)}
        )
        mask = (rng.uniform(size=(1, 9)) < 0.7).astype(float)

        def builder(lv):
            c = ad.conv1d(lv["x"], lv["w"], lv["b"], relu=True, mask=mask)
            return reduce_sum(ad.mul(c, c))
    elif op == "conv2d-separable-relu":
        # a hidden layer of the on-grid ConvCNP: a circular depthwise conv,
        # then a 1x1 conv with bias and ReLU in one node
        store = ad.ParameterStore({
            "x": smooth((2, 5, 6)), "dw": smooth((2, 1, 5, 5)),
            "pw": smooth((3, 2, 1, 1)), "b": smooth(3),
        })

        def builder(lv):
            h = ad.conv2d(lv["x"], lv["dw"], padding="circular", groups=2)
            c = ad.conv2d(h, lv["pw"], lv["b"], padding="circular", relu=True)
            return reduce_sum(ad.mul(c, c))
    elif op == "concat":
        store = ad.ParameterStore({"a": smooth((2, 4)), "b": smooth((3, 4))})
        weights = smooth((5, 4))
        builder = lambda lv: reduce_sum(
            ad.mul(ad.concat([lv["a"], lv["b"]], axis=0), ad.constant(weights))
        )
    elif op == "batch_nll":
        # three tasks of two outputs with different target counts
        sizes = [3, 4, 2]
        ys = [smooth((m, 2)) for m in sizes]
        offsets = tuple(np.cumsum([0] + sizes).tolist())
        store = ad.ParameterStore({"mu": smooth((2, 9)), "logsig": smooth((2, 9))})
        builder = lambda lv: batch_nll(
            Predictive(lv["mu"], ad.softplus(lv["logsig"]), offsets), ys
        )
    elif op == "grid_nll":
        # a 2-D image of two channels under a mixed target mask; squared, so the
        # loss's vjp receives a gradient other than 1
        image = smooth((2, 3, 4))
        mask = np.zeros((3, 4))
        mask.flat[rng.permutation(12)[:7]] = 1.0
        store = ad.ParameterStore({"mu": smooth((2, 3, 4)), "logsig": smooth((2, 3, 4))})

        def builder(lv):
            pred = GridPredictive(lv["mu"], ad.softplus(lv["logsig"]), mask)
            loss = grid_nll_loss(pred, image)
            return ad.mul(loss, loss)
    else:
        raise ValueError(op)
    return builder, store


def primitive_grad_error(op: str, seed: int, step: float = 1e-5) -> float:
    """Finite-difference check of one primitive embedded in a scalar loss."""
    return ad.grad_check(*primitive_case(op, seed), step=step)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
