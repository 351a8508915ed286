"""The grouped im2col convolution against the einsum reference, and its errors."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from convcnp import autodiff as ad
from reference_conv import reference_conv
from reference_tape import reduce_sum

SPATIAL = {1: (11,), 2: (7, 9)}  # non-square 2-D input
# (C_in, groups, C_out); "grouped" has C_in / groups > 1 and C_out / groups > 1
GROUPINGS = {"one": (3, 1, 4), "depthwise": (3, 3, 6), "grouped": (4, 2, 6)}


def _tape_conv(x, w, bias, padding, groups, g):
    """Value and gradients of one conv through the tape, seeded with ``g``."""
    leaves = [ad.Node(a, needs_grad=True) for a in (x, w, bias) if a is not None]
    conv = ad.conv1d if x.ndim == 2 else ad.conv2d
    out = conv(*leaves, padding=padding, groups=groups)
    ad.backward(reduce_sum(ad.mul(out, ad.constant(g))))
    return out.value, tuple(leaf.grad for leaf in leaves)


@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("padding", ["zeros", "circular"])
@pytest.mark.parametrize("groups", list(GROUPINGS))
def test_matches_reference(ndim, k, padding, groups):
    rng = np.random.default_rng(100 * ndim + 10 * k + len(padding) + len(groups))
    c_in, n_groups, c_out = GROUPINGS[groups]
    x = rng.normal(size=(c_in,) + SPATIAL[ndim])
    w = rng.normal(size=(c_out, c_in // n_groups) + (k,) * ndim)
    for bias in (None, rng.normal(size=c_out)):
        ref_out, ref_vjp = reference_conv(x, w, bias, padding, n_groups)
        g = rng.normal(size=ref_out.shape)
        out, grads = _tape_conv(x, w, bias, padding, n_groups, g)
        np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-12)
        for got, want in zip(grads, ref_vjp(g), strict=True):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


# The conv2d layers of ConvCNPOnGrid's default stack on a 28x28 image:
# (C_in, groups, C_out, k), depthwise 5x5 and pointwise 1x1.
ONGRID_LAYERS = {
    "dw2": (2, 2, 2, 5), "dw16": (16, 16, 16, 5), "dw32": (32, 32, 32, 5),
    "pw2-16": (2, 1, 16, 1), "pw16-32": (16, 1, 32, 1), "pw32-16": (32, 1, 16, 1),
    "head": (16, 1, 2, 1),
}


@pytest.mark.parametrize("layer", list(ONGRID_LAYERS))
@pytest.mark.parametrize("padding", ["zeros", "circular"])
def test_matches_reference_at_ongrid_shapes(layer, padding):
    c_in, groups, c_out, k = ONGRID_LAYERS[layer]
    rng = np.random.default_rng(c_in + c_out + k + len(padding))
    x = rng.normal(size=(c_in, 28, 28))
    w = rng.normal(size=(c_out, c_in // groups, k, k))
    bias = rng.normal(size=c_out) if k == 1 else None
    ref_out, ref_vjp = reference_conv(x, w, bias, padding, groups)
    g = rng.normal(size=ref_out.shape)
    out, grads = _tape_conv(x, w, bias, padding, groups, g)
    np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-12)
    for got, want in zip(grads, ref_vjp(g), strict=True):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def _central_diff(f, a, step=1e-5):
    grad = np.zeros_like(a)
    for idx in np.ndindex(a.shape):
        d = np.zeros_like(a)
        d[idx] = step
        grad[idx] = (f(a + d) - f(a - d)) / (2 * step)
    return grad


@pytest.mark.parametrize("x_shape", [(2, 1), (2, 1, 3)])
def test_circular_axis_narrower_than_padding(x_shape):
    """With k = 5 the padding (2) exceeds an axis of 1, so each window wraps round it."""
    rng = np.random.default_rng(len(x_shape))
    x = rng.normal(size=x_shape)
    w = rng.normal(size=(3, 2) + (5,) * (len(x_shape) - 1))
    g = rng.normal(size=(3,) + x_shape[1:])
    conv = ad.conv1d if x.ndim == 2 else ad.conv2d

    def loss(x, w):
        return (conv(ad.constant(x), ad.constant(w), padding="circular").value * g).sum()

    _, grads = _tape_conv(x, w, None, "circular", 1, g)
    want = (_central_diff(lambda a: loss(a, w), x), _central_diff(lambda a: loss(x, a), w))
    for got, numeric in zip(grads, want, strict=True):
        np.testing.assert_allclose(got, numeric, rtol=0, atol=1e-6)


@pytest.mark.parametrize(
    "x_shape, w_shape, groups",
    [
        ((3, 8), (4, 1, 3), 2),  # groups does not divide C_in
        ((4, 8), (3, 2, 3), 2),  # groups does not divide C_out
        ((4, 8), (4, 1, 3), 2),  # w.shape[1] * groups != C_in
        ((4, 6, 6), (4, 4, 3, 3), 2),
        ((4, 8), (4, 4, 3), 0),
    ],
)
def test_bad_groups_rejected(x_shape, w_shape, groups):
    conv = ad.conv1d if len(x_shape) == 2 else ad.conv2d
    with pytest.raises(ad.DiffError, match="groups"):
        conv(ad.constant(np.ones(x_shape)), ad.constant(np.ones(w_shape)), groups=groups)


def test_even_kernel_and_unknown_padding_rejected():
    x = ad.constant(np.ones((2, 8)))
    with pytest.raises(ad.DiffError, match="odd"):
        ad.conv1d(x, ad.constant(np.ones((2, 2, 4))))
    with pytest.raises(ad.DiffError, match="padding"):
        ad.conv1d(x, ad.constant(np.ones((2, 2, 3))), padding="reflect")


_ONGRID_STEP = """
import sys
import numpy as np
from convcnp import autodiff as ad
from convcnp.models import ConvCNPOnGrid, grid_nll_loss

rng = np.random.default_rng(3)
image = rng.random((1, 28, 28))
context = (rng.random((28, 28)) < 0.3) * 1.0
model = ConvCNPOnGrid(channels=1, ndim=2, init_seed=5)
leaves = model.params.leaves()
pred = model.forward(image, context, 1.0 - context, leaves=leaves)
ad.backward(grid_nll_loss(pred, image))
arrays = [pred.mean, pred.std] + [leaf.grad for leaf in leaves.values()]
sys.stdout.buffer.write(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays))
"""

_XL_STEP = """
import sys
import numpy as np
from convcnp import autodiff as ad
from convcnp.models import CnnSpec, ConvCNP, nll_loss
from convcnp.synthdata import ProcessSpec, sample_task

model = ConvCNP(gamma=32.0, cnn=CnnSpec.xl(), init_seed=5)
task = sample_task(ProcessSpec("sawtooth"), 11)
leaves = model.params.leaves()
pred = model.forward(task, leaves=leaves)
ad.backward(nll_loss(pred, task.target_y))
arrays = [pred.mean, pred.std] + [leaf.grad for leaf in leaves.values()]
sys.stdout.buffer.write(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays))
"""


def test_two_blas_threads_give_identical_xl_steps():
    """An XL forward and backward on two OpenBLAS threads is bit-reproducible."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    runs = [
        subprocess.run(
            [sys.executable, "-c", _XL_STEP], env=env, capture_output=True, check=True
        ).stdout
        for _ in range(2)
    ]
    assert len(runs[0]) > 8 * 400_000  # predictions plus every gradient
    assert runs[0] == runs[1]


def test_two_blas_threads_give_identical_ongrid_steps():
    """A 2-D on-grid forward and backward, k matmuls summed per conv, is too."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    runs = [
        subprocess.run(
            [sys.executable, "-c", _ONGRID_STEP], env=env, capture_output=True, check=True
        ).stdout
        for _ in range(2)
    ]
    assert len(runs[0]) > 8 * 2 * 28 * 28  # predictions plus every gradient
    assert runs[0] == runs[1]
