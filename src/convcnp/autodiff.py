"""Reverse-mode automatic differentiation over dense float64 arrays.

A small tape-based engine in the micrograd style, but vectorized: each
:class:`Node` wraps a numpy array, and every primitive records a
vector-Jacobian product for the reverse pass.  Only parameter leaves, and
nodes computed from them, take a gradient; any other node keeps no tape,
so a forward pass over constants alone frees its intermediates as it goes.
Only the operations the models in this package need are provided;
everything runs in float64 so finite-difference checks are reliable.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np


class DiffError(ValueError):
    """Raised on shape mismatches, non-finite values, or invalid op arguments."""


_RELEASED = object()  # the vjp of an interior node once backward has walked it


class Node:
    """A value in the computation graph.

    A node takes a gradient when it is built with ``needs_grad=True`` (the
    parameter leaves of :meth:`ParameterStore.leaves`) or when any of its
    parents takes one.  Only such nodes keep their parents and their vjp,
    ``vjp(g, i)``, which returns the gradient for ``parents[i]``, until
    :func:`backward` has run that vjp and releases them and the gradient.

    A leaf's ``grad`` accumulates across backward passes.  ``adam_step`` zeroes
    ``store.grad``, not a leaf's; ``train`` builds fresh leaves at every step.
    It is allocated only when first read or reached by backward, so nodes
    that backward never reaches cost no buffer.  Every node keeps ``value``.
    """

    __slots__ = ("value", "op", "needs_grad", "_grad", "_parents", "_vjp")

    def __init__(self, value, parents=(), vjp=None, op="const", needs_grad=False):
        value = np.asarray(value, dtype=np.float64)
        if not np.isfinite(value).all():
            raise DiffError(f"op '{op}' produced non-finite values")
        self.value = value
        self.op = op
        self._grad = None
        self.needs_grad = needs_grad or any(p.needs_grad for p in parents)
        self._parents = tuple(parents) if self.needs_grad else ()
        self._vjp = vjp if self.needs_grad else None

    @property
    def grad(self) -> np.ndarray:
        if self._vjp is _RELEASED:
            raise DiffError(f"op '{self.op}': backward released this node's gradient")
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        return self._grad


def constant(value) -> Node:
    """Wrap an array as a leaf with no parents."""
    return Node(value)


def _check_same_shape(op, a, b):
    if a.value.shape != b.value.shape:
        raise DiffError(f"op '{op}': incompatible shapes {a.value.shape} and {b.value.shape}")


def add(a: Node, b: Node) -> Node:
    _check_same_shape("add", a, b)
    return Node(a.value + b.value, (a, b), lambda g, i: g, op="add")


def mul(a: Node, b: Node) -> Node:
    _check_same_shape("mul", a, b)
    return Node(a.value * b.value, (a, b), lambda g, i: g * (b, a)[i].value, op="mul")


def softplus(x: np.ndarray):
    """log(1 + e^x) of an array, and its slope, the sigmoid of ``x``."""
    with np.errstate(over="ignore"):  # exp(-x) is inf below x = -709: sigmoid 0
        slope = 1.0 / (1.0 + np.exp(-x))
    return np.logaddexp(0.0, x), slope


def absolute(x: Node) -> Node:
    return Node(np.abs(x.value), (x,), lambda g, i: g * np.sign(x.value), op="abs")


def concat(nodes, axis=0) -> Node:
    nodes = list(nodes)
    value = np.concatenate([n.value for n in nodes], axis=axis)
    sizes = [n.value.shape[axis] for n in nodes]
    # each parent's block of the gradient, as a view
    lead = (slice(None),) * (axis % value.ndim)
    blocks = [lead + (slice(end - n, end),) for n, end in zip(sizes, np.cumsum(sizes))]
    return Node(value, nodes, lambda g, i: g[blocks[i]], op="concat")


_LOG_2PI = float(np.log(2.0 * np.pi))


def gaussian_ll(y, mu, sigma) -> np.ndarray:
    """Elementwise log N(y; mu, sigma^2) on plain arrays (broadcasting)."""
    if np.any(np.asarray(sigma) <= 0):
        raise DiffError("gaussian log density: sigma must be positive")
    z = (np.asarray(y, float) - mu) / sigma
    return -0.5 * _LOG_2PI - np.log(sigma) - 0.5 * z**2


def gaussian_ll_grad(g, y, mu, sigma) -> np.ndarray:
    """``g`` times the derivative of :func:`gaussian_ll` in mu, stacked over that in sigma."""
    z = (y - mu) / sigma
    return np.concatenate([g * z / sigma, g * (z**2 - 1.0) / sigma])


def _pad(x, pad, mode, op):
    """Pad every spatial axis (all but the first) by ``pad`` on both sides;
    circular padding gathers each axis at its indices modulo its length."""
    if mode not in ("zeros", "circular"):
        raise DiffError(f"op '{op}': unknown padding mode '{mode}'")
    if pad == 0:
        return x
    if mode == "circular":
        for axis, n in enumerate(x.shape[1:], 1):
            x = x.take((np.arange(n + 2 * pad) - pad) % n, axis=axis)
        return x
    out = np.zeros(x.shape[:1] + tuple(n + 2 * pad for n in x.shape[1:]), x.dtype)
    out[(slice(None),) + (slice(pad, -pad),) * (x.ndim - 1)] = x
    return out


def _windows(xp, k, groups):
    """The window matrix (groups, C / groups * k, |S'|) of an input (C, *S) padded by
    (k - 1) / 2, along its last axis only: rows (channel, tap); S' keeps the padding."""
    if k == 1:  # one tap: the window matrix is the input itself
        return xp.reshape(groups, xp.shape[0] // groups, -1)
    # window-first view (channel, tap, *positions): the tap strides like the last axis
    shape = xp.shape[:1] + (k,) + xp.shape[1:-1] + (xp.shape[-1] - k + 1,)
    strides = xp.strides[:1] + xp.strides[-1:] + xp.strides[1:]
    windows = np.lib.stride_tricks.as_strided(xp, shape, strides, writeable=False)
    return windows.reshape(groups, xp.shape[0] // groups * k, -1)


def _row_taps(xp, k, groups, spatial):
    """Each tap t of the leading spatial axis (1-D has one, ()) and the window
    matrix of ``xp`` shifted by t rows, a view (groups, rows, |S|)."""
    cols = _windows(xp, k, groups)  # in 2-D a copy: the flattened windows overlap
    size = math.prod(spatial)
    for t in itertools.product(range(k), repeat=len(spatial) - 1):
        start = sum(t) * spatial[-1]
        yield t, cols[:, :, start:start + size]


def _correlate(xp, w, groups, spatial):
    """Same-size grouped correlation of a padded input with ``w``: one batched
    matmul per leading tap, summed in tap order."""
    channels = (slice(None),) * 2
    # a list index copies a tap's weights, so a flipped kernel reaches BLAS contiguous
    parts = (
        np.matmul(w[channels + tuple([i] for i in t)].reshape(groups, len(w) // groups, -1), cols)
        for t, cols in _row_taps(xp, w.shape[-1], groups, spatial)
    )
    out = next(parts)
    for part in parts:
        out += part
    return out.reshape(w.shape[0], *spatial)


def _gate(out, relu, mask):
    """Gate ``out`` in place by its ReLU and a 0/1 ``mask``, either optional, and
    return the vjp's gate of an output gradient, which gates each g once:
    backward passes every parent of a node the same g."""
    if not relu and mask is None:
        return lambda g: g
    gate = np.logical_and(out > 0 if relu else True, True if mask is None else mask)
    # + 0.0 turns a gated -0.0 into 0.0, and a non-finite value stays
    # non-finite (inf * 0 is nan) for the node's own check
    out *= gate
    out += 0.0
    gated = [None, None]

    def gate_grad(g):
        if gated[0] is not g:
            gated[:] = g, g * gate
        return gated[1]

    return gate_grad


def _conv(x: Node, w: Node, bias, padding, groups, nd, relu, mask) -> Node:
    """Grouped cross-correlation over ``nd`` spatial axes as matmuls on BLAS.

    ``x`` is (C_in, *S) and ``w`` is (C_out, C_in / groups, k, ..., k) with
    odd k; stride 1 and (k - 1) / 2 padding keep the spatial shape S.  The
    padded input is windowed along its last axis only, a k-fold copy, and
    each tap of the leading axis meets its slice of the weights in one
    batched matmul on a shifted view of that matrix: k matmuls in 2-D, one
    in 1-D.  The weight gradient is, per leading tap, the output gradient
    times the transposed view, rebuilt from the padded input.  The input
    gradient is the same correlation of the output gradient, with the kernel
    flipped on every spatial axis and its in and out channels swapped within
    each group: the adjoint of a same-size correlation, zero-padded or
    circular alike.
    ``relu`` and ``mask`` gate the output in the same node, and the vjp
    multiplies the output gradient by that gate once.
    """
    op = f"conv{nd}d"
    if x.value.ndim != nd + 1 or w.value.ndim != nd + 2 or len(set(w.value.shape[2:])) > 1:
        raise DiffError(f"op '{op}': expected an input with {nd} spatial axes and a square "
                        f"kernel, got {x.value.shape} and {w.value.shape}")
    c_in, *spatial = x.value.shape
    c_out, c_in_g, k = w.value.shape[:3]
    if k % 2 == 0:
        raise DiffError(f"op '{op}': kernel size {k} must be odd")
    if groups < 1 or c_out % groups or c_in_g * groups != c_in:
        raise DiffError(
            f"op '{op}': groups={groups} does not fit input {x.value.shape} and "
            f"weight {w.value.shape} (need C_in = groups * w.shape[1] and "
            "groups dividing C_out)"
        )
    c_out_g = c_out // groups
    pad = (k - 1) // 2
    xp = _pad(x.value, pad, padding, op)
    out = _correlate(xp, w.value, groups, spatial)
    parents = [x, w]
    if bias is not None:
        if bias.value.shape != (c_out,):
            raise DiffError(f"op '{op}': bias shape {bias.value.shape} != ({c_out},)")
        out = out + bias.value.reshape((c_out,) + (1,) * nd)
        parents.append(bias)
    gate = _gate(out, relu, mask)

    def vjp(g, i):
        g = gate(g)
        if i == 2:
            return g.sum(axis=tuple(range(1, nd + 1)))
        if i == 1:
            gm = g.reshape(groups, c_out_g, -1)
            dw = np.empty(w.value.shape)
            for t, cols in _row_taps(xp, k, groups, spatial):
                dw[(slice(None),) * 2 + t] = (gm @ cols.transpose(0, 2, 1)).reshape(c_out, c_in_g, k)
            return dw
        w_adj = w.value.reshape(groups, c_out_g, c_in_g, *w.value.shape[2:])
        w_adj = np.flip(w_adj, tuple(range(3, nd + 3))).swapaxes(1, 2)
        w_adj = w_adj.reshape(c_in, c_out_g, *w.value.shape[2:])
        return _correlate(_pad(g, pad, padding, op), w_adj, groups, spatial)

    return Node(out, parents, vjp, op=op)


def conv1d(x: Node, w: Node, bias: Node | None = None, padding: str = "zeros",
           groups: int = 1, relu: bool = False, mask=None) -> Node:
    """Cross-correlation, stride 1, symmetric zero or circular padding of (k-1)/2.

    ``x`` is (C_in, T) and ``w`` is (C_out, C_in / groups, k) with odd k;
    ``bias`` is (C_out,).  Output channel o sees only the input channels of
    its group, o // (C_out / groups).  Output shape is (C_out, T).  With
    ``relu`` a ReLU follows, and a 0/1 array ``mask`` that broadcasts against
    the output multiplies it, in the same node.
    """
    return _conv(x, w, bias, padding, groups, 1, relu, mask)


def conv2d(x: Node, w: Node, bias: Node | None = None, padding: str = "zeros",
           groups: int = 1, relu: bool = False, mask=None) -> Node:
    """Cross-correlation over (C_in, H, W) with square odd kernels, stride 1.

    ``w`` is (C_out, C_in / groups, k, k) and ``bias`` is (C_out,); groups,
    ``relu`` and ``mask`` work as in :func:`conv1d`.  Output shape is
    (C_out, H, W).
    """
    return _conv(x, w, bias, padding, groups, 2, relu, mask)


def dense(w: Node, x: Node, bias: Node, relu: bool = False) -> Node:
    """A layer on the columns of ``x``, w @ x + bias, and with ``relu`` a ReLU
    gated as in :func:`conv1d`: ``w`` is (C_out, C_in), ``x`` (C_in, N), ``bias`` (C_out, 1)."""
    fits = w.value.ndim == x.value.ndim == 2 and w.value.shape[1] == len(x.value)
    if not fits or bias.value.shape != (len(w.value), 1):
        raise DiffError(f"op 'dense': weight {w.value.shape}, input {x.value.shape} and bias "
                        f"{bias.value.shape} do not fit")
    out = w.value @ x.value + bias.value
    gate = _gate(out, relu, None)

    def vjp(g, i):
        g = gate(g)
        if i == 2:
            return g.sum(axis=1, keepdims=True)
        return g @ x.value.T if i == 0 else w.value.T @ g

    return Node(out, (w, x, bias), vjp, op="dense")


def backward(loss: Node) -> None:
    """Reverse accumulation from a scalar loss.

    Gradients add into the leaves' ``.grad``, across tapes that share them.
    Nodes are visited once each, in reverse topological order, and a vjp runs
    only for the parents that take a gradient.  A tape is walked once: each
    interior node drops its parents, vjp and gradient once its vjps have run,
    so a second backward over it, or reading its ``.grad``, is a DiffError.
    """
    if loss.value.size != 1:
        raise DiffError(f"backward: loss must be scalar, got shape {loss.value.shape}")
    if not loss.needs_grad:
        raise DiffError(
            "backward: the loss takes no gradient; pass parameter leaves "
            "(ParameterStore.leaves()) to the forward pass"
        )
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
        if node._vjp is _RELEASED:
            raise DiffError(f"backward: op '{node.op}' is on a tape that backward already walked")
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.needs_grad and id(parent) not in seen:
                stack.append((parent, False))
    _add_grad(loss, np.ones_like(loss.value))
    while order:
        node = order.pop()
        for i, parent in enumerate(node._parents):
            if parent.needs_grad:
                _add_grad(parent, node._vjp(node._grad, i))
        if node._parents:
            node._parents, node._vjp, node._grad = (), _RELEASED, None


def _add_grad(node: Node, g) -> None:
    """Keep a node's first incoming gradient as it is; add later ones.

    Never in place: a stored gradient may be a view shared with another node.
    """
    node._grad = g if node._grad is None else node._grad + g


@dataclass
class Param:
    """One parameter's views into the store's flat value and gradient vectors."""

    value: np.ndarray
    grad: np.ndarray


class ParameterStore:
    """Named, shaped trainable arrays in four flat float64 vectors.

    ``value``, ``grad`` and the Adam moments ``m`` and ``v`` hold every
    parameter end to end, in the order of the dict the store is built from;
    each :class:`Param` views its slice of ``value`` and ``grad`` in its own
    shape.  ``step`` counts Adam updates.
    """

    def __init__(self, arrays: dict):
        arrays = {name: np.asarray(a, dtype=np.float64) for name, a in arrays.items()}
        self.value = np.concatenate([a.ravel() for a in arrays.values()])
        self.grad = np.zeros_like(self.value)
        self.m = np.zeros_like(self.value)
        self.v = np.zeros_like(self.value)
        self.step = 0
        self._params: dict[str, Param] = {}
        start = 0
        for name, a in arrays.items():
            end = start + a.size
            self._params[name] = Param(
                self.value[start:end].reshape(a.shape), self.grad[start:end].reshape(a.shape)
            )
            start = end

    def items(self):
        return self._params.items()

    def n_parameters(self) -> int:
        return self.value.size

    def leaves(self) -> dict[str, Node]:
        """Fresh parameter leaves sharing the current values; they take gradients."""
        return self._nodes(needs_grad=True)

    def constants(self) -> dict[str, Node]:
        """Leaves sharing the current values that take no gradient, so keep no tape."""
        return self._nodes(needs_grad=False)

    def _nodes(self, needs_grad) -> dict[str, Node]:
        """One node per parameter; a non-finite value is a DiffError that names it."""
        try:
            return {name: Node(p.value, needs_grad=needs_grad) for name, p in self._params.items()}
        except DiffError:
            bad = next(name for name, p in self._params.items() if not np.isfinite(p.value).all())
            raise DiffError(f"parameter '{bad}' holds non-finite values") from None

    def accumulate(self, leaves: dict[str, Node]) -> None:
        """Add leaf gradients from a finished backward pass into the store."""
        for name, node in leaves.items():
            self._params[name].grad += node.grad

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.value.copy() for name, p in self._params.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Write a full state; nothing is written unless every name and shape fits."""
        if state.keys() != self._params.keys():
            def some(names, what):  # the count, and the first three names
                shown = ", ".join(sorted(names)[:3]) + ", ..." * (len(names) > 3)
                return f"{len(names)} {what}" + f" ({shown})" * bool(names)
            raise DiffError(
                f"parameters: {some(self._params.keys() - state.keys(), 'missing')}, "
                f"{some(state.keys() - self._params.keys(), 'unknown')}"
            )
        for name, value in state.items():
            if np.shape(value) != self._params[name].value.shape:
                raise DiffError(
                    f"parameter '{name}': shape {np.shape(value)} != "
                    f"{self._params[name].value.shape}"
                )
        for name, value in state.items():
            self._params[name].value[...] = value


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adam_step(store: ParameterStore, lr: float, weight_decay: float = 0.0) -> None:
    """One Adam update with bias correction and decoupled weight decay.

    The decay rates and the denominator guard are Kingma and Ba's defaults.
    Weight decay shrinks the value before the Adam delta is applied.
    Gradients are zeroed afterward; accumulation across batches happens
    before this call, never implicitly inside it.  Every pass runs in place
    over the store's flat vectors, with two temporary vectors.
    """
    if lr <= 0:
        raise DiffError(f"adam_step: lr must be positive, got {lr}")
    a = np.empty_like(store.value)
    if weight_decay:  # skipped at 0: x - 0 * x would turn -0.0 into +0.0
        store.value -= np.multiply(store.value, lr * weight_decay, out=a)
    store.step += 1
    store.m *= ADAM_BETA1
    store.m += np.multiply(store.grad, 1.0 - ADAM_BETA1, out=a)
    store.v *= ADAM_BETA2
    store.v += np.multiply(np.square(store.grad, out=a), 1.0 - ADAM_BETA2, out=a)
    m_hat = np.divide(store.m, 1.0 - ADAM_BETA1**store.step, out=a)
    denom = np.divide(store.v, 1.0 - ADAM_BETA2**store.step)  # v_hat, then sqrt(v_hat) + eps
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    store.value -= np.divide(np.multiply(m_hat, lr, out=a), denom, out=a)
    store.grad[...] = 0.0


def grad_check(builder, store: ParameterStore, step: float = 1e-5) -> float:
    """Max relative error of analytic gradients vs central finite differences.

    ``builder`` maps a dict of leaf nodes to a scalar loss node and must be
    deterministic; the finite-difference forwards run on
    :meth:`ParameterStore.constants` and keep no tape.  Each forward value
    is rounded by about eps * |loss| (eps the float64 machine epsilon: half
    an ulp in its last operation, as much again before it), so
    fd = (hi - lo) / (2 * step) may be off by eps * |loss| / step for an
    exact gradient.  That much of each |analytic - fd| is forgiven, and the
    rest is divided by max(1e-6, |fd|, |analytic|), whose guard keeps
    near-zero gradients from dominating.
    """
    leaves = store.leaves()
    loss = builder(leaves)
    backward(loss)
    analytic = np.concatenate([node.grad.ravel() for node in leaves.values()])
    roundoff = np.finfo(np.float64).eps * abs(float(loss.value)) / step

    worst = 0.0
    flat = store.value
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = float(builder(store.constants()).value)
        flat[i] = orig - step
        lo = float(builder(store.constants()).value)
        flat[i] = orig
        fd = (hi - lo) / (2.0 * step)
        err = max(0.0, abs(analytic[i] - fd) - roundoff) / max(1e-6, abs(fd), abs(analytic[i]))
        worst = max(worst, err)
    return worst


CHECKPOINT_VERSION = 1


def save_checkpoint(store: ParameterStore, path) -> None:
    """Write parameters as JSON with full-precision decimal floats."""
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "params": [
            {
                "name": name,
                "shape": list(p.value.shape),
                "data": p.value.reshape(-1).tolist(),
            }
            for name, p in store.items()
        ],
    }
    with open(path, "w") as f:
        json.dump(doc, f)


def load_checkpoint(store: ParameterStore, path) -> None:
    """Load a checkpoint; a malformed file (a non-finite value included), or one whose
    names or shapes do not fit the store, raises a DiffError naming it, and writes nothing."""
    with open(path) as f:
        try:
            doc = json.load(f)
            if doc["format_version"] != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported format version {doc['format_version']}")
            state = {
                entry["name"]: np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
                for entry in doc["params"]
            }
            bad = [name for name, value in state.items() if not np.isfinite(value).all()]
            if bad:
                raise ValueError(f"parameter '{bad[0]}' holds non-finite values")
        except (KeyError, TypeError, ValueError) as err:
            raise DiffError(f"malformed checkpoint {path}: {type(err).__name__} {err}") from err
    try:
        store.load_state_dict(state)
    except DiffError as err:
        raise DiffError(f"checkpoint {path}: {err}") from None
