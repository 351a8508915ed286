"""Reference convolutions: direct einsum forms of conv1d/conv2d and their vjps.

These are deliberately written differently from the im2col primitive in
``convcnp.autodiff``: the forward contracts a sliding-window view with one
einsum, the input gradient is accumulated one kernel tap at a time, and
circular padding is wrapped back with explicit edge and corner blocks.  A
grouped convolution is expressed as one ungrouped reference call per group.
"""

import numpy as np


def _pad(x, pad, padding):
    widths = ((0, 0),) + ((pad, pad),) * (x.ndim - 1)
    return np.pad(x, widths, mode="constant" if padding == "zeros" else "wrap")


def _conv1d(x, w, padding):
    c_in, t = x.shape
    k = w.shape[2]
    pad = (k - 1) // 2
    xp = _pad(x, pad, padding)
    windows = np.lib.stride_tricks.sliding_window_view(xp, k, axis=1)
    out = np.einsum("oik,itk->ot", w, windows)

    def vjp(g):
        dw = np.einsum("ot,itk->oik", g, windows)
        dxp = np.zeros_like(xp)
        for j in range(k):
            dxp[:, j : j + t] += np.einsum("ot,oi->it", g, w[:, :, j])
        if pad == 0:
            return dxp, dw
        dx = dxp[:, pad:-pad].copy()
        if padding == "circular":
            dx[:, -pad:] += dxp[:, :pad]
            dx[:, :pad] += dxp[:, -pad:]
        return dx, dw

    return out, vjp


def _conv2d(x, w, padding):
    c_in, h, width = x.shape
    k = w.shape[2]
    pad = (k - 1) // 2
    xp = _pad(x, pad, padding)
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))
    out = np.einsum("oiuv,ihwuv->ohw", w, windows)

    def vjp(g):
        dw = np.einsum("ohw,ihwuv->oiuv", g, windows)
        dxp = np.zeros_like(xp)
        for u in range(k):
            for v in range(k):
                dxp[:, u : u + h, v : v + width] += np.einsum(
                    "ohw,oi->ihw", g, w[:, :, u, v]
                )
        if pad == 0:
            return dxp, dw
        dx = dxp[:, pad:-pad, pad:-pad].copy()
        if padding == "circular":
            dx[:, -pad:, :] += dxp[:, :pad, pad:-pad]
            dx[:, :pad, :] += dxp[:, -pad:, pad:-pad]
            dx[:, :, -pad:] += dxp[:, pad:-pad, :pad]
            dx[:, :, :pad] += dxp[:, pad:-pad, -pad:]
            # corners wrap both axes
            dx[:, -pad:, -pad:] += dxp[:, :pad, :pad]
            dx[:, -pad:, :pad] += dxp[:, :pad, -pad:]
            dx[:, :pad, -pad:] += dxp[:, -pad:, :pad]
            dx[:, :pad, :pad] += dxp[:, -pad:, -pad:]
        return dx, dw

    return out, vjp


def reference_conv(x, w, bias=None, padding="zeros", groups=1):
    """Value and vjp of a grouped conv on plain arrays.

    Returns ``(out, vjp)`` where ``vjp(g)`` gives ``(dx, dw)`` plus ``dbias``
    when a bias is passed.
    """
    conv = _conv1d if x.ndim == 2 else _conv2d
    c_in_g = x.shape[0] // groups
    c_out_g = w.shape[0] // groups
    parts = [
        conv(
            x[i * c_in_g : (i + 1) * c_in_g],
            w[i * c_out_g : (i + 1) * c_out_g],
            padding,
        )
        for i in range(groups)
    ]
    out = np.concatenate([value for value, _ in parts])
    spatial_axes = tuple(range(1, x.ndim))
    if bias is not None:
        out = out + bias.reshape((-1,) + (1,) * len(spatial_axes))

    def vjp(g):
        grads = [
            part_vjp(g[i * c_out_g : (i + 1) * c_out_g])
            for i, (_, part_vjp) in enumerate(parts)
        ]
        result = (
            np.concatenate([dx for dx, _ in grads]),
            np.concatenate([dw for _, dw in grads]),
        )
        if bias is not None:
            result += (g.sum(axis=spatial_axes),)
        return result

    return out, vjp
