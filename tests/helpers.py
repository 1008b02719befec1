"""Independent oracles shared by unit and acceptance tests.

Everything here is deliberately written the slow, obvious way so it cannot
share a code path with the implementations it checks.
"""
import math
import struct
from dataclasses import replace

import numpy as np
from scipy.ndimage import correlate1d

from flowcomm import channel as ch
from flowcomm.extractor import SELECTION_MAGIC, SelectionResult
from flowcomm.metrics import DYNAMIC_RANGE, SSIM_K1, SSIM_K2, SSIM_SIGMA, SSIM_WINDOW
from flowcomm.video import PatchGrid


def read_selection(blob: bytes) -> SelectionResult:
    """Reference reader of `SelectionResult.to_bytes`: the selection a blob holds.

    Payloads come back as float64 from the blob's float32. Raises ValueError on
    a blob that is not a selection, is cut short, or whose frames carry
    different selection counts.
    """
    if len(blob) < 40 or blob[:4] != SELECTION_MAGIC:
        raise ValueError("not a selection blob")
    t_prime, rows, cols, ph, pw, fh, fw, rho = struct.unpack("<IIIIIIId", blob[4:40])
    bits_end = 40 + -(-t_prime * rows * cols // 8)
    # Frame 0's count fixes the table width; every frame must carry the same count.
    k = int(np.frombuffer(blob, dtype="<u4", count=1, offset=bits_end)[0]) if t_prime else 0
    order = np.frombuffer(blob, dtype="<u4", count=t_prime * (1 + k), offset=bits_end)
    order = order.reshape(t_prime, 1 + k)
    if np.any(order[:, 0] != k):
        raise ValueError(f"selection counts differ across frames: {order[:, 0].tolist()}")
    payloads = np.frombuffer(
        blob, dtype="<f4", count=t_prime * k * 2 * ph * pw, offset=bits_end + order.nbytes
    )
    payloads = payloads.astype(np.float64).reshape(t_prime, k, 2, ph, pw)
    return SelectionResult(PatchGrid(ph, pw, rows, cols), rho, order[:, 1:].astype(np.intp), payloads, fh, fw)


def reference_flow_decode(symbols: np.ndarray, cp: ch.CodecParams, patch_h: int, patch_w: int) -> np.ndarray:
    """`flow_decode` by computing: re-snap each symbol to its code, then cos and sin of every angle.

    The arithmetic, in place and in this order, is the decoder's before it looked codes up
    in `CodecParams.decode_tables`.
    """
    symbols = np.asarray(symbols)
    n = symbols.size // (2 * patch_h * patch_w)
    levels = (1 << cp.bits_per_symbol) - 1
    mag, ang = symbols[0::2] + 1.0, symbols[1::2] + 1.0
    for unit in (mag, ang):
        unit /= 2.0
        np.clip(unit, 0.0, 1.0, out=unit)
        unit *= levels
        np.rint(unit, out=unit)
        unit /= levels
    mag *= cp.mag_cap
    ang -= 0.5
    ang *= 2.0
    ang *= math.pi
    out = np.empty((n, 2, patch_h, patch_w))
    for c, wave in enumerate((np.cos, np.sin)):
        term = wave(ang)
        term *= mag
        out[:, c] = term.reshape(n, patch_h, patch_w)
    return out


def reference_encode_selection(sel: SelectionResult, codec: ch.CodecParams) -> tuple[SelectionResult, float]:
    """A selection encoded on its own: the selection with its frames' `flow_codes`, and the
    norm of all their symbols."""
    codes = np.stack([ch.flow_codes(payloads, codec) for payloads in sel.payloads])
    symbols = ch.expand_codes(codes, codec)
    return replace(sel, codes=codes), float(np.sqrt(np.vdot(symbols, symbols)))


def reference_received_payloads(
    sel: SelectionResult, norm: float, codec: ch.CodecParams, snr_linear: float, seed: int
) -> np.ndarray:
    """A cell's (T', k, 2, ph, pw) decoded payloads, each step out of place: expand, scale, send,
    unscale, then `reference_flow_decode`."""
    ph, pw = sel.grid.patch_h, sel.grid.patch_w
    n_symbols = sel.codes.size
    scale = ch.power_scale(norm, codec.gamma, n_symbols) if n_symbols else 1.0
    rng = np.random.default_rng(seed)
    frames = []
    for codes in sel.codes:
        symbols = ch.expand_codes(codes, codec) * scale
        received = ch.transmit_analog(symbols, 1.0 / snr_linear, rng) * (1.0 / scale)
        frames.append(reference_flow_decode(received, codec, ph, pw))
    return np.stack(frames).reshape(*sel.picks.shape, 2, ph, pw)


def reference_patch_mean_flow(flow: np.ndarray, grid: PatchGrid) -> np.ndarray:
    """(rows, cols, 2) mean (u, v) of each patch's in-field pixels, one `.mean()` per patch and channel."""
    ph, pw = grid.patch_h, grid.patch_w
    mean = np.zeros((grid.rows, grid.cols, 2))
    for i in range(grid.rows):
        for j in range(grid.cols):
            u, v = flow[:, i * ph : (i + 1) * ph, j * pw : (j + 1) * pw]
            mean[i, j] = u.mean(), v.mean()
    return mean


def _gaussian_taps() -> np.ndarray:
    g = np.exp(-((np.arange(SSIM_WINDOW) - (SSIM_WINDOW - 1) / 2.0) ** 2) / (2.0 * SSIM_SIGMA**2))
    return g / g.sum()


def reference_windowed_mean(a: np.ndarray) -> np.ndarray:
    """Gaussian window means at every valid position: scipy's correlate1d down the rows, then
    along them, over the whole plane, cropped."""
    half = SSIM_WINDOW // 2
    taps = _gaussian_taps()
    rows = correlate1d(a, taps, axis=0)
    return correlate1d(rows, taps, axis=1)[half:-half, half:-half]


def reference_luma(frame: np.ndarray) -> np.ndarray:
    """(R + 2G + B) / 4 of a float64 copy; a (H, W) plane as float64."""
    if frame.ndim == 2:
        return np.asarray(frame, dtype=np.float64)
    f = frame.astype(np.float64)
    return (f[:, :, 0] + 2.0 * f[:, :, 1] + f[:, :, 2]) / 4.0


def reference_ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean SSIM from `reference_windowed_mean`, each expression out of place."""
    c1 = (SSIM_K1 * DYNAMIC_RANGE) ** 2
    c2 = (SSIM_K2 * DYNAMIC_RANGE) ** 2
    ya, yb = reference_luma(a), reference_luma(b)
    mu_a, mu_b = reference_windowed_mean(ya), reference_windowed_mean(yb)
    var_a = reference_windowed_mean(ya * ya) - mu_a * mu_a
    var_b = reference_windowed_mean(yb * yb) - mu_b * mu_b
    cov = reference_windowed_mean(ya * yb) - mu_a * mu_b
    score = ((2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)) / (
        (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    )
    return float(score.mean())


def brute_force_ssim(ya: np.ndarray, yb: np.ndarray) -> float:
    """Per-window SSIM with explicit loops over every valid window position."""
    c1 = (SSIM_K1 * DYNAMIC_RANGE) ** 2
    c2 = (SSIM_K2 * DYNAMIC_RANGE) ** 2
    half = (SSIM_WINDOW - 1) / 2.0
    g = np.exp(-((np.arange(SSIM_WINDOW) - half) ** 2) / (2.0 * SSIM_SIGMA**2))
    g /= g.sum()
    w = np.outer(g, g)
    h, wd = ya.shape
    scores = []
    for i in range(h - SSIM_WINDOW + 1):
        for j in range(wd - SSIM_WINDOW + 1):
            a = ya[i : i + SSIM_WINDOW, j : j + SSIM_WINDOW]
            b = yb[i : i + SSIM_WINDOW, j : j + SSIM_WINDOW]
            mu_a = np.sum(w * a)
            mu_b = np.sum(w * b)
            var_a = np.sum(w * a * a) - mu_a**2
            var_b = np.sum(w * b * b) - mu_b**2
            cov = np.sum(w * a * b) - mu_a * mu_b
            scores.append(
                ((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                / ((mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2))
            )
    return float(np.mean(scores))


def grid_search_allocation(loads, snrs, bandwidth, step_fraction=1e-3):
    """Exhaustive min-max-time search over the allocation simplex grid.

    Supports 2 and 3 UEs; fractions move in multiples of step_fraction.
    Returns (best fractions, best t_max).
    """
    loads = np.asarray(loads, dtype=np.float64)
    c = np.log2(1.0 + np.asarray(snrs, dtype=np.float64))
    w = loads / c
    n_steps = int(round(1.0 / step_fraction))
    if len(loads) == 2:
        f1 = np.arange(1, n_steps) / n_steps
        t = np.maximum(w[0] / (f1 * bandwidth), w[1] / ((1.0 - f1) * bandwidth))
        k = int(np.argmin(t))
        return np.array([f1[k], 1.0 - f1[k]]), float(t[k])
    if len(loads) == 3:
        f1 = (np.arange(1, n_steps) / n_steps)[:, None]
        f2 = (np.arange(1, n_steps) / n_steps)[None, :]
        f3 = 1.0 - f1 - f2
        valid = f3 > 0
        t = np.full(valid.shape, np.inf)
        t1 = w[0] / (f1 * bandwidth)
        t2 = w[1] / (f2 * bandwidth)
        with np.errstate(divide="ignore", invalid="ignore"):
            t3 = np.where(valid, w[2] / (f3 * bandwidth), np.inf)
        t = np.maximum(np.maximum(np.broadcast_to(t1, t3.shape), np.broadcast_to(t2, t3.shape)), t3)
        k = np.unravel_index(np.argmin(t), t.shape)
        best = np.array([f1[k[0], 0], f2[0, k[1]], 1.0 - f1[k[0], 0] - f2[0, k[1]]])
        return best, float(t[k])
    raise ValueError("grid search supports 2 or 3 UEs")


def numeric_gradients(net, x, upstream, eps=1e-5):
    """Central-difference parameter gradients of loss = upstream . net(x)."""
    upstream = np.asarray(upstream, dtype=np.float64)
    grads = []
    for l in range(len(net.weights)):
        layer = []
        for param in (net.weights[l], net.biases[l]):
            g = np.zeros_like(param)
            it = np.nditer(param, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = param[idx]
                param[idx] = orig + eps
                up = float(np.sum(upstream * net.forward(x)))
                param[idx] = orig - eps
                down = float(np.sum(upstream * net.forward(x)))
                param[idx] = orig
                g[idx] = (up - down) / (2.0 * eps)
            layer.append(g)
        grads.append(tuple(layer))
    return grads


def max_relative_gradient_error(net, x, upstream, eps=1e-5) -> float:
    """Worst relative mismatch between analytic and numeric gradients."""
    net.forward(x, record=True)
    analytic, _ = net.backward(upstream)
    numeric = numeric_gradients(net, x, upstream, eps)
    worst = 0.0
    for (adw, adb), (ndw, ndb) in zip(analytic, numeric):
        for a, n in ((adw, ndw), (adb, ndb)):
            denom = np.maximum(np.abs(a) + np.abs(n), 1e-8)
            worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst
