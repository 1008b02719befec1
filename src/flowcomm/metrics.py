"""Frame and video quality metrics: SSIM, PSNR, MSE, MAP."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .video import Video, carve

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03
DYNAMIC_RANGE = 255.0
_C1 = (SSIM_K1 * DYNAMIC_RANGE) ** 2
_C2 = (SSIM_K2 * DYNAMIC_RANGE) ** 2


@dataclass
class QualityReport:
    frame_ssim: list[float]
    frame_psnr: list[float]
    frame_mse: list[float]
    mean_ssim: float
    mean_psnr: float
    mean_mse: float


def luma(frame: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(R + 2G + B) / 4 in float64, into `out` if given; a (H, W) plane is its own luma."""
    if frame.ndim == 2:
        return np.asarray(frame, dtype=np.float64)
    out = np.multiply(frame[:, :, 1], 2.0, out=out, dtype=np.float64)
    out += frame[:, :, 0]
    out += frame[:, :, 2]
    out /= 4.0
    return out


# Unit-sum 1-D Gaussian taps; the SSIM weighting window is their outer product.
_TAPS = np.exp(-((np.arange(SSIM_WINDOW) - (SSIM_WINDOW - 1) / 2.0) ** 2) / (2.0 * SSIM_SIGMA**2))
_TAPS /= _TAPS.sum()
_HALF = SSIM_WINDOW // 2


def check_ssim_window(h: int, w: int) -> None:
    """SSIM scores (h, w) frames only if they cover at least one full window."""
    if min(h, w) < SSIM_WINDOW:
        raise ValueError(f"{h}x{w} px frames are smaller than the {SSIM_WINDOW}x"
                         f"{SSIM_WINDOW} SSIM window that scores reconstructions")


class SsimPlanes:
    """Scratch planes for SSIM on (h, w) frames, made once and reused by every call given them.

    One set serves one thread: calls that share a set must not overlap.
    """

    def __init__(self, h: int, w: int):
        check_ssim_window(h, w)
        self.shape = (h, w)
        self.valid = (w - 2 * _HALF, h - 2 * _HALF)  # transposed, as `SsimStats` keeps them
        self.y = np.empty((h, w))  # the luma of the operand whose statistics are made here
        self.product = np.empty((h, w))  # a product of two luma planes
        # Two flat vectors: a window mean's running sum and tap pair term in each pass,
        # and between means, products at the valid positions.
        self.scratch = np.empty((2, self.valid[1] * w))
        # At every valid position: that operand's mean and variance, and the covariance.
        self.mu, self.var, self.cov = np.empty((3, *self.valid))

    def at_valid(self, k: int, shape: tuple[int, int] | None = None) -> np.ndarray:
        """Scratch vector k as a contiguous array of the valid positions, transposed unless `shape` says."""
        shape = shape or self.valid
        return self.scratch[k, : shape[0] * shape[1]].reshape(shape)


def gaussian_taps(sigma: float) -> np.ndarray:
    """Unit-sum Gaussian taps as scipy.ndimage.gaussian_filter1d makes them.

    The radius is int(4 sigma + 0.5), and the tap at offset x is
    exp(-0.5 / sigma^2 * x^2), x^2 taken in integers, before the division by
    the taps' sum. At radius 0 (sigma 0 included) the one tap is 1.0, so a
    blur by it copies the plane, as SciPy does.
    """
    radius = int(4.0 * sigma + 0.5)
    if radius == 0:
        return np.ones(1)
    x = np.arange(-radius, radius + 1)
    taps = np.exp(-0.5 / (sigma * sigma) * (x * x))
    taps /= taps.sum()
    return taps


def correlate(a: np.ndarray, taps: np.ndarray, out: np.ndarray, pair: np.ndarray,
              step: int = 1, axis: int = 0) -> None:
    """Symmetric `taps`' correlation with `a` along `axis`, into `out`: out[i] is
    the window starting at a[step * i], so `a` carries the window's reach past
    each end of the line. `pair` is scratch shaped like `out`.

    The arithmetic is scipy.ndimage.correlate1d's for a symmetric filter: the
    centre sample times the centre tap, then for each mirrored pair, outermost
    first, the pair's sum times its tap, added. Each step is one pass over
    whole planes.
    """
    a, out, pair = (np.moveaxis(x, axis, 0) for x in (a, out, pair))
    half, span = len(taps) // 2, step * (out.shape[0] - 1) + 1
    np.multiply(a[half : half + span : step], taps[half], out=out)
    for k in range(half):
        far = 2 * half - k
        np.add(a[k : k + span : step], a[far : far + span : step], out=pair)
        pair *= taps[k]
        out += pair


def separable_blur(a: np.ndarray, taps: np.ndarray, out: np.ndarray, scratch: np.ndarray,
                   mode: str, step: int = 1) -> None:
    """`a` correlated with symmetric `taps` down its rows, then along them, at every
    `step`-th row and column, into `out` (which may be `a` itself).

    Each line is first extended by the taps' radius past each end: by its edge
    sample for `mode` "clip" (SciPy's "nearest"), periodically for "wrap". Each
    pass is `correlate`, so with `gaussian_taps` this is
    scipy.ndimage.gaussian_filter(a, sigma, mode=...)[::step, ::step], bit for
    bit. `scratch` is a flat float64 buffer for the padded lines and the row
    pass; 3 (h + 2 radius) (w + 2 radius) elements always suffice.
    """
    (h, w), n_rows = a.shape, out.shape[0]
    radius = len(taps) // 2

    rows, pair, padded = carve(scratch, (n_rows, w), (n_rows, w), (h + 2 * radius, w))
    # `a` itself may be a strided view, which np.take would copy whole first
    inside = padded[radius : radius + h]
    np.copyto(inside, a)
    np.take(inside, np.arange(-radius, 0), axis=0, out=padded[:radius], mode=mode)
    np.take(inside, np.arange(h, h + radius), axis=0, out=padded[radius + h :], mode=mode)
    correlate(padded, taps, rows, pair, step, axis=0)
    _, padded, pair = carve(scratch, (n_rows, w), (n_rows, w + 2 * radius), out.shape)
    np.take(rows, np.arange(-radius, w + radius), axis=1, out=padded, mode=mode)
    correlate(padded, taps, out, pair, step, axis=1)


def _windowed_mean(a: np.ndarray, out: np.ndarray, planes: SsimPlanes) -> None:
    """Gaussian-weighted window means of (h, w) `a` at every valid position, into (w', h') `out`.

    Rows first, then columns: the column pass runs down the rows of the
    first pass's transpose, so `out` is transposed too.
    """
    (h, w), (vw, vh) = a.shape, out.shape
    first, second = planes.scratch
    rows = first.reshape(vh, w)
    correlate(a, _TAPS, rows, second.reshape(vh, w))
    columns = second.reshape(w, vh)
    np.copyto(columns, rows.T)
    correlate(columns, _TAPS, out, planes.at_valid(0))


def _moments(y: np.ndarray, mu: np.ndarray, var: np.ndarray, planes: SsimPlanes) -> None:
    """Windowed mean and variance of luma plane `y`, into `mu` and `var`."""
    _windowed_mean(y, mu, planes)
    np.multiply(y, y, out=planes.product)
    _windowed_mean(planes.product, var, planes)
    var -= np.multiply(mu, mu, out=planes.at_valid(0))


@dataclass(frozen=True)
class SsimStats:
    """A frame (the caller's array, not a copy) with its luma's windowed mean and variance.

    `mu` and `var` are (W - 10, H - 10): entry [x, y] is the window whose
    top-left pixel is (y, x), the transpose of the frame's orientation.
    """

    frame: np.ndarray
    mu: np.ndarray
    var: np.ndarray


def ssim_stats(frame: np.ndarray, planes: SsimPlanes | None = None) -> SsimStats:
    """The per-frame half of SSIM; a reference frame's stats serve every comparison with it.

    `planes` is scratch for frames of this shape, made afresh if not given.
    """
    frame = np.asarray(frame)
    p = SsimPlanes(*frame.shape[:2]) if planes is None else planes
    mu, var = np.empty(p.valid), np.empty(p.valid)
    _moments(luma(frame, p.y), mu, var, p)
    return SsimStats(frame, mu, var)


def ssim(a: np.ndarray, b: np.ndarray | SsimStats, planes: SsimPlanes | None = None) -> float:
    """Mean SSIM over sliding Gaussian windows on luma.

    `a` is an (H, W, 3) frame or an (H, W) luma plane; `b` is one too, or its
    `ssim_stats`. Frames must cover at least one full window. `b`'s stats are
    taken as given or made afresh; `a`'s, and every other plane, are made in
    `planes`, scratch for frames of this shape (made afresh if not given).
    Luma planes are made from the frames on each call; stats keep none.
    """
    fa, fb = np.asarray(a), (b.frame if isinstance(b, SsimStats) else np.asarray(b))
    if fa.shape[:2] != fb.shape[:2]:
        raise ValueError(f"frame shapes differ: {fa.shape[:2]} vs {fb.shape[:2]}")
    p = SsimPlanes(*fa.shape[:2]) if planes is None else planes
    if p.shape != fa.shape[:2]:
        raise ValueError(f"planes for {p.shape} frames cannot score {fa.shape[:2]} frames")
    sb = b if isinstance(b, SsimStats) else ssim_stats(fb, p)
    mu, var, cov, score = p.mu, p.var, p.cov, p.at_valid(0)
    ya = luma(fa, p.y)
    _moments(ya, mu, var, p)
    np.multiply(luma(fb, p.product), ya, out=p.product)
    _windowed_mean(p.product, cov, p)
    cov -= np.multiply(mu, sb.mu, out=score)
    # ((2 mu_a mu_b + C1) (2 cov + C2)) / ((mu_a^2 + mu_b^2 + C1) (var_a + var_b + C2)),
    # each operation on the same two operands as written, so in place gives the same bits.
    np.multiply(mu, 2.0, out=score)
    score *= sb.mu
    score += _C1
    cov *= 2.0
    cov += _C2
    score *= cov
    np.multiply(mu, mu, out=cov)
    np.multiply(sb.mu, sb.mu, out=mu)
    cov += mu
    cov += _C1
    var += sb.var
    var += _C2
    cov *= var
    score /= cov
    # The mean sums in the frame's row order: its rounding depends on the order.
    in_frame_order = p.at_valid(1, score.shape[::-1])
    np.copyto(in_frame_order, score.T)
    return float(in_frame_order.mean())


def mse(a: np.ndarray, b: np.ndarray) -> float:
    """Mean squared error of two uint8 frames, summed exactly in integers.

    The one rounding is the final division, so the result equals the float64
    mean of the squared differences, whose partial sums are exact below 2^53.
    """
    d = np.subtract(a, b, dtype=np.int16).ravel()
    return int(np.einsum("i,i->", d, d, dtype=np.int64)) / d.size


def psnr(mse_value: float) -> float:
    if mse_value < 0:
        raise ValueError("mse cannot be negative")
    if mse_value == 0.0:
        return math.inf
    return 10.0 * math.log10(DYNAMIC_RANGE**2 / mse_value)


def frame_losses(reconstructed, original: Video, reference) -> QualityReport:
    """Per-frame MSE/PSNR/SSIM plus video means (mean SSIM is the objective).

    `reconstructed` yields one frame per original frame, in order: a stack of
    frames, or a generator that makes each frame as it is scored, so no more
    than one frame need exist at a time. `reference` holds one SSIM operand per
    original frame: the frames themselves, or their `ssim_stats` computed once
    per video. The video-level PSNR is the PSNR of the mean MSE; averaging
    per-frame PSNR would be pinned at infinity by any losslessly carried frame.
    """
    f_ssim, f_psnr, f_mse = [], [], []
    planes = None  # made at the first frame that reaches the SSIM kernel, then reused
    for frame, source, ref in zip(reconstructed, original.frames, reference, strict=True):
        if frame.shape != source.shape:
            raise ValueError(f"frame shapes differ: {frame.shape} vs {source.shape}")
        m = mse(frame, source)
        f_mse.append(m)
        f_psnr.append(psnr(m))
        # An exact copy (frame 0 always is) has zero squared error and scores
        # exactly 1; skip the kernel for it.
        if m == 0.0:
            f_ssim.append(1.0)
            continue
        if planes is None:
            planes = SsimPlanes(*frame.shape[:2])
        f_ssim.append(ssim(frame, ref, planes))
    mean_mse = float(np.mean(f_mse))
    return QualityReport(
        frame_ssim=f_ssim,
        frame_psnr=f_psnr,
        frame_mse=f_mse,
        mean_ssim=float(np.mean(f_ssim)),
        mean_psnr=psnr(mean_mse),
        mean_mse=mean_mse,
    )


def motion_area_percentage(bitmap: np.ndarray) -> float:
    """Fraction of set bits: significant-motion patches over all patches."""
    bitmap = np.asarray(bitmap)
    if bitmap.size == 0:
        raise ValueError("empty bitmap")
    return float(np.count_nonzero(bitmap)) / bitmap.size
