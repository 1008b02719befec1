"""Frame and video quality metrics: SSIM, PSNR, MSE, MAP."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy

from .video import Video

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
    map: float | None = None  # motion area percentage, when ground truth is known


def luma(frame: np.ndarray) -> np.ndarray:
    """(R + 2G + B) / 4 in float64."""
    f = frame.astype(np.float64)
    return (f[:, :, 0] + 2.0 * f[:, :, 1] + f[:, :, 2]) / 4.0


# Unit-sum 1-D Gaussian taps; the SSIM weighting window is their outer product.
_TAPS = np.exp(-((np.arange(SSIM_WINDOW) - (SSIM_WINDOW - 1) / 2.0) ** 2) / (2.0 * SSIM_SIGMA**2))
_TAPS /= _TAPS.sum()


def _windowed_mean(a: np.ndarray) -> np.ndarray:
    """Gaussian-weighted window means at every valid position, one 1-D pass per axis."""
    half = SSIM_WINDOW // 2
    rows = scipy.ndimage.correlate1d(a, _TAPS, axis=0)
    return scipy.ndimage.correlate1d(rows, _TAPS, axis=1)[half:-half, half:-half]


@dataclass(frozen=True)
class SsimStats:
    """A frame's luma plane with its windowed mean and variance at every valid position."""

    y: np.ndarray
    mu: np.ndarray
    var: np.ndarray


def ssim_stats(frame: np.ndarray) -> SsimStats:
    """The per-frame half of SSIM; a reference frame's stats serve every comparison with it."""
    y = luma(frame) if frame.ndim == 3 else np.asarray(frame, dtype=np.float64)
    if min(y.shape) < SSIM_WINDOW:
        raise ValueError(f"frame smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} SSIM window")
    mu = _windowed_mean(y)
    return SsimStats(y, mu, _windowed_mean(y * y) - mu * mu)


def ssim(a: np.ndarray | SsimStats, b: np.ndarray | SsimStats) -> float:
    """Mean SSIM over sliding Gaussian windows on luma.

    Inputs are (H, W, 3) frames, (H, W) luma planes or their `ssim_stats`;
    frames must cover at least one full window.
    """
    sa = a if isinstance(a, SsimStats) else ssim_stats(a)
    sb = b if isinstance(b, SsimStats) else ssim_stats(b)
    if sa.y.shape != sb.y.shape:
        raise ValueError(f"frame shapes differ: {sa.y.shape} vs {sb.y.shape}")
    mu_a, mu_b = sa.mu, sb.mu
    cov = _windowed_mean(sa.y * sb.y) - mu_a * mu_b
    score = ((2.0 * mu_a * mu_b + _C1) * (2.0 * cov + _C2)) / (
        (mu_a * mu_a + mu_b * mu_b + _C1) * (sa.var + sb.var + _C2)
    )
    return float(score.mean())


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
    for frame, source, ref in zip(reconstructed, original.frames, reference, strict=True):
        if frame.shape != source.shape:
            raise ValueError(f"frame shapes differ: {frame.shape} vs {source.shape}")
        m = mse(frame, source)
        f_mse.append(m)
        f_psnr.append(psnr(m))
        # An exact copy (frame 0 always is) has zero squared error and scores
        # exactly 1; skip the kernel for it.
        f_ssim.append(1.0 if m == 0.0 else ssim(frame, ref))
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
