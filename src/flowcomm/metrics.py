"""Frame and video quality metrics: SSIM, PSNR, MSE, MAP."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import correlate1d

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


def gaussian_window(size: int = SSIM_WINDOW, sigma: float = SSIM_SIGMA) -> np.ndarray:
    """Unit-sum 1-D Gaussian taps; the SSIM weighting window is their outer product."""
    half = (size - 1) / 2.0
    g = np.exp(-((np.arange(size) - half) ** 2) / (2.0 * sigma**2))
    g /= g.sum()
    return g


def _windowed_mean(a: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Gaussian-weighted window means at every valid position, one 1-D pass per axis."""
    half = len(taps) // 2
    rows = correlate1d(a, taps, axis=0)
    return correlate1d(rows, taps, axis=1)[half:-half, half:-half]


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean SSIM over sliding Gaussian windows on luma.

    Inputs are (H, W, 3) frames or (H, W) luma planes; frames must cover at
    least one full window.
    """
    ya = luma(a) if a.ndim == 3 else np.asarray(a, dtype=np.float64)
    yb = luma(b) if b.ndim == 3 else np.asarray(b, dtype=np.float64)
    if ya.shape != yb.shape:
        raise ValueError(f"frame shapes differ: {ya.shape} vs {yb.shape}")
    if min(ya.shape) < SSIM_WINDOW:
        raise ValueError(f"frame smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} SSIM window")
    taps = gaussian_window()
    mu_a = _windowed_mean(ya, taps)
    mu_b = _windowed_mean(yb, taps)
    var_a = _windowed_mean(ya * ya, taps) - mu_a * mu_a
    var_b = _windowed_mean(yb * yb, taps) - mu_b * mu_b
    cov = _windowed_mean(ya * yb, taps) - mu_a * mu_b
    score = ((2.0 * mu_a * mu_b + _C1) * (2.0 * cov + _C2)) / (
        (mu_a * mu_a + mu_b * mu_b + _C1) * (var_a + var_b + _C2)
    )
    return float(score.mean())


def mse(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2))


def psnr(mse_value: float) -> float:
    if mse_value < 0:
        raise ValueError("mse cannot be negative")
    if mse_value == 0.0:
        return math.inf
    return 10.0 * math.log10(DYNAMIC_RANGE**2 / mse_value)


def frame_losses(reconstructed: Video, original: Video) -> QualityReport:
    """Per-frame MSE/PSNR/SSIM plus video means (mean SSIM is the objective).

    The video-level PSNR is the PSNR of the mean MSE; averaging per-frame
    PSNR would be pinned at infinity by any losslessly carried frame.
    """
    if reconstructed.frames.shape != original.frames.shape:
        raise ValueError("video shapes differ")
    f_ssim, f_psnr, f_mse = [], [], []
    for t in range(original.n_frames):
        m = mse(reconstructed.frames[t], original.frames[t])
        f_mse.append(m)
        f_psnr.append(psnr(m))
        # An exact copy (frame 0 always is) scores exactly 1; skip the kernel for it.
        same = np.array_equal(reconstructed.frames[t], original.frames[t])
        f_ssim.append(1.0 if same else ssim(reconstructed.frames[t], original.frames[t]))
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
