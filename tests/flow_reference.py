"""Allocate-per-operation pyramidal Lucas-Kanade flow: the bit-exact oracle.

This is the flow estimator written one whole-array expression at a time, each
result a fresh array, with SciPy's pyramid blur, warp and resize. `flowcomm.flow`
runs the same float operations in the same order into preallocated planes, so
every field it returns must equal `estimate_flow` here bit for bit. The
Lucas-Kanade window means are `window_mean`'s direct sums, not SciPy's
running-sum uniform_filter, which rounds differently.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter, map_coordinates

from flowcomm.flow import DEGENERATE_DET, RESIDUAL_CLAMP_PX, FlowEstimatorParams
from flowcomm.video import Video


@dataclass(frozen=True)
class Pyramid:
    """Grayscale levels, index 0 = coarsest, downsample factor 2 per level."""

    levels: tuple


def grayscale(frame: np.ndarray) -> np.ndarray:
    """Integer luma (R + 2G + B) / 4, returned as float64 for downstream math."""
    f = frame.astype(np.uint16)
    return ((f[:, :, 0] + 2 * f[:, :, 1] + f[:, :, 2]) // 4).astype(np.float64)


def build_pyramid(frame: np.ndarray, levels: int, smoothing_sigma: float = 1.0) -> Pyramid:
    """Gaussian-blur + 2x decimate chain; finest level is the grayscale input."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    h, w = frame.shape[:2]
    coarse_h = -(-h // (2 ** (levels - 1)))
    coarse_w = -(-w // (2 ** (levels - 1)))
    if coarse_h < 8 or coarse_w < 8:
        raise ValueError(
            f"too many levels for frame size: coarsest would be {coarse_h}x{coarse_w}"
        )
    fine_to_coarse = [grayscale(frame) if frame.ndim == 3 else frame.astype(np.float64)]
    for _ in range(levels - 1):
        blurred = gaussian_filter(fine_to_coarse[-1], smoothing_sigma, mode="nearest")
        fine_to_coarse.append(blurred[::2, ::2])
    return Pyramid(tuple(reversed(fine_to_coarse)))


def warp_bilinear(image: np.ndarray, flow: np.ndarray) -> np.ndarray:
    """Sample image at (x + u, y + v) of a (2, H, W) flow, bilinear and border-clamped."""
    if image.shape != flow.shape[1:]:
        raise ValueError(f"image {image.shape} does not match flow {flow.shape[1:]}")
    u, v = flow
    yy, xx = np.mgrid[0 : image.shape[0], 0 : image.shape[1]].astype(np.float64)
    return map_coordinates(image, [yy + v, xx + u], order=1, mode="nearest")


def _resize_bilinear(arr: np.ndarray, new_h: int, new_w: int) -> np.ndarray:
    """Half-pixel-convention bilinear resize (mean-preserving for 2x upsampling)."""
    h, w = arr.shape
    rows = np.clip((np.arange(new_h) + 0.5) * h / new_h - 0.5, 0, h - 1)
    cols = np.clip((np.arange(new_w) + 0.5) * w / new_w - 0.5, 0, w - 1)
    rr, cc = np.meshgrid(rows, cols, indexing="ij")
    return map_coordinates(arr, [rr, cc], order=1, mode="nearest")


def resize_flow(flow: np.ndarray, new_h: int, new_w: int) -> np.ndarray:
    """Resize a (2, H, W) flow field, scaling displacements with the resolution change."""
    u, v = flow
    su = new_w / u.shape[1]
    sv = new_h / u.shape[0]
    return np.stack([_resize_bilinear(u, new_h, new_w) * su, _resize_bilinear(v, new_h, new_w) * sv])


def window_mean(a: np.ndarray, win: int) -> np.ndarray:
    """Mean over each win x win window, edge-clamped: down the rows, then along them,
    each pass adding the win samples first to last and dividing the sum by win."""
    for axis in (0, 1):
        n = a.shape[axis]
        samples = [np.take(a, np.clip(np.arange(n) + k, 0, n - 1), axis=axis)
                   for k in range(-(win // 2), win // 2 + 1)]
        total = samples[0]
        for sample in samples[1:]:
            total = total + sample
        a = total / win
    return a


def refine_level(
    prev_flow_up: np.ndarray,
    ref: np.ndarray,
    target: np.ndarray,
    params: FlowEstimatorParams,
) -> np.ndarray:
    """Add an iterated windowed least-squares residual to the upsampled (2, H, W) flow."""
    if ref.shape != target.shape or ref.shape != prev_flow_up.shape[1:]:
        raise ValueError("refine_level inputs must share dimensions")
    flow = prev_flow_up.copy()
    u, v = flow
    win = params.lk_window
    for _ in range(params.iterations_per_level):
        warped = warp_bilinear(target, flow)
        gy_r, gx_r = np.gradient(ref)
        gy_w, gx_w = np.gradient(warped)
        gx = 0.5 * (gx_r + gx_w)
        gy = 0.5 * (gy_r + gy_w)
        it = warped - ref
        axx = window_mean(gx * gx, win)
        axy = window_mean(gx * gy, win)
        ayy = window_mean(gy * gy, win)
        bx = window_mean(gx * it, win)
        by = window_mean(gy * it, win)
        det = axx * ayy - axy * axy
        ok = det >= DEGENERATE_DET
        safe_det = np.where(ok, det, 1.0)
        du = np.where(ok, -(ayy * bx - axy * by) / safe_det, 0.0)
        dv = np.where(ok, -(-axy * bx + axx * by) / safe_det, 0.0)
        u += np.clip(du, -RESIDUAL_CLAMP_PX, RESIDUAL_CLAMP_PX)
        v += np.clip(dv, -RESIDUAL_CLAMP_PX, RESIDUAL_CLAMP_PX)
    return flow


def estimate_flow_pair(
    ref_frame: np.ndarray, target_frame: np.ndarray, params: FlowEstimatorParams
) -> np.ndarray:
    """Coarse-to-fine (2, H, W) flow for one frame pair (displacement ref -> target)."""
    pyr_ref = build_pyramid(ref_frame, params.levels, params.smoothing_sigma)
    pyr_tgt = build_pyramid(target_frame, params.levels, params.smoothing_sigma)
    coarse = pyr_ref.levels[0]
    flow = refine_level(
        np.zeros((2, *coarse.shape)),
        coarse,
        pyr_tgt.levels[0],
        params,
    )
    for ref_l, tgt_l in zip(pyr_ref.levels[1:], pyr_tgt.levels[1:]):
        flow = refine_level(resize_flow(flow, *ref_l.shape), ref_l, tgt_l, params)
    return flow


def estimate_flow(video: Video, params: FlowEstimatorParams) -> list[np.ndarray]:
    """Flow fields for all T-1 adjacent frame pairs, one pair after another."""
    frames = video.frames
    return [estimate_flow_pair(frames[t - 1], frames[t], params) for t in range(1, video.n_frames)]
