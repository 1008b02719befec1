"""Motion-compensated video reconstruction from the first frame and flow patches.

Masked grid positions carry zero flow, so unselected regions copy straight
from the previous reconstructed frame.
"""
from __future__ import annotations

import numpy as np

from .extractor import SelectionResult
from .video import Video


def dense_flows(sel: SelectionResult):
    """Yield each flow frame's (2, H, W) flow: selected payloads in place, zero elsewhere."""
    grid = sel.grid
    for picks, payloads in zip(sel.picks, sel.payloads):
        canvas, patches = grid.canvas()
        patches[np.divmod(picks, grid.cols)] = payloads
        yield canvas[:, : sel.field_h, : sel.field_w]


def _bilinear_taps(coord: np.ndarray, n: int):
    """Tap indices and weights of an order-1 spline sample on an axis of n samples.

    The arithmetic is scipy.ndimage's for order 1 and mode "nearest": the taps
    sit at floor(coord) and one past it, each clamped into [0, n - 1], and the
    second weight is 1 minus the first, not the fractional part itself.
    """
    lo = np.floor(coord)
    w_lo = 1.0 - (coord - lo)
    i_lo = lo.astype(np.intp)
    return np.clip(i_lo, 0, n - 1), np.clip(i_lo + 1, 0, n - 1), w_lo, 1.0 - w_lo


def reconstruct_video(first_frame: np.ndarray, sel: SelectionResult) -> Video:
    """Chain inverse warps: frame t samples frame t-1 at (x, y) - flow(x, y).

    first_frame: (H, W, 3) uint8. Output has 1 + T' frames, clipped to [0, 255].
    Only pixels with nonzero flow are resampled: a bilinear sample at a zero
    offset returns the sample itself, so every other pixel copies frame t-1.
    The resampling equals scipy's map_coordinates(order=1, mode="nearest")
    per channel, bit for bit.
    """
    first_frame = np.asarray(first_frame)
    if first_frame.shape[:2] != (sel.field_h, sel.field_w):
        raise ValueError(
            f"frame {first_frame.shape[:2]} does not match selection geometry "
            f"{(sel.field_h, sel.field_w)}"
        )
    h, w = sel.field_h, sel.field_w
    frames = np.empty((sel.n_flow_frames + 1, h * w, 3), dtype=np.uint8)
    frames[0] = first_frame.reshape(h * w, 3)
    # Unrounded, carried from frame to frame; one row per channel, because
    # per-channel 1-D gathers and scatters are numpy's fast paths.
    current = first_frame.reshape(h * w, 3).T.astype(np.float64, order="C")
    for t, flow in enumerate(dense_flows(sel), start=1):
        frames[t] = frames[t - 1]
        u, v = flow.reshape(2, h * w)
        moved = np.flatnonzero((u != 0.0) | (v != 0.0))
        rows, cols = np.divmod(moved, w)
        i0, i1, wr0, wr1 = _bilinear_taps(rows - v[moved], h)
        j0, j1, wc0, wc1 = _bilinear_taps(cols - u[moved], w)
        i0 *= w
        i1 *= w
        # scipy's sum: from 0, the four taps in this order, each (sample * row weight) * column weight.
        warped = np.zeros((3, moved.size))
        term = np.empty_like(warped)
        taps = ((i0 + j0, wr0, wc0), (i0 + j1, wr0, wc1), (i1 + j0, wr1, wc0), (i1 + j1, wr1, wc1))
        for index, w_row, w_col in taps:
            for c in range(3):
                np.take(current[c], index, out=term[c])
            term *= w_row
            term *= w_col
            warped += term
        np.clip(warped, 0.0, 255.0, out=warped)
        rounded = np.rint(warped).astype(np.uint8)
        for c in range(3):
            current[c][moved] = warped[c]
            frames[t, :, c][moved] = rounded[c]
    return Video(frames.reshape(-1, h, w, 3))
