"""Motion-compensated video reconstruction from the first frame and flow patches.

Masked grid positions carry zero flow, so unselected regions copy straight
from the previous reconstructed frame. Reconstruction runs one flow frame at a
time: a sweep cell scores each frame as it is made, and `reconstruct_video`
stacks them.
"""
from __future__ import annotations

import numpy as np

from .extractor import SelectionResult
from .video import PatchGrid, Video

_BLOCK = 1 << 14  # most moved pixels per warp block


def _bilinear_taps(coord: np.ndarray, n: int):
    """Tap indices and weights of an order-1 spline sample on an axis of n samples.

    The arithmetic is scipy.ndimage's for order 1 and mode "nearest": the taps
    sit at floor(coord) and one past it, each clamped into [0, n - 1], and the
    second weight is 1 minus the first, not the fractional part itself. The
    taps are clamped before the integer cast, so a coordinate past the intp
    range still takes the nearest edge.
    """
    lo = np.floor(coord)
    w_lo = 1.0 - (coord - lo)
    i_lo = np.clip(lo, 0, n - 1).astype(np.intp)
    i_hi = np.clip(lo + 1.0, 0, n - 1).astype(np.intp)
    return i_lo, i_hi, w_lo, 1.0 - w_lo


def _resample(
    current: np.ndarray, u: np.ndarray, v: np.ndarray, moved: np.ndarray, shape: tuple[int, int], out: np.ndarray
) -> None:
    """Bilinear samples of (3, H*W) `current` at each pixel of `moved` minus its flow (u, v), into (3, n) `out`.

    scipy's sum: from 0, the four taps in this order, each (sample * row weight) * column weight.
    Every tap is a non-negative finite product, so the first is written as is: 0.0 + t == t.
    """
    h, w = shape
    rows, cols = np.divmod(moved, w)
    i0, i1, wr0, wr1 = _bilinear_taps(rows - v[moved], h)
    j0, j1, wc0, wc1 = _bilinear_taps(cols - u[moved], w)
    del rows, cols
    i0 *= w
    i1 *= w
    term = np.empty(out.shape)
    taps = ((i0, wr0, j0, wc0), (i0, wr0, j1, wc1), (i1, wr1, j0, wc0), (i1, wr1, j1, wc1))
    for n, (i, w_row, j, w_col) in enumerate(taps):
        np.take(current, i + j, axis=1, out=term, mode="clip")  # in range: no clipping
        term *= w_row
        term *= w_col
        if n:
            out += term
        else:
            out[...] = term


def reconstructed_frames(first_frame: np.ndarray, grid: PatchGrid, picks, payloads):
    """Yield the first frame, then chain inverse warps: frame t samples t-1 at (x, y) - flow(x, y).

    first_frame: (H, W, 3) uint8. Flow frame t carries payloads[t] at the
    patches picks[t] and zero flow elsewhere; each is drawn on one canvas.
    Every frame is yielded in one (H, W, 3) uint8 buffer that the next step
    overwrites, clipped to [0, 255]. Only pixels with nonzero flow are
    resampled: a bilinear sample at a zero offset returns the sample itself, so
    every other pixel keeps frame t-1's value. The resampling equals scipy's
    map_coordinates(order=1, mode="nearest") per channel, bit for bit. The
    planes are made once; the moved pixels go in blocks of at most `_BLOCK`,
    so no tap, index or weight array outgrows a block.
    """
    h, w = first_frame.shape[:2]
    frame = np.array(first_frame, dtype=np.uint8).reshape(h * w, 3)
    # Unrounded, carried from frame to frame; one plane per channel, because
    # per-channel 1-D scatters are numpy's fast path.
    current = frame.T.astype(np.float64, order="C")
    # The moved pixels' new values, packed in pixel order: they replace frame t-1's
    # only once every block has read frame t-1.
    warped = np.empty_like(current)
    moving = np.empty(h * w, dtype=bool)
    canvas, patches = grid.canvas()
    yield frame.reshape(h, w, 3)
    for frame_picks, frame_payloads in zip(picks, payloads):
        canvas.fill(0.0)
        patches[np.divmod(frame_picks, grid.cols)] = frame_payloads
        u, v = canvas[:, :h, :w].reshape(2, h * w)
        np.not_equal(u, 0.0, out=moving)
        moving |= v != 0.0
        moved = np.flatnonzero(moving)
        blocks = [slice(lo, min(lo + _BLOCK, moved.size)) for lo in range(0, moved.size, _BLOCK)]
        for block in blocks:
            _resample(current, u, v, moved[block], (h, w), warped[:, block])
        for block in blocks:
            for c, values in enumerate(warped[:, block]):
                np.clip(values, 0.0, 255.0, out=values)
                current[c][moved[block]] = values
                np.rint(values, out=values)
                frame[:, c][moved[block]] = values  # whole numbers in [0, 255]: the cast is exact
        yield frame.reshape(h, w, 3)


def reconstruct_video(first_frame: np.ndarray, sel: SelectionResult) -> Video:
    """The 1 + T' frames `reconstructed_frames` makes from a selection's payloads, stacked."""
    first_frame = np.asarray(first_frame)
    if first_frame.shape[:2] != (sel.field_h, sel.field_w):
        raise ValueError(
            f"frame {first_frame.shape[:2]} does not match selection geometry "
            f"{(sel.field_h, sel.field_w)}"
        )
    frames = np.empty((sel.n_flow_frames + 1, *first_frame.shape), dtype=np.uint8)
    for t, frame in enumerate(reconstructed_frames(first_frame, sel.grid, sel.picks, sel.payloads)):
        frames[t] = frame
    return Video(frames)
