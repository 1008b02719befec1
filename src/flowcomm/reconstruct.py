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


def bilinear_taps(coord: np.ndarray, n: int, out=None):
    """An order-1 spline sample's taps on an axis of n samples: (lo, w_lo, w_hi).

    The arithmetic is scipy.ndimage's for order 1 and mode "nearest": the taps
    sit at floor(coord) and one past it, each clamped into [0, n - 1], and the
    second weight is 1 minus the first, not the fractional part itself. `lo`
    is floor(coord) clamped into [-1, n - 1], which moves neither tap, so a
    coordinate past the intp range still takes the nearest edge, and the taps
    are lo + 1 in a line padded by one edge sample each way. They are written
    into `out`, three arrays shaped like coord (the second may be coord
    itself), or into new ones.
    """
    lo, w_lo, w_hi = (np.empty_like(coord) for _ in range(3)) if out is None else out
    np.floor(coord, out=lo)
    np.subtract(coord, lo, out=w_lo)
    np.subtract(1.0, w_lo, out=w_lo)
    np.subtract(1.0, w_lo, out=w_hi)
    np.clip(lo, -1.0, n - 1.0, out=lo)
    return lo, w_lo, w_hi


def tap_indices(lo: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The two taps' indices on an axis of n samples, from `bilinear_taps`' lo."""
    return np.maximum(lo, 0.0).astype(np.intp), np.minimum(lo + 1.0, n - 1.0).astype(np.intp)


def bilinear_sum(sample, row_weights, col_weights, out: np.ndarray, term: np.ndarray) -> None:
    """An order-1 spline sample in two dimensions, into `out`, with `term` shaped like it as scratch.

    scipy's sum: from 0, the four taps (row r, column c) in the order (0, 0),
    (0, 1), (1, 0), (1, 1), each (sample * row weight) * column weight.
    `sample(r, c, dst)` writes the samples at that pair of taps into dst; the
    weights are (w_lo, w_hi) per axis, as `bilinear_taps` makes them.
    """
    out.fill(0.0)
    for r, w_row in enumerate(row_weights):
        for c, w_col in enumerate(col_weights):
            sample(r, c, term)
            term *= w_row
            term *= w_col
            out += term


def _resample(
    current: np.ndarray, u: np.ndarray, v: np.ndarray, moved: np.ndarray, shape: tuple[int, int], out: np.ndarray
) -> None:
    """Bilinear samples of (3, H*W) `current` at each pixel of `moved` minus its flow (u, v), into (3, n) `out`."""
    h, w = shape
    rows, cols = np.divmod(moved, w)
    lo_rows, *row_weights = bilinear_taps(rows - v[moved], h)
    lo_cols, *col_weights = bilinear_taps(cols - u[moved], w)
    del rows, cols
    row_starts = [i * w for i in tap_indices(lo_rows, h)]
    cols = tap_indices(lo_cols, w)

    def sample(r, c, dst):
        np.take(current, row_starts[r] + cols[c], axis=1, out=dst, mode="clip")  # in range: no clipping

    bilinear_sum(sample, row_weights, col_weights, out, np.empty(out.shape))


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
