"""Coarse-to-fine pyramidal optical flow with an iterative Lucas-Kanade refiner.

Flow convention: a field for frame pair (t-1, t) is the displacement from
frame t-1 to frame t, sampled on the t-1 pixel grid. Reconstruction
(flowcomm.reconstruct) inverse-warps with the same convention.

Every kernel is numpy, and each equals the scipy.ndimage call it stands for bit
for bit: the pyramid blur is gaussian_filter(mode="nearest") computed at the
decimated samples only, and the warp and the coarse-to-fine resize are
map_coordinates(order=1, mode="nearest"), by `flowcomm.reconstruct`'s bilinear
taps and four-term sum. The Lucas-Kanade window means are direct sums: the
lk_window edge-clamped samples added first to last and divided by lk_window,
down the rows and then along them.

Frame pairs are independent, and numpy's loops release the interpreter lock,
so `estimate_flow` runs contiguous blocks of pairs on the threads it is given.
Every plane a pair touches lives in a `_Workspace` that the calling thread
allocates once per block and each kernel writes through `out=`: worker threads
allocate no frame-sized array, whose freed memory their malloc arenas would
keep. The finest level refines into the workspace's one (2, H, W) field,
which is checked finite and handed to a sink on the worker thread with the
scratch planes, free once the field is refined: a consumer such as extraction
carves its planes from them, so a run need hold no field but the one each
thread is on. The library call's sink copies each field into the stack it
returns. Within a block, a frame's pyramid is built once, as one pair's
target and then the next pair's reference. Each level's images sit inside a
one-pixel border that repeats their edge pixels, so every warp tap is in range.

A workspace carries seven frame-sized scratch planes, each reused as one
refinement iteration goes on:
- `coords` (2): the warp's sample coordinates and then its row and column
  weights, then the warped frame's y/x gradients (averaged with the
  reference's), then the window means' first passes, then the steps du, dv;
- `warped`: the warp's output, then the mismatch with the reference, then the
  window mean axx;
- `axy`, `ayy`, `bx`, `by`: the warp's other tap arrays, then the reference's
  x/y gradients (in `axy`, `ayy`), then the window means, then temporaries of
  the solve and, in `by`, the determinant.
The pyramid blur and the resize take what they need of all seven. The five
products are written into their planes before any mean is taken.

The thread pool is imported where one is first started, so a command that
starts no pool loads none.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import gaussian_taps, separable_blur
from .reconstruct import bilinear_sum, bilinear_taps, tap_indices
from .video import Video

# windows whose structure-tensor determinant falls below this get zero residual
DEGENERATE_DET = 1e-6
# per-iteration residual step clamp (px); brightness constancy breaks at
# occlusion seams and the unclamped least-squares step can run away there
RESIDUAL_CLAMP_PX = 1.0
# scratch planes per pyramid level: y/x sample coordinates (then the gradients,
# then the steps du, dv), the warped frame (then the mismatch, then axx), axy,
# ayy, bx and by (the warp's taps, the reference's gradients, the means, the
# solve's temporaries); the warp fills all seven
_N_SCRATCH = 7
# the coarsest pyramid level's smaller side must span at least this many pixels
MIN_LEVEL_PX = 8


@dataclass(frozen=True)
class FlowEstimatorParams:
    levels: int = 4
    iterations_per_level: int = 3
    smoothing_sigma: float = 1.0
    lk_window: int = 5

    def __post_init__(self):
        if self.levels < 1:
            raise ValueError("levels must be >= 1")
        if self.iterations_per_level < 1:
            raise ValueError(f"iterations_per_level must be >= 1, got {self.iterations_per_level!r}")
        if not 0.0 <= self.smoothing_sigma < math.inf:
            raise ValueError(
                f"smoothing_sigma must be finite and non-negative, got {self.smoothing_sigma!r}"
            )
        if self.lk_window < 3 or self.lk_window % 2 == 0:
            raise ValueError("lk_window must be odd and >= 3")


def pyramid_shapes(height: int, width: int, levels: int) -> list[tuple[int, int]]:
    """Each pyramid level's (h, w), coarsest first; each level halves the next, rounding up.

    Raises ValueError when the coarsest level is smaller than MIN_LEVEL_PX.
    """
    shapes = [(height, width)]
    for _ in range(levels - 1):
        coarser = (-(-shapes[-1][0] // 2), -(-shapes[-1][1] // 2))
        if coarser == shapes[-1]:  # 1x1: every further level is the same
            break
        shapes.append(coarser)
    coarse_h, coarse_w = shapes[-1]
    if coarse_h < MIN_LEVEL_PX or coarse_w < MIN_LEVEL_PX:
        raise ValueError(f"too many levels for frame size: coarsest would be {coarse_h}x{coarse_w}")
    return shapes[::-1]


def check_frame_size(height: int, width: int, params: FlowEstimatorParams) -> None:
    """Raise ValueError unless the pyramid and both filters fit height x width frames.

    A window or blur wider than the frame mostly averages replicated border
    pixels, and its cost grows with its size without bound. The pyramid blur's
    taps, made as gaussian_filter1d makes them, reach int(4 sigma + 0.5) pixels
    each way; only levels > 1 blur. Within these bounds a level's padded lines
    fit in the workspace's scratch planes.
    """
    pyramid_shapes(height, width, params.levels)
    side = min(height, width)
    if params.lk_window > side:
        raise ValueError(
            f"[flow] lk_window {params.lk_window} is wider than the smaller side of "
            f"{height}x{width} px frames"
        )
    # int(4 sigma + 0.5) > side, in floats: 4 sigma overflows to inf for the largest sigmas
    if params.levels > 1 and 4.0 * params.smoothing_sigma + 0.5 >= side + 1:
        raise ValueError(
            f"[flow] smoothing_sigma {params.smoothing_sigma!r} blurs further than the "
            f"smaller side of {height}x{width} px frames (radius int(4 sigma + 0.5) > {side})"
        )


def fan_out(task, items, workers: int, executor=None) -> list:
    """[task(item) for item in items], run on `workers` workers of an `executor` pool
    (ThreadPoolExecutor when None, imported as the pool starts); one worker is the
    calling thread itself, which takes each item only as its task starts."""
    if workers == 1:
        return [task(item) for item in items]
    if executor is None:
        from concurrent.futures import ThreadPoolExecutor as executor
    with executor(workers) as pool:
        return list(pool.map(task, items))


def read_ahead(arrays):
    """Yield a copy of each array `arrays` yields, each made on a thread of its own while
    the caller holds the copy before: the producer runs one item ahead of the caller."""
    arrays = iter(arrays)

    def step():
        array = next(arrays, None)
        return None if array is None else array.copy()

    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1) as pool:
        ahead = pool.submit(step)
        while (array := ahead.result()) is not None:
            ahead = pool.submit(step)
            yield array


class _Level:
    """One pyramid level's planes: both frames' images and level-sized views of the scratch."""

    def __init__(self, shape, coarser, scratch, mask, window):
        h, w = shape
        # reference frame, target frame, each inside a border that repeats its edge pixels
        self.bordered = np.empty((2, h + 2, w + 2))
        self.images = self.bordered[:, 1:-1, 1:-1]
        self.planes = scratch[: _N_SCRATCH * h * w].reshape(_N_SCRATCH, h, w)
        self.coords = self.planes[:2]
        # the five window means' planes, one (5, h, w) block
        self.products = self.planes[2:]
        self.warped, self.axy, self.ayy, self.bx, self.by = self.products
        self.line_ends = [_line_ends(n, window) for n in shape]  # down the rows, along them
        self.bad = mask[: h * w].reshape(shape)
        self.rows = np.arange(h, dtype=np.float64)
        self.cols = np.arange(w, dtype=np.float64)
        if coarser is not None:
            # Where each pixel samples the coarser level's flow, half-pixel convention
            # (mean-preserving for 2x upsampling): one axis' taps at a time, and how
            # displacements scale.
            self.up_taps = [_resize_taps(n, m) for n, m in zip(shape, coarser)]
            self.up_scale = (w / coarser[1], h / coarser[0])


def _resize_taps(n: int, coarse_n: int):
    """Tap indices and weights that resize an axis of coarse_n samples to n."""
    coord = np.clip((np.arange(n) + 0.5) * coarse_n / n - 0.5, 0, coarse_n - 1)
    lo, *weights = bilinear_taps(coord, coarse_n)
    return tap_indices(lo, coarse_n), weights


class _Workspace:
    """Every plane of every pyramid level that one frame pair needs; one per block of pairs."""

    def __init__(self, height: int, width: int, params: FlowEstimatorParams):
        check_frame_size(height, width, params)
        shapes = pyramid_shapes(height, width, params.levels)
        self.params = params
        # only levels > 1 blur: a single level accepts any smoothing_sigma
        self.taps = gaussian_taps(params.smoothing_sigma) if len(shapes) > 1 else None
        self.scratch = np.empty(_N_SCRATCH * height * width)
        mask = np.empty(height * width, dtype=bool)
        self.levels = [
            _Level(shape, coarser, self.scratch, mask, params.lk_window)
            for shape, coarser in zip(shapes, [None, *shapes[:-1]])
        ]
        self.flows = [np.empty((2, *shape)) for shape in shapes]  # the last is the field

    def estimate(self, frames: np.ndarray, sink, first: int = 0) -> list:
        """Coarse-to-fine flow frames[t] -> frames[t + 1] (u, v), each refined into the
        workspace's field, checked finite and handed to sink(first + t, field, self.scratch);
        the sinks' results come back in order. Each frame's pyramid is built once, into the
        target slot, and copied into the reference slot for the pair that follows."""
        levels, params, flows = self.levels, self.params, self.flows
        results = []
        for t, frame in enumerate(frames):
            _grayscale(frame, levels[-1].images[1])
            _fill_border(levels[-1].bordered[1])
            # Gaussian blur + 2x decimate, finest to coarsest.
            for fine, coarse in zip(levels[:0:-1], levels[-2::-1]):
                separable_blur(fine.images[1], self.taps, coarse.images[1], self.scratch, "clip", step=2)
                _fill_border(coarse.bordered[1])
            if t:
                flows[0].fill(0.0)
                _refine(levels[0], flows[0], params)
                for level, coarse, flow in zip(levels[1:], flows, flows[1:]):
                    _upsample(coarse, flow, level)
                    _refine(level, flow, params)
                _check_finite(flows[-1])  # the scratch planes are free until the next pyramid
                results.append(sink(first + t - 1, flows[-1], self.scratch))
            for level in levels:
                np.copyto(level.bordered[0], level.bordered[1])
        return results


def _grayscale(frame: np.ndarray, out: np.ndarray) -> None:
    """Integer luma (R + 2G + B) // 4 into a float64 plane; every step is exact."""
    np.add(frame[:, :, 0], frame[:, :, 2], out=out, dtype=np.float64)
    out += frame[:, :, 1]
    out += frame[:, :, 1]
    out *= 0.25
    np.floor(out, out=out)


def _fill_border(bordered: np.ndarray) -> None:
    """Repeat an image's edge pixels into the one-pixel border around it."""
    bordered[1:-1, 0] = bordered[1:-1, 1]
    bordered[1:-1, -1] = bordered[1:-1, -2]
    bordered[0] = bordered[1]
    bordered[-1] = bordered[-2]


def _upsample(coarse: np.ndarray, flow: np.ndarray, level: _Level) -> None:
    """Bilinear resize of the coarser level's flow into flow, scaling displacements.

    Both axes' taps are fixed per level, so each tap row is gathered once and
    each of the four terms takes its columns from one of them.
    """
    (rows, row_weights), (cols, col_weights) = level.up_taps
    row_weights = [weight[:, None] for weight in row_weights]
    h, cw = flow.shape[1], coarse.shape[2]
    gathered = [plane.reshape(-1)[: h * cw].reshape(h, cw) for plane in level.planes[:2]]
    term = level.planes[2]

    def sample(r, c, dst):
        np.take(gathered[r], cols[c], axis=1, out=dst, mode="clip")

    for src, dst, scale in zip(coarse, flow, level.up_scale):
        for tap, rows_at in zip(rows, gathered):
            np.take(src, tap, axis=0, out=rows_at, mode="clip")
        bilinear_sum(sample, row_weights, col_weights, dst, term)
        dst *= scale


def _warp(level: _Level, flow: np.ndarray) -> None:
    """The level's target sampled at (x + u, y + v), bilinear and border-clamped, into level.warped.

    In the bordered target a sample's four taps sit at one flat index plus
    0, 1, w + 2 and w + 3. Every scratch plane but `warped` holds a tap array.
    """
    h, w = level.warped.shape
    u, v = flow
    y, x, out, row_weight_hi, term, col_weight_hi, first = level.planes
    np.add(level.rows[:, None], v, out=y)
    np.add(level.cols, u, out=x)
    lo_rows, *row_weights = bilinear_taps(y, h, out=(out, y, row_weight_hi))
    lo_cols, *col_weights = bilinear_taps(x, w, out=(term, x, col_weight_hi))
    lo_rows += 1.0
    lo_rows *= w + 2
    lo_cols += 1.0
    first = first.view(np.intp)
    np.add(lo_rows, lo_cols, out=first, casting="unsafe")  # whole numbers: the cast is exact
    target = level.bordered[1].reshape(-1)

    def sample(r, c, dst):
        np.take(target[r * (w + 2) + c :], first, out=dst, mode="clip")  # in range: no clipping

    bilinear_sum(sample, row_weights, col_weights, out, term)


def _gradient(f: np.ndarray, gy: np.ndarray, gx: np.ndarray) -> None:
    """np.gradient(f) at unit spacing, written into gy and gx by the same float operations."""
    for g, a in ((gy, f), (gx.T, f.T)):
        np.subtract(a[2:], a[:-2], out=g[1:-1])
        g[1:-1] /= 2.0
        np.subtract(a[1], a[0], out=g[0])
        np.subtract(a[-1], a[-2], out=g[-1])


def _line_ends(n: int, window: int) -> tuple[np.ndarray, np.ndarray]:
    """The positions of a line of n samples within window // 2 of either end, and
    for each, the clamped positions of its window's samples, first to last."""
    half = window // 2
    head = min(half, n)
    ends = np.r_[0:head, max(n - half, head) : n]
    return ends, np.clip(ends[:, None] + np.arange(-half, half + 1), 0, n - 1)


def _window_mean(a: np.ndarray, out: np.ndarray, window: int, axis: int, line_ends) -> None:
    """Mean of the `window` samples of `a` centred on each position along `axis`,
    edge-clamped, into `out`: the samples added first to last, the sum divided
    by `window`. Both arrays are C-contiguous and of one shape, and
    `line_ends` is `_line_ends` of the axis.

    Every position is first summed from the flattened block shifted by each
    offset, which is right wherever the window lies inside the line; the
    positions within window // 2 of a line's ends are then summed again from
    their clamped samples.
    """
    stride = math.prod(a.shape[axis + 1 :])
    flat_a, flat_out = a.reshape(-1), out.reshape(-1)
    lo, hi = window // 2 * stride, flat_a.size - window // 2 * stride
    if lo < hi:
        shifted = [flat_a[lo + k : hi + k] for k in range(-lo, lo + 1, stride)]
        np.add(shifted[0], shifted[1], out=flat_out[lo:hi])
        for samples in shifted[2:]:
            flat_out[lo:hi] += samples
        flat_out[lo:hi] /= window
    ends, samples = line_ends
    strip = np.moveaxis(np.take(a, samples, axis=axis), (axis, axis + 1), (0, 1))
    total = np.add(strip[:, 0], strip[:, 1])
    for k in range(2, window):
        total += strip[:, k]
    total /= window
    np.moveaxis(out, axis, 0)[ends] = total


def _refine(level: _Level, flow: np.ndarray, params: FlowEstimatorParams) -> None:
    """Add an iterated windowed least-squares residual to the level's flow, in place.

    Each iteration samples the target at (x + u, y + v) with bilinear
    interpolation, border-clamped, and solves the Lucas-Kanade normal
    equations over lk_window-sized neighborhoods; ill-conditioned windows
    contribute zero residual.
    """
    ref = level.images[0]
    u, v = flow
    coords, bad = level.coords, level.bad
    gy, gx = coords  # the tap arrays are spent once the target is warped
    it = axx = level.warped  # the mismatch is spent once both of its products are taken
    axy, ayy, bx, by = level.axy, level.ayy, level.bx, level.by
    gy_ref, gx_ref = ayy, axy  # spent before their planes take the last two products
    for _ in range(params.iterations_per_level):
        _warp(level, flow)
        _gradient(level.warped, gy, gx)
        _gradient(ref, gy_ref, gx_ref)
        gx += gx_ref
        gx *= 0.5
        gy += gy_ref
        gy *= 0.5
        it -= ref
        for a, b, product in ((gx, it, bx), (gy, it, by), (gx, gx, axx), (gx, gy, axy), (gy, gy, ayy)):
            np.multiply(a, b, out=product)
        # Window means of the products, two planes at a time: down the rows into
        # the spent gradient planes, then along the rows back.
        for k in range(0, len(level.products), 2):
            means = level.products[k : k + 2]
            down = coords[: len(means)]
            _window_mean(means, down, params.lk_window, 1, level.line_ends[0])
            _window_mean(down, means, params.lk_window, 2, level.line_ends[1])
        # The gradient planes now hold the steps du, dv, and by the determinant;
        # gy, and bx once dv has used it, serve as temporaries.
        du, dv, det = gx, gy, by
        # du = -(ayy bx - axy by) / det, divided once det is known
        np.multiply(ayy, bx, out=du)
        np.multiply(axy, by, out=gy)
        du -= gy
        np.negative(du, out=du)
        # dv = -((-axy) bx + axx by) / det
        np.negative(axy, out=dv)
        dv *= bx
        np.multiply(axx, by, out=bx)
        dv += bx
        np.negative(dv, out=dv)
        np.multiply(axx, ayy, out=det)
        np.multiply(axy, axy, out=bx)
        det -= bx
        np.greater_equal(det, DEGENERATE_DET, out=bad)
        np.logical_not(bad, out=bad)
        np.copyto(det, 1.0, where=bad)
        du /= det
        dv /= det
        for step, field in ((du, u), (dv, v)):
            np.copyto(step, 0.0, where=bad)
            np.clip(step, -RESIDUAL_CLAMP_PX, RESIDUAL_CLAMP_PX, out=step)
            field += step


def _check_finite(field: np.ndarray) -> None:
    # min and max propagate NaN and reach any infinity, without a mask the size of the field
    if not (math.isfinite(field.min()) and math.isfinite(field.max())):
        raise ValueError("flow values must be finite")


def estimate_flow(video: Video, params: FlowEstimatorParams, threads: int = 1, sink=None):
    """Flow fields for all T-1 adjacent frame pairs of a video.

    Each thread refines its pairs into one (2, H, W) field of its own and
    calls sink(t, field, scratch) with each finished field, on that thread;
    `scratch` is a flat float64 buffer of seven H x W planes, free, like the
    field, until the sink returns. The sinks' results come back as a list, in
    pair order. Without a sink, the fields are copied into one (T-1, 2, H, W)
    array, which comes back instead.

    The pairs run in contiguous blocks of near-equal size, one per thread, on
    `threads` threads or one per pair if there are fewer pairs. Raises
    ValueError if any estimated value is not finite, before a sink sees it.
    """
    n_pairs = video.n_frames - 1
    threads = min(threads, n_pairs)
    bounds = [n_pairs * k // threads for k in range(threads + 1)]
    stack = np.empty((n_pairs, 2, video.height, video.width)) if sink is None else None
    if sink is None:  # the library call's sink copies each field into the stack returned
        def sink(t, field, scratch):
            stack[t] = field

    blocks = [
        (_Workspace(video.height, video.width, params), video.frames[a : b + 1], sink, a)
        for a, b in zip(bounds, bounds[1:])
    ]
    results = fan_out(lambda block: block[0].estimate(*block[1:]), blocks, threads)
    return [result for block in results for result in block] if stack is None else stack
