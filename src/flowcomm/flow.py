"""Coarse-to-fine pyramidal optical flow with an iterative Lucas-Kanade refiner.

Flow convention: a field for frame pair (t-1, t) is the displacement from
frame t-1 to frame t, sampled on the t-1 pixel grid. Reconstruction
(flowcomm.reconstruct) inverse-warps with the same convention.

Frame pairs are independent, and numpy's and scipy.ndimage's loops release the
interpreter lock, so `estimate_flow` runs contiguous blocks of pairs on the
threads it is given. Every plane a pair touches lives in a `_Workspace` that
the calling thread allocates once per block and each stage writes through
`out=`/`output=`: worker threads allocate no frame-sized array, whose freed
memory their malloc arenas would keep. Within a block, a frame's pyramid is
built once, as one pair's target and then the next pair's reference.

A workspace carries seven frame-sized scratch planes, each reused as one
refinement iteration goes on:
- `coords` (2): the sample coordinates, then the warped frame's y/x gradients
  (averaged with the reference's), then the steps du, dv;
- `warped`: the pyramid blur's output, the warped frame, then its mismatch
  with the reference, then the window mean axx;
- `axy`, `ayy`: the reference's x/y gradients, then their window means;
- `bx`, `by`: the mismatch window means, then temporaries of the solve and,
  in `by`, the determinant.
Each window mean's product is written into its own plane and filtered there.

scipy.ndimage and the thread pool are imported where they are first used, so
a command that estimates no flow and starts no pool loads neither.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .video import Video

# windows whose structure-tensor determinant falls below this get zero residual
DEGENERATE_DET = 1e-6
# per-iteration residual step clamp (px); brightness constancy breaks at
# occlusion seams and the unclamped least-squares step can run away there
RESIDUAL_CLAMP_PX = 1.0
# scratch planes per pyramid level: y/x sample coordinates (then the gradients,
# then the steps du, dv), the warped frame (the blur's output in the pyramid,
# then the mismatch, then axx), axy and ayy (first the reference's x/y
# gradients), bx and by (then temporaries of the solve, and the determinant)
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
    pixels, and its cost grows with its size without bound. scipy's Gaussian
    blur reaches int(4 sigma + 0.5) pixels each way; only levels > 1 blur.
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

    def __init__(self, shape, coarser, scratch, mask):
        h, w = shape
        self.images = np.empty((2, h, w))  # reference frame, target frame
        planes = scratch[: _N_SCRATCH * h * w].reshape(_N_SCRATCH, h, w)
        self.coords = planes[:2]
        self.warped, self.axy, self.ayy, self.bx, self.by = planes[2:]
        self.bad = mask[: h * w].reshape(shape)
        self.rows = np.arange(h, dtype=np.float64)
        self.cols = np.arange(w, dtype=np.float64)
        if coarser is not None:
            # Where each pixel samples the coarser level's flow, half-pixel convention
            # (mean-preserving for 2x upsampling), and how displacements scale.
            ch, cw = coarser
            self.up_rows = np.clip((np.arange(h) + 0.5) * ch / h - 0.5, 0, ch - 1)
            self.up_cols = np.clip((np.arange(w) + 0.5) * cw / w - 0.5, 0, cw - 1)
            self.up_scale = (w / cw, h / ch)


class _Workspace:
    """Every plane of every pyramid level that one frame pair needs; one per block of pairs."""

    def __init__(self, height: int, width: int, params: FlowEstimatorParams):
        shapes = pyramid_shapes(height, width, params.levels)
        self.params = params
        scratch = np.empty(_N_SCRATCH * height * width)
        mask = np.empty(height * width, dtype=bool)
        self.levels = [
            _Level(shape, coarser, scratch, mask)
            for shape, coarser in zip(shapes, [None, *shapes[:-1]])
        ]
        self.coarse_flows = [np.empty((2, *shape)) for shape in shapes[:-1]]

    def estimate(self, frames: np.ndarray, out: np.ndarray) -> None:
        """Coarse-to-fine flow frames[t] -> frames[t + 1], written into out[t] (u, v).

        Each frame's pyramid is built once, into the target slot, and copied
        into the reference slot for the pair that follows.
        """
        import scipy.ndimage

        levels, params = self.levels, self.params
        for t, frame in enumerate(frames):
            _grayscale(frame, levels[-1].images[1])
            # Gaussian blur + 2x decimate, finest to coarsest.
            for fine, coarse in zip(levels[:0:-1], levels[-2::-1]):
                scipy.ndimage.gaussian_filter(
                    fine.images[1], params.smoothing_sigma, output=fine.warped, mode="nearest"
                )
                np.copyto(coarse.images[1], fine.warped[::2, ::2])
            if t:
                flows = [*self.coarse_flows, out[t - 1]]
                flows[0].fill(0.0)
                _refine(levels[0], flows[0], params)
                for level, coarse, flow in zip(levels[1:], flows, flows[1:]):
                    _upsample(coarse, flow, level)
                    _refine(level, flow, params)
            for level in levels:
                np.copyto(level.images[0], level.images[1])


def _grayscale(frame: np.ndarray, out: np.ndarray) -> None:
    """Integer luma (R + 2G + B) // 4 into a float64 plane; every step is exact."""
    np.add(frame[:, :, 0], frame[:, :, 2], out=out, dtype=np.float64)
    out += frame[:, :, 1]
    out += frame[:, :, 1]
    np.floor_divide(out, 4.0, out=out)


def _upsample(coarse: np.ndarray, flow: np.ndarray, level: _Level) -> None:
    """Bilinear resize of the coarser level's flow into flow, scaling displacements."""
    import scipy.ndimage

    coords = level.coords
    np.copyto(coords[0], level.up_rows[:, None])
    np.copyto(coords[1], level.up_cols)
    for src, dst, scale in zip(coarse, flow, level.up_scale):
        scipy.ndimage.map_coordinates(src, coords, output=dst, order=1, mode="nearest")
        dst *= scale


def _gradient(f: np.ndarray, gy: np.ndarray, gx: np.ndarray) -> None:
    """np.gradient(f) at unit spacing, written into gy and gx by the same float operations."""
    for g, a in ((gy, f), (gx.T, f.T)):
        np.subtract(a[2:], a[:-2], out=g[1:-1])
        g[1:-1] /= 2.0
        np.subtract(a[1], a[0], out=g[0])
        np.subtract(a[-1], a[-2], out=g[-1])


def _refine(level: _Level, flow: np.ndarray, params: FlowEstimatorParams) -> None:
    """Add an iterated windowed least-squares residual to the level's flow, in place.

    Each iteration samples the target at (x + u, y + v) with bilinear
    interpolation, border-clamped, and solves the Lucas-Kanade normal
    equations over lk_window-sized neighborhoods; ill-conditioned windows
    contribute zero residual.
    """
    import scipy.ndimage

    ref, target = level.images
    u, v = flow
    coords, bad = level.coords, level.bad
    gy, gx = coords  # the sample coordinates are spent once the target is warped
    it = axx = level.warped  # the mismatch is spent once both of its means are taken
    axy, ayy, bx, by = level.axy, level.ayy, level.bx, level.by
    gy_ref, gx_ref = ayy, axy  # spent before their planes take the last two means
    for _ in range(params.iterations_per_level):
        np.add(level.rows[:, None], v, out=coords[0])
        np.add(level.cols, u, out=coords[1])
        scipy.ndimage.map_coordinates(target, coords, output=level.warped, order=1, mode="nearest")
        _gradient(level.warped, gy, gx)
        _gradient(ref, gy_ref, gx_ref)
        gx += gx_ref
        gx *= 0.5
        gy += gy_ref
        gy *= 0.5
        it -= ref
        # window means of the mismatch and structure tensor terms, each filtered in place
        for a, b, mean in ((gx, it, bx), (gy, it, by), (gx, gx, axx), (gx, gy, axy), (gy, gy, ayy)):
            np.multiply(a, b, out=mean)
            scipy.ndimage.uniform_filter(mean, params.lk_window, output=mean, mode="nearest")
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


def estimate_flow(video: Video, params: FlowEstimatorParams, threads: int = 1) -> np.ndarray:
    """Flow fields for all T-1 adjacent frame pairs of a video, as one (T-1, 2, H, W) array.

    The pairs run in contiguous blocks of near-equal size, one per thread, on
    `threads` threads or one per pair if there are fewer pairs. Raises
    ValueError if any estimated value is not finite.
    """
    n_pairs = video.n_frames - 1
    threads = min(threads, n_pairs)
    bounds = [n_pairs * k // threads for k in range(threads + 1)]
    out = np.empty((n_pairs, 2, video.height, video.width))
    blocks = [
        (_Workspace(video.height, video.width, params), video.frames[a : b + 1], out[a:b])
        for a, b in zip(bounds, bounds[1:])
    ]
    fan_out(lambda block: block[0].estimate(*block[1:]), blocks, threads)
    # min and max propagate NaN and reach any infinity, without a mask the size of out
    if not (math.isfinite(out.min()) and math.isfinite(out.max())):
        raise ValueError("flow values must be finite")
    return out
