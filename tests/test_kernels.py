"""flowcomm's numpy kernels against the scipy.ndimage calls they replace: the pyramid
blur, the warp and the coarse-to-fine resize bit for bit, the synthetic texture's
periodic blur bit for bit, and the Lucas-Kanade window mean, a direct sum, within
a bound of SciPy's running-sum uniform_filter."""
import numpy as np
import pytest
from scipy.ndimage import gaussian_filter, gaussian_filter1d, map_coordinates, uniform_filter

from flow_reference import resize_flow, window_mean
from flowcomm import flow, synth
from flowcomm.flow import FlowEstimatorParams
from flowcomm.metrics import gaussian_taps, separable_blur


def plane(seed, h, w, lo=0.0, hi=255.0):
    return np.random.default_rng(seed).uniform(lo, hi, (h, w))


def level_with_target(h, w, target, levels=1):
    """The finest level of a fresh workspace, its target frame set to `target`."""
    level = flow._Workspace(h, w, FlowEstimatorParams(levels=levels)).levels[-1]
    level.images[1] = target
    flow._fill_border(level.bordered[1])
    return level


class TestPyramidBlur:
    def test_taps_are_gaussian_filter1d_taps(self):
        """A unit impulse blurred by gaussian_filter1d comes out as its taps, bit for bit
        (sigma 0, which SciPy takes as a copy, is among the blur cases below)."""
        sigmas = [0.1, 0.125, 0.3, 1.0, 1.5, 2.5, 3.0, *np.random.default_rng(5).uniform(0.13, 20.0, 300)]
        impulse = np.zeros(2 * 81 + 1)
        impulse[81] = 1.0
        for sigma in sigmas:
            taps = gaussian_taps(sigma)
            radius = len(taps) // 2
            expected = gaussian_filter1d(impulse, sigma, mode="constant")[81 - radius : 82 + radius]
            assert np.array_equal(taps, expected), sigma

    @pytest.mark.parametrize("sigma", [0.0, 0.3, 1.0, 2.5])
    @pytest.mark.parametrize("h, w", [(45, 37), (23, 19), (31, 64), (9, 9)])
    def test_decimated_blur_equals_gaussian_filter(self, sigma, h, w):
        taps = gaussian_taps(sigma)
        reach = len(taps) - 1
        bordered = np.zeros((h + 2, w + 2))
        fine = bordered[1:-1, 1:-1]  # a strided view, as each pyramid level is
        fine[...] = plane(h * w, h, w)
        coarse = np.empty((-(-h // 2), -(-w // 2)))
        separable_blur(fine, taps, coarse, np.empty(3 * (h + reach) * (w + reach)), "clip", step=2)
        assert np.array_equal(coarse, gaussian_filter(fine, sigma, mode="nearest")[::2, ::2])

    @pytest.mark.parametrize("sigma", [0.0, 0.3, 1.0, 2.5])
    def test_pyramid_built_in_the_workspace(self, sigma):
        """Every level a workspace builds, in its own scratch, from a 45x37 frame."""
        frame = np.random.default_rng(3).integers(0, 256, (45, 37, 3)).astype(np.uint8)
        ws = flow._Workspace(45, 37, FlowEstimatorParams(levels=3, smoothing_sigma=sigma))
        assert ws.estimate(frame[None], pytest.fail) == []  # one frame: no pair reaches the sink
        f = frame.astype(np.float64)
        expected = [(f[:, :, 0] + 2 * f[:, :, 1] + f[:, :, 2]) // 4]
        for _ in range(2):
            expected.append(gaussian_filter(expected[-1], sigma, mode="nearest")[::2, ::2])
        for level, want in zip(ws.levels, expected[::-1], strict=True):
            assert np.array_equal(level.images[0], want)
            assert np.array_equal(level.bordered[0], np.pad(want, 1, mode="edge"))


class TestWarp:
    @pytest.mark.parametrize("h, w", [(45, 37), (8, 8), (64, 48)])
    @pytest.mark.parametrize("reach", [0.4, 3.0, 60.0, 1e6])
    def test_equals_map_coordinates(self, h, w, reach):
        """Flows within a pixel, across the frame and far outside it, each way."""
        target = plane(h + w, h, w)
        level = level_with_target(h, w, target)
        field = plane(7, 2 * h, w, -reach, reach).reshape(2, h, w)
        field[:, 0, :3] = [[0.0, -0.5, 1e-20], [-1e-20, h - 1.0, -h + 0.5]]  # edges and exact taps
        flow._warp(level, field)
        rows, cols = np.mgrid[0:h, 0:w].astype(np.float64)
        expected = map_coordinates(target, [rows + field[1], cols + field[0]], order=1, mode="nearest")
        assert np.array_equal(level.warped, expected)


class TestUpsample:
    @pytest.mark.parametrize("h, w", [(45, 37), (16, 16), (100, 72)])
    def test_equals_map_coordinates(self, h, w):
        ws = flow._Workspace(h, w, FlowEstimatorParams(levels=2))
        coarse_shape = ws.levels[0].images.shape[1:]
        coarse = plane(h * w, 2 * coarse_shape[0], coarse_shape[1], -40.0, 40.0).reshape(2, *coarse_shape)
        out = np.empty((2, h, w))
        flow._upsample(coarse, out, ws.levels[1])
        assert np.array_equal(out, resize_flow(coarse, h, w))


class TestWindowMean:
    @pytest.mark.parametrize("h, w, window", [(45, 37, 5), (8, 8, 3), (9, 12, 7), (8, 10, 21), (64, 64, 63)])
    def test_near_uniform_filter_and_equal_to_the_reference(self, h, w, window):
        """Within 2 window eps max|x| of SciPy's running sums (windows wider than the
        plane included), and bit for bit the reference's direct sums, two planes at
        a time as flow runs them."""
        block = np.stack([plane(h, h, w, -1e3, 1e3), plane(w, h, w, 0.0, 1e-3)])
        down, means = np.empty_like(block), np.empty_like(block)
        flow._window_mean(block, down, window, 1, flow._line_ends(h, window))
        flow._window_mean(down, means, window, 2, flow._line_ends(w, window))
        for x, got in zip(block, means):
            bound = 2 * window * np.finfo(np.float64).eps * np.abs(x).max()
            assert np.abs(got - uniform_filter(x, window, mode="nearest")).max() <= bound
            assert np.array_equal(got, window_mean(x, window))


class TestSmoothTexture:
    @staticmethod
    def with_scipy(height, width, seed, blur):
        """smooth_texture as written with scipy.ndimage.gaussian_filter."""
        tex = np.random.default_rng(seed).uniform(0, 255, size=(height, width, 3))
        for c in range(3):
            tex[:, :, c] = gaussian_filter(tex[:, :, c], blur, mode="wrap")
        lo, hi = tex.min(), tex.max()
        tex = 30.0 + (tex - lo) * (225.0 - 30.0) / (hi - lo)
        return np.rint(tex).astype(np.uint8)

    @pytest.mark.parametrize("h, w", [(512, 512), (256, 256), (45, 37), (8, 8), (3, 3), (1, 9)])
    @pytest.mark.parametrize("blur", [3.0, 1.5])
    def test_bytes_equal_gaussian_filter_wrap(self, h, w, blur):
        """Sides smaller than the blur's radius (12 and 6 px) wrap more than once."""
        assert np.array_equal(synth.smooth_texture(h, w, 4, blur), self.with_scipy(h, w, 4, blur))
