import math

import numpy as np
import pytest

from helpers import brute_force_ssim, reference_luma, reference_ssim, reference_windowed_mean
from flowcomm import metrics
from flowcomm.video import Video


def random_frame(seed, h=32, w=32):
    return np.random.default_rng(seed).integers(0, 256, size=(h, w, 3)).astype(np.uint8)


class TestSsim:
    def test_identity_exact_one(self):
        frame = random_frame(0)
        assert metrics.ssim(frame, frame) == 1.0

    def test_symmetry(self):
        a, b = random_frame(1), random_frame(2)
        assert metrics.ssim(a, b) == pytest.approx(metrics.ssim(b, a), abs=1e-12)

    def test_matches_brute_force(self):
        # Window-edge and non-square shapes catch a valid-region crop off by one in either axis.
        shapes = [(32, 32)] * 5 + [(11, 11), (11, 40), (40, 11), (37, 23)]
        for seed, (h, w) in enumerate(shapes):
            a = metrics.luma(random_frame(seed, h, w))
            b = metrics.luma(random_frame(seed + 100, h, w))
            assert abs(metrics.ssim(a, b) - brute_force_ssim(a, b)) < 1e-9

    def test_too_small_frame_rejected(self):
        with pytest.raises(ValueError, match="8x8 px frames are smaller than the 11x11 SSIM window"):
            metrics.ssim(random_frame(3, 8, 8), random_frame(4, 8, 8))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            metrics.ssim(random_frame(5, 32, 32), random_frame(6, 16, 16))


class TestSsimAgainstCorrelate1d:
    """The numpy window means keep the bits of scipy's correlate1d over the whole plane."""

    @pytest.mark.parametrize("h, w", [(11, 11), (11, 37), (64, 48), (256, 256)])
    def test_every_operand_kind_bit_for_bit(self, h, w):
        a = random_frame(h * w, h, w)
        noise = np.random.default_rng(h + w).integers(-12, 13, a.shape)
        b = np.clip(a + noise, 0, 255).astype(np.uint8)  # near a, so scores spread below 1
        for frame in (a, b):
            y = reference_luma(frame)
            mu = reference_windowed_mean(y)
            stats = metrics.ssim_stats(frame)
            assert stats.frame is frame
            assert np.array_equal(stats.mu.T, mu)
            assert np.array_equal(stats.var.T, reference_windowed_mean(y * y) - mu * mu)
        expected = reference_ssim(a, b)
        luma_a, luma_b = metrics.luma(a), metrics.luma(b)
        assert np.array_equal(luma_a, reference_luma(a))
        planes = metrics.SsimPlanes(h, w)
        for x, y in [(a, b), (luma_a, luma_b), (a, metrics.ssim_stats(b)),
                     (luma_a, metrics.ssim_stats(luma_b))]:
            assert metrics.ssim(x, y) == expected
            assert metrics.ssim(x, y, planes) == expected  # planes reused from call to call

    def test_planes_for_another_shape_rejected(self):
        with pytest.raises(ValueError):
            metrics.ssim(random_frame(1, 32, 32), random_frame(2, 32, 32), metrics.SsimPlanes(32, 33))


class TestMse:
    @pytest.mark.parametrize("size", [(1, 1), (37, 45), (512, 512)])
    def test_equals_the_float64_mean_bit_for_bit(self, size):
        """The integer sum has no overflow at the extremes and rounds once, like the float mean."""
        h, w = size
        rng = np.random.default_rng(h * w)
        pairs = [(random_frame(k, h, w), random_frame(10 + k, h, w)) for k in (1, 2)]
        pairs.append((np.full((h, w, 3), 255, np.uint8), np.zeros((h, w, 3), np.uint8)))
        pairs.append((rng.choice([0, 255], (h, w, 3)).astype(np.uint8), np.zeros((h, w, 3), np.uint8)))
        for a, b in pairs:
            expected = float(np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2))
            assert metrics.mse(a, b) == expected
            assert metrics.mse(b, a) == expected


class TestFrameLosses:
    def test_identical_videos(self):
        frames = np.stack([random_frame(7, 48, 48)] * 3)
        video = Video(frames)
        report = metrics.frame_losses(video.frames, video, video.frames)
        assert report.mean_mse == 0.0
        assert report.mean_ssim == 1.0
        assert all(1.0 - s == 0.0 for s in report.frame_ssim)  # ssim loss 0

    def test_identical_frame_skips_the_kernel(self, monkeypatch):
        rng = np.random.default_rng(9)
        original = Video(rng.integers(0, 256, (3, 24, 24, 3)).astype(np.uint8))
        frames = rng.integers(0, 256, (3, 24, 24, 3)).astype(np.uint8)
        frames[0] = original.frames[0]
        reconstructed = Video(frames)
        scored = []
        kernel = metrics.ssim

        def counting(a, b, planes):
            scored.append(a)
            return kernel(a, b, planes)

        monkeypatch.setattr(metrics, "ssim", counting)
        report = metrics.frame_losses(reconstructed.frames, original, original.frames)
        assert report.frame_ssim[0] == 1.0
        for t in (1, 2):
            assert report.frame_ssim[t] == kernel(frames[t], original.frames[t])
        assert len(scored) == 2  # frame 0 never reaches the kernel

    def test_unit_offset(self):
        base = np.full((2, 16, 16, 3), 100, dtype=np.uint8)
        video_a = Video(base)
        video_b = Video(base + 1)
        report = metrics.frame_losses(video_b.frames, video_a, video_a.frames)
        assert report.mean_mse == pytest.approx(1.0)

    def test_independent_recomputation(self):
        rng = np.random.default_rng(8)
        a = Video(rng.integers(0, 256, (3, 24, 24, 3)).astype(np.uint8))
        b = Video(rng.integers(0, 256, (3, 24, 24, 3)).astype(np.uint8))
        report = metrics.frame_losses(a.frames, b, b.frames)
        # scalar double-loop MSE over every sample
        total = 0.0
        for t in range(3):
            diff = a.frames[t].astype(float) - b.frames[t].astype(float)
            total += float(np.sum(diff * diff))
        expected = total / (3 * 24 * 24 * 3)
        assert report.mean_mse == pytest.approx(expected, abs=1e-9)

    def test_shape_mismatch(self):
        a = Video(np.zeros((2, 16, 16, 3), dtype=np.uint8))
        b = Video(np.zeros((3, 16, 16, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            metrics.frame_losses(a.frames, b, b.frames)


class TestPsnr:
    def test_zero_mse_is_infinite(self):
        assert metrics.psnr(0.0) == math.inf

    def test_known_value(self):
        assert metrics.psnr(255.0**2) == pytest.approx(0.0)
        assert metrics.psnr(1.0) == pytest.approx(10 * math.log10(255**2))


class TestMap:
    def test_all_zero(self):
        assert metrics.motion_area_percentage(np.zeros((4, 4), bool)) == 0.0

    def test_quarter(self):
        bitmap = np.zeros(196, dtype=bool)
        bitmap[:49] = True
        assert metrics.motion_area_percentage(bitmap) == 0.25

    def test_all_set(self):
        assert metrics.motion_area_percentage(np.ones((3, 5), bool)) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics.motion_area_percentage(np.zeros((0,), bool))
