import concurrent.futures
import sys
import tracemalloc

import flow_reference
import numpy as np
import pytest
from flow_reference import build_pyramid, grayscale, refine_level, resize_flow, warp_bilinear

from flowcomm import flow, synth
from flowcomm.flow import FlowEstimatorParams, estimate_flow
from flowcomm.video import Video


def texture(h, w, seed):
    return synth.smooth_texture(h, w, seed)


class TestPyramid:
    def test_single_level_is_grayscale(self):
        frame = texture(32, 32, 0)
        pyr = build_pyramid(frame, 1)
        assert len(pyr.levels) == 1
        assert np.array_equal(pyr.levels[0], grayscale(frame))

    def test_luma_quarter_and_floor_equal_floor_division(self):
        """_grayscale takes a quarter of R + 2G + B and floors it: on every sum from
        0 to 1020 that equals floor division by 4, sign bits included."""
        sums = np.arange(4 * 255 + 1, dtype=np.float64)
        quarter = sums * 0.25
        np.floor(quarter, out=quarter)
        assert quarter.tobytes() == np.floor_divide(sums, 4.0).tobytes()
        # one pixel per sum: G as large as it can be, then R, then B
        g = np.minimum(np.arange(sums.size) // 2, 255)
        r = np.minimum(np.arange(sums.size) - 2 * g, 255)
        frame = np.stack([r, g, np.arange(sums.size) - 2 * g - r], axis=-1)[None].astype(np.uint8)
        out = np.empty((1, sums.size))
        flow._grayscale(frame, out)
        assert out.tobytes() == np.floor_divide(sums, 4.0)[None].tobytes()

    def test_level_sizes(self):
        pyr = build_pyramid(texture(32, 32, 1), 3)
        assert [lvl.shape for lvl in pyr.levels] == [(8, 8), (16, 16), (32, 32)]

    def test_constant_frame_stays_constant(self):
        frame = np.full((32, 32, 3), 77, dtype=np.uint8)
        pyr = build_pyramid(frame, 3)
        expected = float(grayscale(frame)[0, 0])
        for lvl in pyr.levels:
            assert np.allclose(lvl, expected)

    def test_too_many_levels(self):
        with pytest.raises(ValueError, match="too many levels"):
            build_pyramid(texture(32, 32, 2), 4)  # coarsest would be 4x4

    def test_far_too_many_levels_rejected_in_constant_memory(self):
        # Halving stops at 1x1, so a level count far past the frame size costs no more to
        # reject than one that just reaches 1x1.
        params = FlowEstimatorParams(levels=100_000)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^too many levels for frame size: coarsest would be 1x1$"):
                flow.check_frame_size(64, 64, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000, peak


class TestWarp:
    def test_zero_flow_identity(self):
        img = grayscale(texture(16, 16, 3))
        zero = np.zeros((2, 16, 16))
        assert np.array_equal(warp_bilinear(img, zero), img)

    def test_integer_shift_on_gradient(self):
        img = np.tile(np.arange(8, dtype=np.float64), (8, 1))
        flow = np.stack([np.ones((8, 8)), np.zeros((8, 8))])
        out = warp_bilinear(img, flow)
        assert np.array_equal(out[:, :-1], img[:, 1:])
        assert np.array_equal(out[:, -1], img[:, -1])  # clamped at the border

    def test_far_out_of_frame_clamps(self):
        img = np.tile(np.arange(8, dtype=np.float64), (8, 1))
        flow = np.stack([np.full((8, 8), 1000.0), np.zeros((8, 8))])
        out = warp_bilinear(img, flow)
        assert np.all(out == img[:, -1][:, None])

    def test_dimension_mismatch(self):
        img = np.zeros((8, 8))
        with pytest.raises(ValueError):
            warp_bilinear(img, np.zeros((2, 4, 4)))


class TestUpsample:
    def test_constant_field_scales(self):
        flow = np.stack([np.ones((2, 2)), np.zeros((2, 2))])
        up = resize_flow(flow, 4, 4)
        assert up.shape == (2, 4, 4)
        assert np.allclose(up[0], 2.0) and np.allclose(up[1], 0.0)

    def test_zero_flow(self):
        flow = np.zeros((2, 3, 3))
        up = resize_flow(flow, 6, 6)
        assert up.shape == (2, 6, 6)
        assert not up.any()

    def test_mean_doubles(self):
        rng = np.random.default_rng(4)
        flow = np.stack([rng.standard_normal((4, 4)), rng.standard_normal((4, 4))])
        up = resize_flow(flow, 8, 8)
        assert abs(up[0].mean() - 2.0 * flow[0].mean()) < 1e-6
        assert abs(up[1].mean() - 2.0 * flow[1].mean()) < 1e-6


class TestRefineLevel:
    def test_no_motion(self):
        ref = grayscale(texture(32, 32, 5))
        zero = np.zeros((2, 32, 32))
        out = refine_level(zero, ref, ref, FlowEstimatorParams())
        assert np.abs(out[0]).max() < 1e-6 and np.abs(out[1]).max() < 1e-6

    def test_one_pixel_shift(self):
        ref = grayscale(texture(32, 32, 6))
        target = np.roll(ref, 1, axis=1)  # true displacement u = +1
        zero = np.zeros((2, 32, 32))
        out = refine_level(zero, ref, target, FlowEstimatorParams())
        interior = out[0, 8:-8, 8:-8]
        assert abs(np.median(interior) - 1.0) < 0.25

    def test_true_prior_cancels_motion(self):
        ref = grayscale(texture(32, 32, 7))
        target = np.roll(ref, 1, axis=1)
        prior = np.stack([np.ones((32, 32)), np.zeros((32, 32))])
        out = refine_level(prior, ref, target, FlowEstimatorParams())
        interior_err = np.hypot(out[0, 4:-4, 4:-4] - 1.0, out[1, 4:-4, 4:-4])
        assert np.median(interior_err) < 0.05


class TestEstimateFlow:
    def test_static_video_near_zero(self):
        video = synth.static_video(64, 64, 2, seed=8)
        fields = estimate_flow(video, FlowEstimatorParams(levels=3))
        mags = np.hypot(*fields[0])
        assert mags.mean() < 0.05

    def test_global_translation(self):
        video = synth.block_motion_video(64, 64, 2, [], 0, 0, seed=9, bg_dx=2, bg_dy=0)[0]
        fields = estimate_flow(video, FlowEstimatorParams(levels=3))
        assert 1.5 <= np.median(fields[0, 0]) <= 2.5
        assert abs(np.median(fields[0, 1])) < 0.5

    def test_field_count(self):
        video = synth.static_video(32, 32, 8, seed=10)
        fields = estimate_flow(video, FlowEstimatorParams(levels=2))
        assert len(fields) == 7

    def test_endpoint_error_on_translations(self):
        for dx, dy, seed in ((1, 0, 11), (2, 1, 12), (0, 2, 13)):
            video = synth.block_motion_video(64, 64, 2, [], 0, 0, seed=seed, bg_dx=dx, bg_dy=dy)[0]
            field = estimate_flow(video, FlowEstimatorParams(levels=3))[0]
            epe = np.hypot(field[0] - dx, field[1] - dy)
            assert np.median(epe) < 0.5, (dx, dy, np.median(epe))

    def test_warp_with_true_flow_beats_unwarped(self):
        video = synth.block_motion_video(64, 64, 2, [], 0, 0, seed=14, bg_dx=2, bg_dy=0)[0]
        ref = grayscale(video.frames[0])
        target = grayscale(video.frames[1])
        field = estimate_flow(video, FlowEstimatorParams(levels=3))[0]
        warped = warp_bilinear(target, field)
        assert np.mean((warped - ref) ** 2) < np.mean((target - ref) ** 2)


def test_resize_flow_scales_displacements():
    flow = np.stack([np.full((4, 4), 1.0), np.full((4, 4), -2.0)])
    out = resize_flow(flow, 8, 6)
    assert out.shape == (2, 8, 6)
    assert np.allclose(out[0], 1.0 * 6 / 4)
    assert np.allclose(out[1], -2.0 * 8 / 4)


def moving_block(seed):
    """Three pairs of odd-sized 45x37 frames: a block moving (2, 1) px over a panning background."""
    return synth.block_motion_video(45, 37, 4, [(5, 5, 10, 10)], dx=2, dy=1, seed=seed, bg_dx=1)[0]


# (video, estimator parameters) pairs the workspace path must reproduce bit for bit.
EXACT_CASES = {
    # odd sizes whose pyramid levels round up: 23x19, and 50x36, 25x18, 13x9
    "45x37_2_levels": lambda: (
        synth.block_motion_video(45, 37, 4, [(5, 5, 10, 10)], dx=2, dy=1, seed=15)[0],
        FlowEstimatorParams(levels=2),
    ),
    "100x72_4_levels": lambda: (
        synth.block_motion_video(
            100, 72, 5, [(20, 20, 20, 20)], dx=2, dy=1, seed=16, bg_dx=1, bg_dy=0
        )[0],
        FlowEstimatorParams(levels=4),
    ),
    # every structure-tensor determinant is 0: the degenerate-window branch
    "constant": lambda: (
        Video(np.full((3, 32, 32, 3), 90, dtype=np.uint8)), FlowEstimatorParams(levels=2)
    ),
    # 3 px at the coarse level, so the 1 px residual clamp binds
    "translation_6px": lambda: (
        synth.block_motion_video(64, 64, 3, [], 0, 0, seed=17, bg_dx=6, bg_dy=0)[0],
        FlowEstimatorParams(levels=2),
    ),
    # one pair: no thread pool even with two CPUs
    "two_frames": lambda: (
        synth.block_motion_video(48, 48, 2, [], 0, 0, seed=18, bg_dx=1, bg_dy=1)[0],
        FlowEstimatorParams(levels=3),
    ),
    # each estimator parameter away from its default, as the planes are reused under it
    "lk_window_3": lambda: (moving_block(24), FlowEstimatorParams(levels=2, lk_window=3)),
    "lk_window_7": lambda: (moving_block(25), FlowEstimatorParams(levels=2, lk_window=7)),
    "unsmoothed": lambda: (moving_block(26), FlowEstimatorParams(levels=3, smoothing_sigma=0.0)),
    "smoothing_2.5": lambda: (moving_block(27), FlowEstimatorParams(levels=3, smoothing_sigma=2.5)),
    "1_iteration": lambda: (moving_block(28), FlowEstimatorParams(levels=2, iterations_per_level=1)),
    "5_iterations": lambda: (moving_block(29), FlowEstimatorParams(levels=2, iterations_per_level=5)),
    "1_level": lambda: (moving_block(30), FlowEstimatorParams(levels=1)),
}


@pytest.fixture(params=[1, 2], ids=["1_thread", "2_threads"])
def threads(request):
    return request.param


@pytest.fixture
def pools(monkeypatch):
    """The worker count of each thread pool estimate_flow starts."""
    started = []

    class CountingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
    return started


class TestMatchesReference:
    """The workspace path against the allocate-per-operation oracle in flow_reference."""

    @pytest.mark.parametrize("case", sorted(EXACT_CASES))
    def test_bit_exact_pair_by_pair(self, threads, pools, case):
        video, params = EXACT_CASES[case]()
        fields = estimate_flow(video, params, threads)
        expected = flow_reference.estimate_flow(video, params)
        assert len(fields) == len(expected) == video.n_frames - 1
        assert fields.dtype == np.float64 and fields.flags.c_contiguous
        for got, want in zip(fields, expected):
            assert np.array_equal(got, want)
        assert pools == ([2] if threads > 1 and len(fields) > 1 else [])

    def test_one_thread_per_pair_switching_often(self, pools):
        """Each thread writes only its own workspace and its own pairs' output slots."""
        video, params = EXACT_CASES["100x72_4_levels"]()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            fields = estimate_flow(video, params, 64)  # capped at the 4 pairs
        finally:
            sys.setswitchinterval(interval)
        assert pools == [4]
        for got, want in zip(fields, flow_reference.estimate_flow(video, params)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("given, threads", [(1, 1), (2, 2), (3, 3), (64, 5)])
    def test_each_frame_pyramid_built_once_per_thread(self, monkeypatch, pools, given, threads):
        """Each thread runs a contiguous block of pairs and copies a pair's target pyramid
        into the next pair's reference slot: n_pairs + threads builds, not 2 n_pairs."""
        # 5 pairs: blocks of unequal size for 2 and 3 threads
        video, _ = synth.block_motion_video(64, 48, 6, [(8, 8, 16, 16)], dx=2, dy=1, seed=23)
        params = FlowEstimatorParams(levels=3)
        built = []
        grayscale = flow._grayscale

        def counting(frame, out):
            built.append(frame)
            grayscale(frame, out)

        monkeypatch.setattr(flow, "_grayscale", counting)
        fields = estimate_flow(video, params, given)
        assert len(built) == 5 + threads
        assert pools == ([threads] if threads > 1 else [])
        for got, want in zip(fields, flow_reference.estimate_flow(video, params), strict=True):
            assert np.array_equal(got, want)

    def test_too_many_levels(self):
        with pytest.raises(ValueError, match="too many levels"):
            estimate_flow(synth.static_video(32, 32, 2, seed=19), FlowEstimatorParams(levels=4))

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_stack_equals_the_fields_a_sink_receives(self, threads):
        """The library call's stack holds, bit for bit, the fields a sink is handed, in pair order."""
        video = synth.block_motion_video(48, 40, 6, [(8, 8, 12, 12)], dx=2, dy=1, seed=31, bg_dx=1)[0]
        params = FlowEstimatorParams(levels=2)
        received = {}

        def keep(t, field, scratch):
            received[t] = field.copy()
            return t

        assert estimate_flow(video, params, threads, keep) == list(range(5))
        stack = estimate_flow(video, params, threads)
        assert stack.shape == (5, 2, 48, 40) and stack.dtype == np.float64 and stack.flags.c_contiguous
        assert sorted(received) == list(range(5))
        for t, field in enumerate(stack):
            assert field.tobytes() == received[t].tobytes()

    @pytest.mark.parametrize("sink", [False, True], ids=["stack", "sink"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_field_rejected(self, monkeypatch, bad, sink):
        """A value poisoned as the second pair's finest level is refined stops the run
        before any sink is handed that field; the first pair's field reaches its sink."""
        refine, finest = flow._refine, []

        def poisoned(level, field, params):
            refine(level, field, params)
            if field.shape[1:] == (32, 32):
                finest.append(field)
                if len(finest) == 2:
                    field[1, -1, -1] = bad

        received = []

        def keep(t, field, scratch):
            assert np.isfinite(field).all()
            received.append(t)

        monkeypatch.setattr(flow, "_refine", poisoned)
        video = synth.static_video(32, 32, 4, seed=22)
        with pytest.raises(ValueError, match="^flow values must be finite$"):
            estimate_flow(video, FlowEstimatorParams(levels=2), 1, keep if sink else None)
        assert len(finest) == 2
        assert received == ([0] if sink else [])

    @staticmethod
    def peak_planes(n_frames, threads):
        """tracemalloc's peak, in 256x256 float64 planes, of flow at 3 levels on n_frames,
        each field handed to a sink that keeps nothing: the path every command runs."""
        video = synth.block_motion_video(256, 256, n_frames, [], 0, 0, seed=20, bg_dx=2, bg_dy=1)[0]
        tracemalloc.start()
        try:
            estimate_flow(video, FlowEstimatorParams(levels=3), threads, lambda t, field, scratch: None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / (256 * 256 * 8)

    def test_one_pair_peak_memory(self):
        """One 256x256 pair at 3 levels peaks near 13 frame-sized float64 planes:
        7 scratch planes, both frames' pyramids, the coarse flows and the field."""
        planes = self.peak_planes(2, 1)
        assert planes < 14, planes

    def test_two_pairs_on_two_threads_peak_memory(self):
        """A workspace per thread: two pairs on two threads peak near 26 planes."""
        planes = self.peak_planes(3, 2)
        assert planes < 27, planes


class TestReadAhead:
    def test_yields_a_copy_of_each_array_in_order(self):
        buffer = np.zeros(3)

        def overwritten():  # one buffer for every item, as reconstructed_frames yields
            for k in range(4):
                buffer[:] = k
                yield buffer

        got = list(flow.read_ahead(overwritten()))
        assert [a.tolist() for a in got] == [[k] * 3 for k in range(4)]
        assert not any(np.shares_memory(a, buffer) for a in got)

    def test_producer_runs_on_another_thread_and_its_error_reaches_the_caller(self):
        import threading

        made_on = []

        def failing():
            made_on.append(threading.get_ident())
            yield np.ones(2)
            raise ValueError("producer failed")

        ahead = flow.read_ahead(failing())
        assert next(ahead).tolist() == [1.0, 1.0]
        with pytest.raises(ValueError, match="producer failed"):
            next(ahead)
        assert made_on and threading.get_ident() not in made_on
