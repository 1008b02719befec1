import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.ndimage import map_coordinates

from flowcomm import channel as ch
from flowcomm import extractor as ex
from flowcomm import metrics, pipeline, reconstruct, synth
from flowcomm.config import parse_experiment_config
from flowcomm.flow import FlowEstimatorParams, estimate_flow
from flowcomm.reconstruct import reconstruct_video
from flowcomm.video import PatchGrid, Video, partition_patches, save_ppm_sequence


def full_selection_from_flows(flows, grid):
    """rho = 0 selection carrying the given (2, H, W) flow fields verbatim."""
    picks = np.tile(np.arange(grid.n_patches), (len(flows), 1))
    payloads = np.stack([partition_patches(field, grid) for field in flows])
    return ex.SelectionResult(grid, 0.0, picks, payloads, *flows[0].shape[1:])


class TestReconstruct:
    def test_static_zero_flow_identity(self):
        video = synth.static_video(48, 48, 4, seed=0)
        grid = PatchGrid.for_shape(48, 48, 16, 16)
        zero = np.zeros((3, 2, 48, 48))
        sel = full_selection_from_flows(zero, grid)
        rec = reconstruct_video(video.frames[0], sel)
        assert np.array_equal(rec.frames, video.frames)
        assert metrics.frame_losses(rec.frames, video, video.frames).mean_ssim == 1.0

    def test_integer_translation_with_true_flow(self):
        dx, n_frames = 1, 4
        video = synth.block_motion_video(64, 64, n_frames, [], 0, 0, seed=1, bg_dx=dx, bg_dy=0)[0]
        grid = PatchGrid.for_shape(64, 64, 16, 16)
        true_flows = np.zeros((n_frames - 1, 2, 64, 64))
        true_flows[:, 0] = dx
        rec = reconstruct_video(video.frames[0], full_selection_from_flows(true_flows, grid))
        for t in range(n_frames):
            interior = slice(t * dx + 1, None)  # wrap/clamp divergence stays at the left edge
            assert np.array_equal(
                rec.frames[t][:, interior], video.frames[t][:, interior]
            ), f"frame {t}"
        assert metrics.frame_losses(rec.frames, video, video.frames).mean_ssim > 0.95

    def test_heavy_masking_strictly_worse(self):
        video = synth.block_motion_video(64, 64, 5, [], 0, 0, seed=2, bg_dx=3, bg_dy=0)[0]
        flows = estimate_flow(video, FlowEstimatorParams(levels=3))
        grid = PatchGrid.for_shape(64, 64, 16, 16)
        sel_full = ex.extract(flows, grid, ex.ExtractorParams(mask_ratio=0.0), seed=3)
        sel_masked = ex.extract(flows, grid, ex.ExtractorParams(mask_ratio=0.99), seed=3)
        ssim_full = metrics.frame_losses(
            reconstruct_video(video.frames[0], sel_full).frames, video, video.frames
        ).mean_ssim
        ssim_masked = metrics.frame_losses(
            reconstruct_video(video.frames[0], sel_masked).frames, video, video.frames
        ).mean_ssim
        assert ssim_masked < ssim_full

    def test_geometry_mismatch(self):
        grid = PatchGrid.for_shape(32, 32, 16, 16)
        sel = full_selection_from_flows(np.zeros((1, 2, 32, 32)), grid)
        with pytest.raises(ValueError):
            reconstruct_video(np.zeros((64, 64, 3), dtype=np.uint8), sel)

    def test_masked_patches_carry_zero_flow(self):
        first = synth.smooth_texture(32, 32, seed=4)
        grid = PatchGrid.for_shape(32, 32, 16, 16)
        flows = [np.stack([np.full((32, 32), 2.0), np.zeros((32, 32))])]
        sel = full_selection_from_flows(flows, grid).prefix(0.75)  # patch (0, 0) alone
        assert sel.picks.tolist() == [[0]]
        frame = reconstruct_video(first, sel).frames[1]
        outside = np.ones((32, 32), dtype=bool)
        outside[:16, :16] = False
        assert np.array_equal(frame[outside], first[outside])
        # u = 2 px, a whole-pixel shift: each pixel of the patch is frame 0's two columns
        # to its left, clamped at the left edge.
        assert np.array_equal(frame[:16, :16], first[:16, np.maximum(np.arange(16) - 2, 0)])
        assert not np.array_equal(frame[:16, :16], first[:16, :16])

    def test_a_flow_past_the_intp_range_samples_the_nearest_edge(self):
        # A decoded magnitude can reach [codec] mag_cap, valid up to about 1.8e308: row
        # coordinates near 1e300 cast outside int64, which took the top edge, with a warning.
        h = w = 32
        first = np.zeros((h, w, 3), dtype=np.uint8)
        first[0], first[-1] = 10, 200
        grid = PatchGrid.for_shape(h, w, 16, 16)
        flows = [np.stack([np.zeros((h, w)), np.full((h, w), -1e300)])]
        sel = full_selection_from_flows(flows, grid).prefix(0.75)  # patch (0, 0) alone
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            frames = reconstruct_video(first, sel).frames
        assert np.all(frames[1, :16, :16] == 200)  # mode "nearest": the bottom edge
        assert np.array_equal(frames[1, 16:], first[16:])
        assert np.array_equal(frames[1, :, 16:], first[:, 16:])


def map_coordinates_reconstruction(first_frame, sel):
    """Oracle: every pixel of every frame resampled by three map_coordinates calls."""
    grid, h, w = sel.grid, sel.field_h, sel.field_w
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    current = first_frame.astype(np.float64)
    frames = [first_frame.astype(np.uint8)]
    for t in range(sel.n_flow_frames):
        full = np.zeros((2, grid.rows * grid.patch_h, grid.cols * grid.patch_w))
        for k, payload in zip(sel.picks[t], sel.payloads[t]):
            i, j = divmod(int(k), grid.cols)
            full[
                :,
                i * grid.patch_h : (i + 1) * grid.patch_h,
                j * grid.patch_w : (j + 1) * grid.patch_w,
            ] = payload
        rows = yy - full[1, :h, :w]
        cols = xx - full[0, :h, :w]
        warped = np.stack(
            [map_coordinates(current[:, :, c], [rows, cols], order=1, mode="nearest") for c in range(3)],
            axis=-1,
        )
        current = np.clip(warped, 0.0, 255.0)
        frames.append(np.clip(np.rint(current), 0, 255).astype(np.uint8))
    return np.stack(frames)


def edge_reaching_flows(h, w, n, seed):
    """Random flows past every edge, with samples landing exactly on row h-1 and column w-1."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    flows = []
    for _ in range(n):
        u = rng.uniform(-1.5 * w, 1.5 * w, (h, w))
        v = rng.uniform(-1.5 * h, 1.5 * h, (h, w))
        u[:, ::5] = rng.uniform(-3.0, 3.0, (h, len(range(0, w, 5))))
        v[::3] = (yy - (h - 1))[::3]                      # lands on row h - 1
        u[::4] = (xx - (w - 1))[::4]                      # lands on column w - 1
        v[1::7] = (yy - rng.uniform(h - 1, h, (h, w)))[1::7]  # between row h - 1 and h
        u[2::7] = (xx + rng.uniform(0.0, 1.0, (h, w)))[2::7]  # between column -1 and 0
        u[3::9], v[3::9] = np.rint(u[3::9]), np.rint(v[3::9])  # whole-pixel offsets
        # Offsets under a pixel at row 0 and column 0 have low fraction bits that
        # 1 - (1 - frac) loses, which tells the two forms of the second weight apart.
        v[0] = rng.uniform(-1.0, 1.0, w) ** 3
        u[:, 0] = rng.uniform(-1.0, 1.0, h) ** 3
        flows.append(np.stack([u, v]))
    return flows


def dense(h, w, n, seed):
    return full_selection_from_flows(edge_reaching_flows(h, w, n, seed), PatchGrid.for_shape(h, w, 16, 16))


def masked_with_zero_payloads(h, w, n, seed):
    """A masked selection: 60% of each frame's patches in random order, some carrying exactly zero flow."""
    sel = dense(h, w, n, seed)
    rng = np.random.default_rng(seed + 1)
    k = round(0.6 * sel.grid.n_patches)
    picks = np.stack([rng.permutation(sel.grid.n_patches)[:k] for _ in range(n)])
    payloads = np.take_along_axis(sel.payloads, picks[:, :, None, None, None], axis=1)
    flat = payloads.reshape(n * k, 2, 16, 16)
    flat[::3] = 0.0
    flat[1::3, :, :8] = 0.0
    return replace(sel, picks=picks, payloads=payloads)


def without_patches(h, w, n, seed):
    sel = dense(h, w, n, seed)
    return replace(sel, picks=sel.picks[:, :0], payloads=sel.payloads[:, :0])


class TestMatchesMapCoordinates:
    @pytest.mark.parametrize(
        "h, w, make",
        [
            (48, 64, dense),
            (48, 64, masked_with_zero_payloads),
            (30, 41, dense),
            (30, 41, masked_with_zero_payloads),
            (48, 64, without_patches),
        ],
        ids=["dense", "masked-zero-payloads", "dense-30x41", "masked-30x41", "no-patches"],
    )
    # A frame here moves at most 3072 pixels: the smaller blocks split it, down to one pixel each.
    @pytest.mark.parametrize("block", [1, 7, 1000, 1 << 14])
    def test_byte_identical_frames(self, monkeypatch, h, w, make, block):
        monkeypatch.setattr(reconstruct, "_BLOCK", block)
        sel = make(h, w, 4, seed=h + w)
        first = np.random.default_rng(w).integers(0, 256, (h, w, 3)).astype(np.uint8)
        expected = map_coordinates_reconstruction(first, sel)
        got = reconstruct_video(first, sel).frames
        assert got.dtype == np.uint8
        assert np.array_equal(got, expected)

    def test_rounding_ties_on_a_flat_half_integer_frame(self):
        # Columns alternating 100, 101 shifted by half a pixel give a flat 100.5 frame,
        # so each later sample is a rounding tie that a one-ulp weight error flips.
        # Wide, for many sub-pixel offsets at row 0.
        h, w = 30, 401
        first = np.broadcast_to((100 + np.arange(w) % 2)[None, :, None], (h, w, 3)).astype(np.uint8)
        half_pixel = np.stack([np.full((h, w), 0.5), np.zeros((h, w))])
        flows = [half_pixel] + edge_reaching_flows(h, w, 2, seed=5)
        sel = full_selection_from_flows(flows, PatchGrid.for_shape(h, w, 16, 16))
        expected = map_coordinates_reconstruction(first, sel)
        assert np.array_equal(reconstruct_video(first, sel).frames, expected)


def whole_video_losses(reconstructed: np.ndarray, original: Video, reference) -> metrics.QualityReport:
    """Reference: score a stacked reconstruction after it is whole, as the cells did before."""
    assert reconstructed.shape == original.frames.shape
    f_ssim, f_psnr, f_mse = [], [], []
    for t in range(original.n_frames):
        m = metrics.mse(reconstructed[t], original.frames[t])
        f_mse.append(m)
        f_psnr.append(metrics.psnr(m))
        f_ssim.append(1.0 if m == 0.0 else metrics.ssim(reconstructed[t], reference[t]))
    mean_mse = float(np.mean(f_mse))
    return metrics.QualityReport(
        f_ssim, f_psnr, f_mse, float(np.mean(f_ssim)), metrics.psnr(mean_mse), mean_mse
    )


class TestPerFrameCell:
    def test_matches_the_whole_video_composition(self, tmp_path):
        """Each cell's frame-by-frame loop scores what decoding, reconstructing and scoring
        the whole video in turn scores, on noisy channels and with the cells on two threads."""
        video, _ = synth.block_motion_video(
            64, 80, 6, [(16, 16, 16, 32)], dx=3, dy=-1, seed=12, bg_dx=1, bg_dy=0
        )
        save_ppm_sequence(video, tmp_path / "clip")
        config = tmp_path / "c.ini"
        config.write_text(
            f"[input]\nvideos = {tmp_path / 'clip'}\n[flow]\nlevels = 2\n"
            "[sweep]\nrho = 0.0 0.4 0.99\nsnr_db = -5 5 20\n"
        )
        cfg = parse_experiment_config(config)
        run = pipeline.VideoRun(cfg, 7, str(tmp_path / "clip"), 2)
        points = run.points()
        cells = list(run.cells())
        assert len(points) == len(cells) == 9
        for point, (sel, norm, snr_db, seed) in zip(points, cells):
            rho = sel.mask_ratio
            decoded = pipeline.transmit_selection(sel, norm, cfg.codec, ch.db_to_linear(snr_db), seed)
            noisy = replace(sel, payloads=decoded)
            frames = map_coordinates_reconstruction(video.frames[0], noisy)
            expected = whole_video_losses(frames, video, run.ssim_reference)
            assert (point.rho, point.snr_db) == (rho, snr_db)
            assert point.report == expected, (rho, snr_db)
            assert point.map == metrics.motion_area_percentage(sel.important)
        assert points[0].report.mean_ssim < 1.0  # the noise reached the reconstruction


class TestTransmissionTransparency:
    def test_noiseless_channel_path_matches_codec_only(self):
        video = synth.block_motion_video(64, 64, 4, [(16, 16, 16, 16)], dx=2, dy=0, seed=4)[0]
        flows = estimate_flow(video, FlowEstimatorParams(levels=3))
        grid = PatchGrid.for_shape(64, 64, 16, 16)
        sel = ex.extract(flows, grid, ex.ExtractorParams(mask_ratio=0.0), seed=5)
        payloads = sel.payloads.reshape(-1, 2, 16, 16)
        cp = ch.CodecParams(bits_per_symbol=12)

        codec_only = ch.flow_decode(ch.flow_encode(payloads, cp), cp, 16, 16)

        symbols = ch.flow_encode(payloads, cp)
        scaled_cp = ch.CodecParams(bits_per_symbol=12, gamma=float(symbols.size))
        normalized = ch.power_normalize(symbols, scaled_cp, p_ue=1.0)
        scale = math.sqrt(scaled_cp.gamma) / float(np.sqrt(symbols @ symbols))
        received = ch.transmit_analog(normalized, 0.0, seed=6)
        via_channel = ch.flow_decode(received / scale, cp, 16, 16)

        assert np.array_equal(via_channel, codec_only)

        def rebuild(decoded):
            return replace(sel, payloads=decoded.reshape(sel.payloads.shape))

        rec_a = reconstruct_video(video.frames[0], rebuild(codec_only))
        rec_b = reconstruct_video(video.frames[0], rebuild(via_channel))
        assert np.array_equal(rec_a.frames, rec_b.frames)


class TestMapThreshold:
    def test_covered_motion_region_beats_uncovered(self):
        # 100 patches, 10 of them moving over a panning background -> MAP = 0.1
        cells = [(1, 1), (2, 3), (4, 5), (6, 7), (8, 2), (1, 8), (3, 6), (5, 1), (7, 4), (8, 8)]
        blocks = [(i * 16, j * 16, 16, 16) for i, j in cells]
        video, mask0 = synth.block_motion_video(
            160, 160, 2, blocks, dx=-2, dy=0, seed=7, bg_dx=1, bg_dy=0
        )
        flows = estimate_flow(video, FlowEstimatorParams(levels=2))
        grid = PatchGrid.for_shape(160, 160, 16, 16)
        gt = synth.block_motion_ground_truth(mask0, 16, 16)
        n_motion = int(gt.sum())
        assert n_motion == 10

        def motion_mse(rho):
            sel = ex.extract(flows, grid, ex.ExtractorParams(mask_ratio=rho), seed=8)
            rec = reconstruct_video(video.frames[0], sel)
            diff = rec.frames[1].astype(float) - video.frames[1].astype(float)
            region = np.repeat(np.repeat(gt, 16, axis=0), 16, axis=1)
            return float(np.mean(diff[region] ** 2)), sel

        covered_mse, sel_covered = motion_mse(1.0 - (n_motion + 2) / 100)   # n_sel = 12 >= 10
        uncovered_mse, _ = motion_mse(1.0 - (n_motion - 6) / 100)           # n_sel = 4 < 10
        selected = {divmod(int(k), grid.cols) for k in sel_covered.picks[0]}
        assert {(i, j) for i, j in zip(*np.where(gt))} <= selected
        assert covered_mse < uncovered_mse
