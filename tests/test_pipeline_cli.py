import concurrent.futures
import configparser
import csv
import json
import math
import os
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import replace
from functools import partial
from operator import attrgetter

import numpy as np
import pytest

from helpers import (
    read_selection,
    reference_encode_selection,
    reference_received_payloads,
)
from flowcomm import channel as ch
from flowcomm import cli, pipeline, synth
from flowcomm import extractor as ex
from flowcomm.config import derive_seed, parse_experiment_config, parse_scenario_config
from flowcomm.flow import estimate_flow
from flowcomm.pipeline import (
    encode_selections,
    received_payloads,
    run_videos,
    transmit_selection,
    transmit_stats,
)
from flowcomm.video import PatchGrid, load_ppm_sequence, read_flo, save_ppm_sequence


def encode_selection(sel, codec):
    """(selection, norm): `sel` encoded by `encode_selections` as the one rho of its video."""
    encoded, = encode_selections(sel, [sel.mask_ratio], codec)
    return encoded


@pytest.fixture(scope="module")
def clips(tmp_path_factory):
    root = tmp_path_factory.mktemp("clips")
    synth_static = synth.static_video(64, 64, 4, seed=0)
    save_ppm_sequence(synth_static, root / "static")
    for k in range(2):
        video, _ = synth.block_motion_video(
            64, 64, 4, [(16, 16, 16, 16)], dx=2, dy=0, seed=10 + k
        )
        save_ppm_sequence(video, root / f"motion{k}")
    # 2 patch rows of 16 px: too few for the quadratic background model
    thin, _ = synth.block_motion_video(32, 128, 4, [(8, 8, 8, 8)], dx=2, dy=0, seed=3)
    save_ppm_sequence(thin, root / "thin")
    # 10 px rows: a 4x14 grid of 3 px patches, but smaller than the 11x11 SSIM window
    small, _ = synth.block_motion_video(10, 40, 4, [(3, 8, 4, 4)], dx=2, dy=0, seed=5)
    save_ppm_sequence(small, root / "small")
    # motion1 with its last frame cut short: a container error found only by reading it all
    last = save_ppm_sequence(load_ppm_sequence(root / "motion1"), root / "truncated")[-1]
    with open(last, "r+b") as fh:
        fh.truncate(os.path.getsize(last) - 1)
    return root


def write_config(
    path, videos, rho="0.0 0.5", snr_db="30", bits=8, levels=3, extra="", codec="", flow=""
):
    path.write_text(
        f"""
[input]
videos = {' '.join(str(v) for v in videos)}

[flow]
levels = {levels}
{flow}

[codec]
bits_per_symbol = {bits}
{codec}

[sweep]
rho = {rho}
snr_db = {snr_db}
{extra}"""
    )
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run_points(cfg, run_seed, workers=1):
    """Every cell's PointResult in grid order, each video's cells from its VideoRun."""
    return [r for points in run_videos(cfg, run_seed, workers, pipeline.VideoRun.points) for r in points]


class TestConfig:
    def test_missing_file(self, tmp_path):
        from flowcomm.config import ConfigError

        with pytest.raises(ConfigError):
            parse_experiment_config(tmp_path / "nope.ini")

    def test_defaults_fill_in(self, tmp_path, clips):
        cfg_path = write_config(tmp_path / "c.ini", [clips / "static"])
        cfg = parse_experiment_config(cfg_path)
        assert cfg.patch_h == 16 and cfg.codec.mag_cap == 32.0
        assert cfg.extractor.ransac_iters == 64

    def test_derive_seed_stable(self):
        assert derive_seed(7, "extract", 3) == derive_seed(7, "extract", 3)
        assert derive_seed(7, "extract", 3) != derive_seed(7, "extract", 4)
        assert derive_seed(7, "extract", 3) != derive_seed(7, "channel", 3)

    def test_link_section_keys(self, tmp_path, clips):
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text(
            f"""
[input]
videos = {clips / 'static'}

[link]
d = 250
f_c = 5.8e9
alpha = 2.0
P = 0.5
sigma2 = 1e-10
B = 2e6
"""
        )
        # Geometry and power belong to allocation scenarios; the experiment reads only B.
        cfg = parse_experiment_config(cfg_path)
        assert cfg.bandwidth_hz == 2e6


class TestPipeline:
    def test_transparent_static_run(self, tmp_path, clips):
        cfg = parse_experiment_config(
            write_config(tmp_path / "c.ini", [clips / "static"], rho="0.0", snr_db="200", bits=12)
        )
        results = run_points(cfg, run_seed=1)
        assert len(results) == 1
        assert results[0].report.mean_ssim > 0.999

    def test_one_row_per_grid_point(self, tmp_path, clips):
        cfg = parse_experiment_config(
            write_config(tmp_path / "c.ini", [clips / "motion0", clips / "motion1"],
                         rho="0.0 0.3 0.6 0.9", snr_db="30")
        )
        results = run_points(cfg, run_seed=2)
        assert len(results) == 8  # 2 videos x 4 rho x 1 snr
        assert [r.rho for r in results[:4]] == [0.0, 0.3, 0.6, 0.9]

    def test_workers_match_sequential(self, tmp_path, clips):
        cfg = parse_experiment_config(
            write_config(tmp_path / "c.ini", [clips / "motion0", clips / "motion1"], rho="0.0 0.5")
        )
        seq = run_points(cfg, run_seed=3, workers=1)
        par = run_points(cfg, run_seed=3, workers=2)
        assert len(seq) == len(par)
        for a, b in zip(seq, par):
            assert (a.video_id, a.rho, a.snr_db) == (b.video_id, b.rho, b.snr_db)
            assert a.report.mean_ssim == b.report.mean_ssim
            assert a.report.frame_mse == b.report.frame_mse

    @staticmethod
    def counted_pools(monkeypatch, base=ProcessPoolExecutor) -> list:
        """The worker count of each video pool run_videos starts, each pool a `base`."""
        started = []

        class CountingPool(base):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        return started

    def test_no_more_processes_than_videos(self, tmp_path, clips, monkeypatch):
        started = self.counted_pools(monkeypatch)
        videos = [clips / "motion0", clips / "motion1"]
        cfg = parse_experiment_config(write_config(tmp_path / "c.ini", videos, rho="0.5"))
        assert len(run_points(cfg, run_seed=3, workers=3)) == 2
        assert started == [2]

    def test_one_video_runs_in_process(self, tmp_path, clips, monkeypatch):
        started = self.counted_pools(monkeypatch)
        cfg = parse_experiment_config(write_config(tmp_path / "c.ini", [clips / "motion0"], rho="0.5"))
        assert len(run_points(cfg, run_seed=3, workers=3)) == 1
        assert started == []

    def test_in_process_videos_let_go_one_at_a_time(self, tmp_path, clips, monkeypatch):
        started = self.counted_pools(monkeypatch)
        videos = [clips / "static", clips / "motion0", clips / "motion1"]
        cfg = parse_experiment_config(write_config(tmp_path / "c.ini", videos, rho="0.5"))
        loaded, alive = [], []

        def task(run):
            alive.append([ref() is not None for ref in loaded])
            loaded.append(weakref.ref(run.video))
            return len(run.points())

        assert run_videos(cfg, 3, 1, task) == [1, 1, 1]
        assert alive == [[], [False], [False, False]]
        assert started == []

    @pytest.mark.parametrize("processes, threads", [(1, 4), (2, 2), (3, 1), (8, 1)])
    def test_cpus_split_among_video_processes(self, tmp_path, monkeypatch, processes, threads):
        """run_videos gives each video its share of the CPUs; the videos are never loaded."""
        started = self.counted_pools(monkeypatch, ThreadPoolExecutor)
        monkeypatch.setattr(pipeline, "usable_cpus", lambda: 4)
        videos = [tmp_path / f"v{k}" for k in range(processes)]
        cfg = parse_experiment_config(write_config(tmp_path / "c.ini", videos))
        assert run_videos(cfg, 0, processes, attrgetter("threads")) == [threads] * processes
        assert started == ([processes] if processes > 1 else [])

    def test_empty_selection_survives_transmit(self, tmp_path, clips):
        # rho = 0.99 on a 16-patch grid rounds the selection count to zero
        cfg = parse_experiment_config(
            write_config(tmp_path / "c.ini", [clips / "motion0"], rho="0.99", snr_db="30")
        )
        results = run_points(cfg, run_seed=6)
        assert results[0].n_selected == 0
        assert 0.0 <= results[0].report.mean_ssim <= 1.0

    def test_transmit_selection_noiseless_limit(self, tmp_path, clips):
        cfg = parse_experiment_config(write_config(tmp_path / "c.ini", [clips / "motion0"]))
        video = load_ppm_sequence(clips / "motion0")
        flows = estimate_flow(video, cfg.flow_params)
        grid = PatchGrid.for_shape(64, 64, 16, 16)
        sel = ex.extract(flows, grid, cfg.extractor, seed=4)
        coded, norm = encode_selection(sel, cfg.codec)
        decoded = transmit_selection(coded, norm, cfg.codec, math.inf, seed=5)
        payloads = sel.payloads.reshape(-1, 2, 16, 16)
        expected = ch.flow_decode(ch.flow_encode(payloads, cfg.codec), cfg.codec, 16, 16)
        assert np.array_equal(decoded.reshape(-1, 2, 16, 16), expected)
        assert np.array_equal(coded.picks, sel.picks)


    def test_each_rho_keeps_a_prefix_of_one_extraction(self, tmp_path, clips):
        cfg = parse_experiment_config(
            write_config(tmp_path / "c.ini", [clips / "motion0"], rho="0.6 0.0 0.99 0.3")
        )
        run = pipeline.VideoRun(cfg, 3, str(clips / "motion0"), 1)
        grid = PatchGrid.for_shape(64, 64, 16, 16)
        seed = derive_seed(3, "extract", "motion0")
        got = list(run.selections())
        assert [sel.mask_ratio for sel in got] == [0.6, 0.0, 0.99, 0.3]
        flows = estimate_flow(run.video, cfg.flow_params)
        for sel in got:
            rho = sel.mask_ratio
            alone = ex.extract(flows, grid, replace(cfg.extractor, mask_ratio=rho), seed)
            assert sel.to_bytes() == alone.to_bytes(), rho
            assert sel.picks.shape == (3, ex.selection_count(rho, 16))
        assert got[2].n_selected == 0  # rho 0.99 keeps round(0.16) = 0 of 16

    def test_ssim_statistics_skip_the_copied_first_frame(self, tmp_path, clips, monkeypatch):
        calls = []
        original = pipeline.ssim_stats

        def counting(frame, planes):
            calls.append(frame)
            return original(frame, planes)

        monkeypatch.setattr(pipeline, "ssim_stats", counting)
        cfg = parse_experiment_config(
            write_config(tmp_path / "c.ini", [clips / "motion0", clips / "motion1"], snr_db="10 30")
        )
        assert len(run_points(cfg, run_seed=1)) == 8
        assert len(calls) == 2 * (4 - 1)  # per video: every frame but frame 0


    def full_selection(self, tmp_path, clips):
        cfg = parse_experiment_config(write_config(tmp_path / "c.ini", [clips / "motion0"]))
        flows = estimate_flow(load_ppm_sequence(clips / "motion0"), cfg.flow_params)
        sel = ex.extract(flows, PatchGrid.for_shape(64, 64, 16, 16), cfg.extractor, seed=4)
        assert sel.n_selected == sel.xi.size  # rho 0: every patch
        return cfg, sel

    def test_transmit_selection_matches_the_out_of_place_leg(self, tmp_path, clips):
        cfg, sel = self.full_selection(tmp_path, clips)
        payloads = sel.payloads.reshape(-1, 2, 16, 16).copy()
        symbols = ch.flow_encode(payloads, cfg.codec)
        per_symbol = replace(cfg.codec, gamma=cfg.codec.gamma * symbols.size)
        normalized = ch.power_normalize(symbols, per_symbol, 1.0)
        scale = math.sqrt(per_symbol.gamma) / float(np.sqrt(symbols @ symbols))
        noise = np.random.default_rng(5).standard_normal(normalized.shape) * math.sqrt(1.0 / 10.0 / 2.0)
        decoded = ch.flow_decode((normalized + noise) * (1.0 / scale), cfg.codec, 16, 16)

        coded, norm = encode_selection(sel, cfg.codec)
        degraded = transmit_selection(coded, norm, cfg.codec, 10.0, seed=5)
        assert np.array_equal(degraded.reshape(-1, 2, 16, 16), decoded)
        assert np.array_equal(sel.payloads.reshape(-1, 2, 16, 16), payloads)
        n_symbols, rms = transmit_stats(sel.payloads, degraded)
        assert rms == float(np.sqrt(np.mean((decoded - payloads) ** 2)))
        assert n_symbols == symbols.size

    def test_transmit_selection_peak_memory(self, tmp_path, clips):
        # A cell decodes one flow frame at a time into one buffer and holds one frame's symbol
        # arrays besides, whatever the clip's length; the transmit command's stacked decode holds
        # the stack besides. Each rho is encoded once, before its cells.
        cfg, sel = self.full_selection(tmp_path, clips)
        coded, norm = encode_selection(sel, cfg.codec)
        payload_bytes, frame_bytes = sel.payloads.nbytes, sel.payloads[0].nbytes

        def frame_by_frame():
            for _ in received_payloads(coded, norm, cfg.codec, 10.0, 5):
                pass

        peaks = []
        for decode in (frame_by_frame, lambda: transmit_selection(coded, norm, cfg.codec, 10.0, seed=5)):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                decode()
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        assert peaks[0] < 5.0 * frame_bytes, peaks[0] / frame_bytes
        assert peaks[1] < 2.0 * payload_bytes, peaks[1] / payload_bytes
        assert coded.codes.nbytes * 8 == payload_bytes  # uint8 codes, one per float64 payload value

    def rho0_cell_peak(self, tmp_path, video, name):
        """The tracemalloc peak of the clip's one cell, at rho 0 and 10 dB, above its start."""
        clip = tmp_path / name
        save_ppm_sequence(video, clip)
        cfg = parse_experiment_config(write_config(tmp_path / f"{name}.ini", [clip], rho="0.0", snr_db="10"))
        run = pipeline.VideoRun(cfg, 1, str(clip), 1)
        cell, = run.cells()
        run.ssim_reference  # the per-video SSIM half is not the cell's
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            pipeline.run_point(run, *cell)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_a_cells_peak_memory_does_not_grow_with_the_clip(self, tmp_path):
        peaks = {}
        for n_frames in (4, 8):
            video, _ = synth.block_motion_video(64, 64, n_frames, [(16, 16, 16, 16)], dx=2, dy=0, seed=10)
            peaks[n_frames] = self.rho0_cell_peak(tmp_path, video, f"clip{n_frames}")
        # Four more frames of whole-video decoded payloads and reconstructed frames would add
        # about five frames' payloads.
        frame_bytes = 16 * 2 * 16 * 16 * 8  # one flow frame's decoded payloads at rho 0
        assert peaks[8] - peaks[4] < frame_bytes, peaks

    def test_a_cells_peak_memory_in_frame_planes(self, tmp_path):
        """A cell makes its decode, warp and SSIM planes once, and bounds every other array
        by a block: at rho 0, with every pixel moving, a cell on 256x256 frames peaks near
        20.7 H x W float64 planes. Making them afresh each frame peaked near 24."""
        video, _ = synth.block_motion_video(
            256, 256, 3, [(64, 96, 64, 64)], dx=2, dy=1, seed=12, bg_dx=1, bg_dy=0
        )
        peak = self.rho0_cell_peak(tmp_path, video, "pan")
        assert peak < 22 * 256 * 256 * 8, peak / (256 * 256 * 8)

    def one_cell_peak(self, tmp_path, n_frames, task=pipeline.VideoRun.points):
        """The tracemalloc peak of task(run), by default the run's one cell, on a 128x128 clip,
        its frames loaded first."""
        video, _ = synth.block_motion_video(
            128, 128, n_frames, [(32, 48, 32, 32)], dx=2, dy=1, seed=14, bg_dx=1, bg_dy=0
        )
        clip = tmp_path / f"clip{n_frames}"
        save_ppm_sequence(video, clip)
        cfg = parse_experiment_config(
            write_config(tmp_path / f"c{n_frames}.ini", [clip], rho="0.5", snr_db="20")
        )
        run = pipeline.VideoRun(cfg, 1, str(clip), 1)
        run.video  # the source frames grow with the clip whatever a run keeps
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            task(run)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_a_one_cell_runs_peak_memory_grows_by_less_than_half_a_field_a_frame(self, tmp_path):
        # Each frame keeps its picks, its importance bitmap and its uint8 codes; a stack
        # of flow fields, of float64 payloads or of SSIM statistics would each add about
        # a field or more per frame.
        peaks = {n_frames: self.one_cell_peak(tmp_path, n_frames) for n_frames in (4, 16)}
        field_bytes = 2 * 128 * 128 * 8
        assert (peaks[16] - peaks[4]) / 12 < field_bytes / 2, peaks

    def test_the_flow_commands_peak_memory_grows_by_less_than_half_a_field_a_frame(self, tmp_path):
        # Each field is written to its .flo file and reduced to its mean magnitude as it is
        # estimated; a stack of the fields would add a field per frame.
        task = partial(cli.flow_rows, str(tmp_path / "out"))
        peaks = {n_frames: self.one_cell_peak(tmp_path, n_frames, task) for n_frames in (4, 16)}
        field_bytes = 2 * 128 * 128 * 8
        assert (peaks[16] - peaks[4]) / 12 < field_bytes / 2, peaks
        assert len(os.listdir(tmp_path / "out" / "clip16")) == 15

    @pytest.mark.parametrize("entry", ["run_videos", "transmit"])
    def test_each_video_is_encoded_once(self, tmp_path, clips, monkeypatch, entry):
        encoded = []
        original = ch.flow_codes

        def counting(payloads, codec):
            encoded.append(payloads.shape[0])
            return original(payloads, codec)

        monkeypatch.setattr(ch, "flow_codes", counting)
        cfg = write_config(tmp_path / "c.ini", [clips / "motion0"], rho="0.5 0.0", snr_db="10 30")
        if entry == "run_videos":
            assert len(run_points(parse_experiment_config(cfg), run_seed=1)) == 4
        else:
            assert cli.main(["transmit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        # one encode of each flow frame's 16 patches at rho 0, shared by both rhos' SNR cells
        assert encoded == [16] * 3

    @pytest.mark.parametrize("bits", [1, 8, 16])
    def test_each_rhos_encoding_equals_its_own(self, tmp_path, clips, bits):
        cfg = parse_experiment_config(write_config(tmp_path / "c.ini", [clips / "motion1"], bits=bits))
        flows = estimate_flow(load_ppm_sequence(clips / "motion1"), cfg.flow_params)
        widest = ex.extract(flows, PatchGrid.for_shape(64, 64, 16, 16), cfg.extractor, seed=2)
        rhos = [0.6, 0.0, 0.99, 0.3]  # 0.99 keeps round(0.16) = 0 of 16 patches
        got = list(encode_selections(widest, rhos, cfg.codec))
        assert [sel.mask_ratio for sel, _ in got] == rhos
        for sel, norm in got:
            rho = sel.mask_ratio
            alone, alone_norm = reference_encode_selection(widest.prefix(rho), cfg.codec)
            assert sel.to_bytes() == widest.prefix(rho).to_bytes()
            assert sel.codes.tobytes() == alone.codes.tobytes(), rho
            assert sel.codes.dtype == alone.codes.dtype and sel.codes.shape == alone.codes.shape
            assert np.float64(norm).tobytes() == np.float64(alone_norm).tobytes(), rho
            assert np.array_equal(sel.picks, alone.picks)
            for snr in (10.0, math.inf):
                expected = reference_received_payloads(alone, alone_norm, cfg.codec, snr, seed=5)
                assert transmit_selection(sel, norm, cfg.codec, snr, 5).tobytes() == expected.tobytes()
        assert got[2][0].codes.size == 0 and got[2][1] == 0.0

    def test_flow_fields_are_freed_before_the_first_cell(self, tmp_path, clips, monkeypatch):
        refs = []
        estimate, run_point = pipeline.estimate_flow, pipeline.run_point

        def tracked(video, params, threads, sink):
            def tracking(t, field, scratch):
                refs.extend([weakref.ref(field), weakref.ref(scratch)])
                return sink(t, field, scratch)

            rows = estimate(video, params, threads, tracking)
            assert len(rows) == 3  # one entry per pair, and no field among them
            return rows

        alive_at_cells = []

        def cell(*args):
            alive_at_cells.append(sum(ref() is not None for ref in refs))
            return run_point(*args)

        monkeypatch.setattr(pipeline, "estimate_flow", tracked)
        monkeypatch.setattr(pipeline, "run_point", cell)
        cfg = write_config(tmp_path / "c.ini", [clips / "motion0"], rho="0.0 0.5", snr_db="10 30")
        assert len(run_points(parse_experiment_config(cfg), run_seed=1)) == 4
        assert len(refs) == 6
        assert alive_at_cells == [0, 0, 0, 0]

    def test_selection_payloads_are_freed_before_the_first_cell(self, tmp_path, clips, monkeypatch):
        refs = []
        extract, run_point = ex.extract, pipeline.run_point

        def tracked(*args):
            sel = extract(*args)
            # each frame's payloads became codes as it was extracted; every rho's codes are views of these
            assert sel.payloads is None
            assert sel.codes.dtype == np.uint8 and sel.codes.shape == (3, 16 * 2 * 16 * 16)
            refs.append(weakref.ref(sel))
            return sel

        alive_at_cells = []

        def cell(*args):
            alive_at_cells.append(sum(ref() is not None for ref in refs))
            return run_point(*args)

        monkeypatch.setattr(ex, "extract", tracked)
        monkeypatch.setattr(pipeline, "run_point", cell)
        cfg = write_config(tmp_path / "c.ini", [clips / "motion0"], rho="0.0 0.5", snr_db="10 30")
        assert len(run_points(parse_experiment_config(cfg), run_seed=1)) == 4
        assert len(refs) == 1
        assert alive_at_cells == [0, 0, 0, 0]

    def test_cells_on_more_threads_than_cores_match_one_thread(self, tmp_path, clips):
        # Frequent thread switches: any buffer two cells shared would mix their frames.
        cfg = parse_experiment_config(
            write_config(tmp_path / "c.ini", [clips / "motion0"], rho="0.0 0.3", snr_db="0 5 10 15 20 30")
        )
        reports = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for threads in (1, 12):
                run = pipeline.VideoRun(cfg, 2, str(clips / "motion0"), threads)
                reports[threads] = [p.report for p in run.points()]
        finally:
            sys.setswitchinterval(interval)
        assert len(reports[1]) == 12
        assert reports[12] == reports[1]

    def test_flow_threads_extract_their_own_fields_one_frame_at_a_time(self, tmp_path, monkeypatch):
        video, _ = synth.block_motion_video(64, 64, 7, [(16, 16, 16, 16)], dx=2, dy=1, seed=13)
        save_ppm_sequence(video, tmp_path / "clip")
        cfg = parse_experiment_config(write_config(tmp_path / "c.ini", [tmp_path / "clip"], levels=2))
        active, overlaps, extracted_on = [], [], set()
        fit = ex.ransac_background

        def watched(*args):
            active.append(None)
            overlaps.append(len(active))
            extracted_on.add(threading.get_ident())
            try:
                return fit(*args)
            finally:
                active.pop()

        monkeypatch.setattr(ex, "ransac_background", watched)
        selections = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for threads in (1, 6):
                run = pipeline.VideoRun(cfg, 3, str(tmp_path / "clip"), threads)
                selections[threads] = run.widest_selection(lambda p: ch.flow_codes(p, cfg.codec))
                if threads == 1:
                    assert extracted_on == {threading.get_ident()}
                    extracted_on.clear()
        finally:
            sys.setswitchinterval(interval)
        assert len(overlaps) == 12 and max(overlaps) == 1
        assert len(extracted_on) > 1 and threading.get_ident() not in extracted_on
        one, six = selections[1], selections[6]
        assert one.payloads is None and six.payloads is None
        for name in ("picks", "codes", "important"):
            assert getattr(six, name).tobytes() == getattr(one, name).tobytes(), name

    @pytest.mark.parametrize("rho, snr_db", [("0.3", "10"), ("0.0 0.3", "10")], ids=["1_cell", "2_cells"])
    def test_two_threads_per_cell_make_frames_ahead_with_the_same_bits(
        self, tmp_path, clips, monkeypatch, rho, snr_db
    ):
        """Each cell makes its frames on a thread of its own only when the video has two
        threads for each cell; the scores keep their bits either way."""
        made, scored = [], []
        reconstructed, losses = pipeline.reconstructed_frames, pipeline.frame_losses

        def making(*args):
            for frame in reconstructed(*args):
                made.append(threading.get_ident())
                yield frame

        def scoring(frames, video, reference):
            scored.append(threading.get_ident())
            return losses(frames, video, reference)

        monkeypatch.setattr(pipeline, "reconstructed_frames", making)
        monkeypatch.setattr(pipeline, "frame_losses", scoring)
        cfg = parse_experiment_config(
            write_config(tmp_path / "c.ini", [clips / "motion0"], rho=rho, snr_db=snr_db)
        )
        n_cells = len(rho.split())
        reports, apart = {}, {}
        for threads in (2 * n_cells - 1, 2 * n_cells):
            made.clear(), scored.clear()
            run = pipeline.VideoRun(cfg, 2, str(clips / "motion0"), threads)
            reports[threads] = [p.report for p in run.points()]
            apart[threads] = not set(made) & set(scored)
        assert reports[2 * n_cells] == reports[2 * n_cells - 1]
        assert apart == {2 * n_cells - 1: False, 2 * n_cells: True}

    @pytest.mark.parametrize("given, threads", [(1, 1), (2, 2), (3, 3), (8, 6)])
    def test_no_more_cells_in_flight_than_threads(self, tmp_path, clips, monkeypatch, given, threads):
        lock, in_flight, most, callers = threading.Lock(), [0], [0], set()
        # Each group of `threads` cells meets here, so every thread has a cell in flight at once;
        # fewer threads would break the barrier, more would put more cells in flight.
        barrier = threading.Barrier(threads, timeout=10)
        run_point = pipeline.run_point

        def cell(*args):
            with lock:
                in_flight[0] += 1
                most[0] = max(most[0], in_flight[0])
                callers.add(threading.get_ident())
            try:
                barrier.wait()
                return run_point(*args)
            finally:
                with lock:
                    in_flight[0] -= 1

        monkeypatch.setattr(pipeline, "run_point", cell)
        cfg = parse_experiment_config(
            write_config(tmp_path / "c.ini", [clips / "motion0"], rho="0.0 0.3 0.5", snr_db="10 30")
        )
        run = pipeline.VideoRun(cfg, 1, str(clips / "motion0"), given)
        assert len(run.points()) == 6
        assert most[0] == threads
        if threads == 1:  # the calling thread runs the cells itself
            assert callers == {threading.get_ident()}


class TestCli:
    def run(self, *argv):
        return cli.main(list(argv))

    def test_pipeline_writes_outputs(self, tmp_path, clips):
        cfg = write_config(tmp_path / "c.ini", [clips / "motion0"], rho="0.0 0.5")
        out = tmp_path / "out"
        assert self.run("pipeline", "--config", str(cfg), "--seed", "1", "--out", str(out)) == 0
        rows = read_rows(out / "summary.csv")
        assert len(rows) == 2
        assert {r["rho"] for r in rows} == {"0.0", "0.5"}
        frame_rows = read_rows(out / "frames.csv")
        assert sum(1 for r in frame_rows if r["frame_idx"] == "mean") == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 1
        assert manifest["version"]
        assert len(manifest["config_sha256"]) == 64

    def test_missing_input_exit_code_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", [tmp_path / "missing_video"])
        rc = self.run("pipeline", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert rc == 2
        # a stage failure in a sweep worker must reach the parent process intact;
        # one video runs in process, so two are needed to start the workers
        cfg = write_config(tmp_path / "c2.ini", [tmp_path / "missing0", tmp_path / "missing1"])
        rc = self.run("sweep", "--config", str(cfg), "--out", str(tmp_path / "s"), "--workers", "2")
        assert rc == 2

    def test_failed_atomic_write_removes_its_temp_file(self, tmp_path, monkeypatch):
        target = tmp_path / "out.csv"
        target.write_text("before\n")

        def failing_replace(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(cli.os, "replace", failing_replace)
        with pytest.raises(OSError, match="replace failed"):
            cli.write_csv_atomic(str(target), ["a"], [[1.5]])
        assert target.read_text() == "before\n"
        assert list(tmp_path.glob("*.tmp")) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]

    @pytest.mark.parametrize("command", ["pipeline", "sweep"])
    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_rejected(self, tmp_path, clips, capsys, command, workers):
        cfg = write_config(tmp_path / "c.ini", [clips / "motion0"])
        out = tmp_path / "o"
        assert self.run(command, "--config", str(cfg), "--out", str(out), "--workers", workers) == 2
        assert f"--workers must be >= 1, got {workers}" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_exit_code_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[patches]\nheight = 16\n")  # no [input]
        assert self.run("pipeline", "--config", str(bad), "--out", str(tmp_path / "o")) == 2
        no_bandwidth = write_config(tmp_path / "b0.ini", [tmp_path / "v00"], extra="[link]\nB = 0\n")
        assert self.run("pipeline", "--config", str(no_bandwidth), "--out", str(tmp_path / "o")) == 2
        assert "[link] B must be positive" in capsys.readouterr().err

    def test_out_naming_a_regular_file_exit_code_2(self, tmp_path, clips, capsys):
        cfg = write_config(tmp_path / "c.ini", [clips / "motion0"])
        afile = tmp_path / "afile"
        afile.write_text("keep")
        assert self.run("load", "--config", str(cfg), "--out", str(afile)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "File exists" in err
        assert "Traceback" not in err
        assert afile.read_text() == "keep"

    def test_byte_identical_reruns(self, tmp_path, clips):
        cfg = write_config(tmp_path / "c.ini", [clips / "motion0", clips / "motion1"])
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert self.run("pipeline", "--config", str(cfg), "--seed", "9", "--out", str(out_a)) == 0
        assert self.run("pipeline", "--config", str(cfg), "--seed", "9", "--out", str(out_b)) == 0
        for name in ("summary.csv", "frames.csv", "manifest.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_cells_on_threads_write_the_same_bytes(self, tmp_path, clips, monkeypatch):
        cfg = write_config(tmp_path / "c.ini", [clips / "motion0", clips / "motion1"],
                           rho="0.0 0.3 0.99", snr_db="10 30")
        written = {}
        for cpus in (1, 2):
            monkeypatch.setattr(pipeline, "usable_cpus", lambda: cpus)
            for command in ("transmit", "reconstruct", "pipeline"):
                out = tmp_path / f"{command}{cpus}"
                assert self.run(command, "--config", str(cfg), "--seed", "6", "--out", str(out)) == 0
                for name in ("transmit.csv", "reconstruct.csv", "summary.csv", "frames.csv"):
                    if (out / name).exists():
                        written[cpus, name] = (out / name).read_bytes()
        assert len(written) == 8
        for name in ("transmit.csv", "reconstruct.csv", "summary.csv", "frames.csv"):
            assert written[1, name] == written[2, name], name

    def test_sweep_matches_pipeline_bytes(self, tmp_path, clips):
        cfg = write_config(tmp_path / "c.ini", [clips / "motion0", clips / "motion1"])
        out_a, out_b = tmp_path / "p", tmp_path / "s"
        assert self.run("pipeline", "--config", str(cfg), "--seed", "4", "--out", str(out_a)) == 0
        assert self.run(
            "sweep", "--config", str(cfg), "--seed", "4", "--out", str(out_b), "--workers", "2"
        ) == 0
        assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()

    @pytest.mark.parametrize(
        "command", ["flow", "extract", "load", "transmit", "reconstruct", "pipeline", "sweep"]
    )
    def test_every_command_fans_videos_out_over_workers(self, tmp_path, clips, monkeypatch, command):
        started = TestPipeline.counted_pools(monkeypatch)
        cfg = write_config(tmp_path / "c.ini", [clips / "motion0", clips / "motion1"], snr_db="10 30")
        written = {}
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            argv = ["--config", str(cfg), "--seed", "5", "--out", str(out), "--workers", workers]
            assert self.run(command, *argv) == 0
            written[workers] = {
                str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()
            }
        assert started == [2]  # one pool of min(workers, videos), none for --workers 1
        assert written["2"] == written["1"]
        assert len(written["1"]) >= 2  # the manifest and at least one CSV

    def test_flow_subcommand_emits_flo(self, tmp_path, clips):
        cfg = write_config(tmp_path / "c.ini", [clips / "motion0"])
        out = tmp_path / "flo"
        assert self.run("flow", "--config", str(cfg), "--out", str(out)) == 0
        flo_files = sorted((out / "motion0").glob("*.flo"))
        assert len(flo_files) == 3  # T - 1
        field = read_flo(flo_files[0])
        assert field.shape == (2, 64, 64)

    def test_extract_subcommand_roundtrips(self, tmp_path, clips):
        cfg = write_config(tmp_path / "c.ini", [clips / "motion0"], rho="0.5")
        out = tmp_path / "ext"
        assert self.run("extract", "--config", str(cfg), "--seed", "2", "--out", str(out)) == 0
        blob = (out / "motion0" / "selection_rho0.5.bin").read_bytes()
        sel = read_selection(blob)
        assert sel.mask_ratio == 0.5
        assert sel.xi.shape == (3, 4, 4)

    def test_load_subcommand_values(self, tmp_path, clips):
        cfg = write_config(tmp_path / "c.ini", [clips / "motion0"], rho="0.0")
        out = tmp_path / "load"
        assert self.run("load", "--config", str(cfg), "--out", str(out)) == 0
        row = read_rows(out / "load.csv")[0]
        # T=4, 64x64, C=3 first frame; C'=2 flow; 16 patches/frame
        assert float(row["l_first"]) == 8 * 64 * 64 * 3
        assert float(row["l_sr"]) == 3 * 8 * 64 * 64 * 2
        assert float(row["l_b"]) == 4 * 16

    @pytest.mark.parametrize("bits", [1, 16])
    def test_load_counts_the_codecs_bits_per_flow_value(self, tmp_path, clips, bits):
        cfg = write_config(tmp_path / "c.ini", [clips / "motion0"], rho="0.0", snr_db="10", bits=bits)
        assert self.run("load", "--config", str(cfg), "--out", str(tmp_path / "load")) == 0
        assert self.run("pipeline", "--config", str(cfg), "--out", str(tmp_path / "p")) == 0
        l_first, l_sr, l_b = 8 * 64 * 64 * 3, 3 * bits * 64 * 64 * 2, 4 * 16
        for row in (read_rows(tmp_path / "load" / "load.csv")[0], read_rows(tmp_path / "p" / "summary.csv")[0]):
            assert [float(row[k]) for k in ("l_first", "l_sr", "l_b", "l_com")] == [
                l_first, l_sr, l_b, l_first + l_sr + l_b
            ]
        tx = float(read_rows(tmp_path / "p" / "summary.csv")[0]["tx_seconds"])
        assert tx == (l_first + l_sr + l_b) / (1e6 * math.log2(1.0 + 10.0))

    def test_transmit_and_reconstruct_subcommands(self, tmp_path, clips):
        cfg = write_config(tmp_path / "c.ini", [clips / "motion0"], rho="0.0")
        out = tmp_path / "tx"
        assert self.run("transmit", "--config", str(cfg), "--seed", "3", "--out", str(out)) == 0
        row = read_rows(out / "transmit.csv")[0]
        assert int(row["n_symbols"]) == 48 * 2 * 256  # 16 patches x 3 frames, 2 symbols/px
        out2 = tmp_path / "rec"
        assert self.run("reconstruct", "--config", str(cfg), "--seed", "3", "--out", str(out2)) == 0
        rows = read_rows(out2 / "reconstruct.csv")
        assert rows[-1]["frame_idx"] == "mean"

    def test_transmit_uses_the_pipeline_channel_seeds(self, tmp_path, clips):
        cfg_path = write_config(
            tmp_path / "c.ini", [clips / "motion0", clips / "motion1"], rho="0.0", snr_db="10"
        )
        out = tmp_path / "tx"
        assert self.run("transmit", "--config", str(cfg_path), "--seed", "1", "--out", str(out)) == 0
        row = read_rows(out / "transmit.csv")[1]
        assert row["video_id"] == "motion1"
        # Each seed is keyed by what it draws for: motion1's video, then its one cell.
        cfg = parse_experiment_config(cfg_path)
        flows = estimate_flow(load_ppm_sequence(clips / "motion1"), cfg.flow_params)
        grid = PatchGrid.for_shape(64, 64, 16, 16)
        sel = ex.extract(flows, grid, cfg.extractor, derive_seed(1, "extract", "motion1"))
        coded, norm = encode_selection(sel, cfg.codec)
        decoded = transmit_selection(coded, norm, cfg.codec, 10.0, derive_seed(1, "channel", ("motion1", 0.0, 10.0)))
        assert float(row["rms_flow_error"]) == transmit_stats(sel.payloads, decoded)[1]

    def test_link_is_awgn_at_the_swept_snr(self, tmp_path, clips, monkeypatch):
        def no_fading(*args):
            raise AssertionError("the experiment link draws no fading coefficient")

        monkeypatch.setattr(ch, "sample_channel", no_fading)
        link = "[link]\nd = 5000\nf_c = 6e10\nalpha = 3.5\nP = 40\nsigma2 = 1e-3\nB = 2e6\n"
        cfg = write_config(tmp_path / "c.ini", [clips / "motion0"], snr_db="5 20", extra=link)
        out = tmp_path / "o"
        assert self.run("pipeline", "--config", str(cfg), "--out", str(out)) == 0
        rows = read_rows(out / "summary.csv")
        assert len(rows) == 4
        for row in rows:
            snr = 10.0 ** (float(row["snr_db"]) / 10.0)
            expected = float(row["l_com"]) / (2e6 * math.log2(1.0 + snr))
            assert float(row["tx_seconds"]) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("command", ["extract", "pipeline"])
    def test_duplicate_video_ids_rejected(self, tmp_path, clips, capsys, command):
        twin = tmp_path / "elsewhere" / "motion0"
        save_ppm_sequence(load_ppm_sequence(clips / "motion0"), twin)
        cfg = write_config(tmp_path / "c.ini", [clips / "motion0", twin])
        out = tmp_path / "o"
        assert self.run(command, "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "'motion0'" in err and str(clips / "motion0") in err and str(twin) in err
        assert not out.exists()

    def test_video_named_by_dot_dot_writes_inside_out(self, tmp_path, clips, monkeypatch):
        """`..` is named for the directory it points to, so its files go under --out."""
        clip = tmp_path / "clip"
        save_ppm_sequence(load_ppm_sequence(clips / "motion0"), clip)
        (clip / "sub").mkdir()
        monkeypatch.chdir(clip / "sub")
        cfg = write_config(tmp_path / "c.ini", [".."])
        out = tmp_path / "o"
        assert self.run("flow", "--config", str(cfg), "--out", str(out)) == 0
        assert [row["video_id"] for row in read_rows(out / "flow.csv")] == ["clip"]
        assert sorted(os.listdir(out / "clip")) == [f"flow_{t:04d}.flo" for t in range(3)]
        assert sorted(os.listdir(tmp_path)) == ["c.ini", "clip", "o"]

    def test_dot_next_to_its_own_path_shares_its_video_id(self, tmp_path, clips, monkeypatch, capsys):
        clip = tmp_path / "clip"
        save_ppm_sequence(load_ppm_sequence(clips / "motion0"), clip)
        monkeypatch.chdir(clip)
        cfg = write_config(tmp_path / "c.ini", [".", "../clip"])
        out = tmp_path / "o"
        assert self.run("flow", "--config", str(cfg), "--out", str(out)) == 2
        assert "videos . and ../clip share the video id 'clip'" in capsys.readouterr().err
        assert not out.exists()

    def test_ppm_entry_that_is_a_directory_rejected(self, tmp_path, clips, capsys):
        clip = tmp_path / "clip"
        save_ppm_sequence(load_ppm_sequence(clips / "motion0"), clip)
        (clip / "zzzz.ppm").mkdir()
        cfg = write_config(tmp_path / "c.ini", [clip])
        out = tmp_path / "o"
        assert self.run("load", "--config", str(cfg), "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {clip / 'zzzz.ppm'}: not a regular file\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["transmit", "pipeline"])
    @pytest.mark.parametrize("snr_db", ["-4000", "-inf", "4000", "-200", "nan", "inf"])
    def test_snr_the_link_cannot_carry_rejected(self, tmp_path, clips, capsys, command, snr_db):
        # Each gives a zero, infinite or NaN SNR or capacity B log2(1 + snr).
        cfg = write_config(tmp_path / "c.ini", [clips / "motion0"], snr_db=f"30 {snr_db}")
        out = tmp_path / "o"
        assert self.run(command, "--config", str(cfg), "--out", str(out)) == 2
        assert f"snr_db {float(snr_db)!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "codec", ["gamma = 0", "gamma = -1", "gamma = nan", "mag_cap = inf"]
    )
    def test_codec_value_that_is_not_finite_and_positive_rejected(self, tmp_path, clips, capsys, codec):
        cfg = write_config(tmp_path / "c.ini", [clips / "motion0"], codec=codec)
        out = tmp_path / "o"
        assert self.run("pipeline", "--config", str(cfg), "--out", str(out)) == 2
        key = codec.split()[0]
        assert f"{key} must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["transmit", "pipeline", "sweep", "extract", "reconstruct"])
    def test_gamma_that_overflows_the_power_normalization_rejected(self, tmp_path, clips, capsys, command):
        # At rho 0 the clip sends 3 flow frames x 16 patches x 2 x 16 x 16 symbols, and
        # sqrt(1e308 * 24576) overflows: the channel decoded NaN payloads and scored them.
        cfg = write_config(tmp_path / "c.ini", [clips / "motion0"], codec="gamma = 1e308")
        out = tmp_path / "o"
        if command in ("extract", "reconstruct"):  # no channel, so gamma goes unused
            assert self.run(command, "--config", str(cfg), "--out", str(out)) == 0
            return
        assert self.run(command, "--config", str(cfg), "--out", str(out)) == 2
        assert "motion0: [codec] gamma = 1e+308 times the 24576 symbols" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pipeline", "sweep", "transmit"])
    def test_link_whose_transmission_time_overflows_rejected(self, tmp_path, clips, capsys, command):
        # B = 1e-310 gives a positive capacity B log2(1 + snr), but l_com over it
        # overflows: pipeline wrote tx_seconds inf.
        cfg = write_config(tmp_path / "c.ini", [clips / "motion0"], extra="[link]\nB = 1e-310\n")
        out = tmp_path / "o"
        if command == "transmit":  # writes no transmission time
            assert self.run(command, "--config", str(cfg), "--out", str(out)) == 0
            return
        assert self.run(command, "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "motion0: [link] B = 1e-310 gives a cell the transmission time" in err
        assert not out.exists()

    def test_link_below_the_overflow_writes_finite_times(self, tmp_path, clips):
        cfg = write_config(tmp_path / "c.ini", [clips / "motion0"], extra="[link]\nB = 1e-300\n")
        out = tmp_path / "o"
        assert self.run("pipeline", "--config", str(cfg), "--out", str(out)) == 0
        times = [float(row["tx_seconds"]) for row in read_rows(out / "summary.csv")]
        assert len(times) == 2 and all(1e304 < t < math.inf for t in times)

    def test_gamma_below_the_overflow_scores_every_cell(self, tmp_path, clips):
        cfg = write_config(tmp_path / "c.ini", [clips / "motion0"], codec="gamma = 1e300")
        out = tmp_path / "o"
        assert self.run("pipeline", "--config", str(cfg), "--out", str(out)) == 0
        scores = [float(row["mean_ssim"]) for row in read_rows(out / "summary.csv")]
        assert len(scores) == 2 and all(0.0 < s <= 1.0 for s in scores)

    @pytest.mark.parametrize(
        "rho, snr_db, message",
        [
            ("0.5 0.5", "20", "rho 0.5 and 0.5"),
            ("0.1234567 0.1234568", "20", "selection_rho0.123457.bin"),
            ("0.5", "20 10 20", "snr_db 20.0 is listed twice"),
        ],
        ids=["equal-rho", "rho-blob-name", "equal-snr"],
    )
    def test_duplicate_sweep_values_rejected(self, tmp_path, clips, capsys, rho, snr_db, message):
        cfg = write_config(tmp_path / "c.ini", [clips / "motion0"], rho=rho, snr_db=snr_db)
        out = tmp_path / "o"
        assert self.run("pipeline", "--config", str(cfg), "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["extract", "transmit", "reconstruct", "pipeline"])
    @pytest.mark.parametrize("rho", ["1.0", "1.5", "-0.5", "nan", "inf"])
    def test_sweep_rho_outside_unit_interval_rejected(self, tmp_path, clips, capsys, command, rho):
        # Only the smallest rho is extracted; every other one must still be checked.
        cfg = write_config(tmp_path / "c.ini", [clips / "motion0"], rho=f"0.0 {rho}")
        out = tmp_path / "o"
        assert self.run(command, "--config", str(cfg), "--out", str(out)) == 2
        assert f"rho must lie in [0, 1), got {float(rho)!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("entry", ["run_videos", "transmit"])
    def test_extract_runs_once_per_video(self, tmp_path, clips, monkeypatch, entry):
        calls = []
        original = ex.extract

        def counting(*args):
            calls.append(args[2].mask_ratio)
            return original(*args)

        monkeypatch.setattr(ex, "extract", counting)
        cfg = write_config(tmp_path / "c.ini", [clips / "motion0"], rho="0.5 0.0", snr_db="10 30")
        if entry == "run_videos":
            assert len(run_points(parse_experiment_config(cfg), run_seed=1)) == 4
        else:
            assert self.run("transmit", "--config", str(cfg), "--out", str(tmp_path / "o")) == 0
        assert calls == [0.0]  # the smallest rho; every other rho keeps a prefix of its ranking

    @pytest.mark.parametrize(
        "command, code",
        [("flow", 0), ("load", 0), ("extract", 2), ("transmit", 2), ("reconstruct", 2),
         ("pipeline", 2), ("sweep", 2)],
    )
    def test_grid_too_thin_for_background_model(self, tmp_path, clips, capsys, command, code):
        cfg = write_config(tmp_path / "c.ini", [clips / "thin"])
        workers = ["--workers", "2"] if command == "sweep" else []
        assert self.run(command, "--config", str(cfg), "--out", str(tmp_path / "o"), *workers) == code
        if code:
            assert "2x8 patch grid" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, code",
        [("flow", 0), ("extract", 0), ("load", 0), ("transmit", 0), ("reconstruct", 2),
         ("pipeline", 2), ("sweep", 2)],
    )
    def test_frames_smaller_than_the_ssim_window(
        self, tmp_path, clips, capsys, monkeypatch, command, code
    ):
        patches = "[patches]\nheight = 3\nwidth = 3\n"
        cfg = write_config(tmp_path / "c.ini", [clips / "small"], levels=1, extra=patches)
        if code:
            # Commands that score frames reject the clip before flow runs.
            def no_flow(*args):
                raise AssertionError("flow ran for a clip that cannot be scored")

            monkeypatch.setattr(pipeline, "estimate_flow", no_flow)
        workers = ["--workers", "2"] if command == "sweep" else []
        assert self.run(command, "--config", str(cfg), "--out", str(tmp_path / "o"), *workers) == code
        if code:
            assert "10x40 px frames are smaller than the 11x11 SSIM window" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "levels, flow",
        [(3, "lk_window = 63"), (2, "smoothing_sigma = 15.9"), (1, "smoothing_sigma = 1e300")],
        ids=["window-fits", "blur-radius-fits", "one-level-never-blurs"],
    )
    def test_flow_filters_that_fit_the_frames_accepted(self, tmp_path, clips, levels, flow):
        cfg = write_config(tmp_path / "c.ini", [clips / "motion0"], levels=levels, flow=flow)
        assert self.run("flow", "--config", str(cfg), "--out", str(tmp_path / "o")) == 0

    @pytest.mark.parametrize("name", ["estimate_flow", "motion_area_percentage"])
    def test_a_failing_stage_is_an_internal_error(self, tmp_path, clips, capsys, monkeypatch, name):
        def broken(*args):
            raise ValueError("injected")

        monkeypatch.setattr(pipeline, name, broken)
        cfg = write_config(tmp_path / "c.ini", [clips / "motion0"])
        assert self.run("pipeline", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert err.startswith("internal error: injected"), err
        assert "Traceback (most recent call last)" in err

    @pytest.mark.parametrize("command", ["flow", "extract", "load", "transmit", "reconstruct", "pipeline"])
    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("load", "zip_ratio", "1.5", "[load] zip_ratio must lie in [0, 1), got 1.5"),
            ("load", "zip_ratio", "-0.2", "[load] zip_ratio must lie in [0, 1), got -0.2"),
            ("load", "zip_ratio", "nan", "[load] zip_ratio must lie in [0, 1), got nan"),
            ("patches", "height", "0", "[patches] height must be >= 1, got 0"),
            ("patches", "width", "-4", "[patches] width must be >= 1, got -4"),
            ("flow", "smoothing_sigma", "-1", "smoothing_sigma must be finite and non-negative, got -1.0"),
            ("flow", "smoothing_sigma", "nan", "smoothing_sigma must be finite and non-negative, got nan"),
            ("flow", "iterations_per_level", "0", "iterations_per_level must be >= 1, got 0"),
            ("extractor", "alpha1", "inf", "alpha1 must be finite, got inf"),
            ("extractor", "alpha2", "-inf", "alpha2 must be finite, got -inf"),
            ("extractor", "theta_th", "nan", "theta_th must be finite, got nan"),
            ("extractor", "inlier_eps", "inf", "inlier_eps must be finite, got inf"),
            ("extractor", "inlier_eps", "0", "inlier_eps must be positive, got 0.0"),
            ("extractor", "inlier_eps", "-0.5", "inlier_eps must be positive, got -0.5"),
        ],
    )
    def test_value_that_changes_results_silently_rejected(
        self, tmp_path, clips, capsys, command, section, key, value, message
    ):
        parser = configparser.ConfigParser()
        parser.optionxform = str
        parser.read(write_config(tmp_path / "c.ini", [clips / "motion0"]))
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value)
        cfg = tmp_path / "bad.ini"
        with open(cfg, "w") as fh:
            parser.write(fh)
        out = tmp_path / "o"
        assert self.run(command, "--config", str(cfg), "--out", str(out)) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        [b"videos = a\n", b"[input]\nvideos = a\nvideos = b\n", b"[input]\nvideos = a%b\n",
         b"[input]\nvideos = \xff\n"],
        ids=["no-section", "duplicate-key", "bad-interpolation", "not-utf8"],
    )
    def test_malformed_config_file_exit_code_2(self, tmp_path, capsys, text):
        cfg = tmp_path / "c.ini"
        cfg.write_bytes(text)
        out = tmp_path / "o"
        assert self.run("load", "--config", str(cfg), "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, levels, flow, patches, message",
        [
            ("flow", 5, "", "", "motion0: too many levels for frame size: coarsest would be 4x4"),
            ("extract", 5, "", "", "motion0: too many levels for frame size: coarsest would be 4x4"),
            ("extract", 3, "", "[patches]\nheight = 65\n", "motion0: patch 65x16 exceeds field 64x64"),
            # Filters wider than the frames: the window would hang, the blur exhaust memory.
            ("flow", 3, "lk_window = 65", "",
             "motion0: [flow] lk_window 65 is wider than the smaller side of 64x64 px frames"),
            ("flow", 3, "lk_window = 100000001", "", "motion0: [flow] lk_window 100000001 is wider"),
            ("transmit", 2, "smoothing_sigma = 16.2", "",
             "motion0: [flow] smoothing_sigma 16.2 blurs further than the smaller side of "
             "64x64 px frames (radius int(4 sigma + 0.5) > 64)"),
            ("flow", 2, "smoothing_sigma = 1e9", "",
             "motion0: [flow] smoothing_sigma 1000000000.0 blurs further"),
            ("pipeline", 2, "smoothing_sigma = 1e300", "",
             "motion0: [flow] smoothing_sigma 1e+300 blurs further"),
        ],
    )
    def test_frames_checked_against_the_config_before_flow(
        self, tmp_path, clips, capsys, monkeypatch, command, levels, flow, patches, message
    ):
        def no_flow(*args):
            raise AssertionError("flow ran for a clip that the config does not fit")

        monkeypatch.setattr(pipeline, "estimate_flow", no_flow)
        cfg = write_config(
            tmp_path / "c.ini", [clips / "motion0"], levels=levels, extra=patches, flow=flow
        )
        assert self.run(command, "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize(
        "command, bad, extra, message",
        [
            *(pytest.param(command, "truncated", "", "frame_0003.ppm: truncated raster",
                           id=f"{command}-truncated")
              for command in ("flow", "extract", "load", "transmit", "reconstruct", "pipeline", "sweep")),
            *(pytest.param(command, "thin", "",
                           "thin: 2x8 patch grid (32x128 px, 16x16 px patches) is too small",
                           id=f"{command}-thin")
              for command in ("extract", "transmit", "reconstruct", "pipeline", "sweep")),
            *(pytest.param(command, "small", "[patches]\nheight = 3\nwidth = 3\n",
                           "small: 10x40 px frames are smaller than the 11x11 SSIM window",
                           id=f"{command}-small")
              for command in ("reconstruct", "pipeline", "sweep")),
        ],
    )
    def test_a_bad_later_video_stops_the_command_before_anything_runs(
        self, tmp_path, clips, capsys, monkeypatch, command, bad, extra, message, workers
    ):
        def no_flow(*args):
            raise AssertionError("flow ran before every video was checked")

        monkeypatch.setattr(pipeline, "estimate_flow", no_flow)
        started = TestPipeline.counted_pools(monkeypatch)
        cfg = write_config(tmp_path / "c.ini", [clips / "motion0", clips / bad], levels=1, extra=extra)
        out = tmp_path / "o"
        argv = ["--config", str(cfg), "--out", str(out), "--workers", workers]
        assert self.run(command, *argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
        assert started == []

    def test_a_missing_first_video_writes_nothing_under_workers(self, tmp_path, clips, capsys):
        videos = [tmp_path / "missing", clips / "motion0", clips / "motion1"]
        cfg = write_config(tmp_path / "c.ini", videos)
        out = tmp_path / "o"
        assert self.run("flow", "--config", str(cfg), "--out", str(out), "--workers", "2") == 2
        assert f"no such directory: {tmp_path / 'missing'}" in capsys.readouterr().err
        assert not out.exists()


SCENARIO_INI = """
[scenario]
bandwidth_hz = 4e6
seed = 11

[ue.1]
load_bits = 4e6
snr = 3.0
rho = 0.9

[ue.2]
load_bits = 2e6
snr = 3.0
rho = 0.5

[ue.3]
load_bits = 2e6
snr = 3.0
rho = 0.5

[ddpg]
episodes = 30
"""


CHANNEL_SCENARIO_INI = """
[scenario]
bandwidth_hz = 1e6
seed = 3

[ue.1]
load_bits = 1e6
distance = 50
rho = 0.2

[ue.2]
load_bits = 2e6
distance = 150
rho = 0.4

[channel]
f_c = 2.4e9
alpha = 1.0
P = 1.0
sigma2 = 1e-12
"""


class TestAllocateCli:
    @pytest.mark.parametrize(
        "key, value",
        [
            ("batch_size", "0"),
            ("episodes", "0"),
            ("episode_len", "0"),
            ("buffer_capacity", "3"),
            ("tau", "2"),
            ("tau", "0"),
            ("gamma", "1"),
            ("gamma", "-0.5"),
            ("actor_lr", "nan"),
            ("critic_lr", "0"),
            ("critic_lr", "inf"),
            ("noise_scale", "-0.1"),
            ("noise_floor", "inf"),
            ("noise_decay", "0"),
            ("noise_decay", "1.5"),
        ],
    )
    def test_bad_ddpg_hyperparameter_rejected(self, tmp_path, capsys, key, value):
        ddpg = {"episodes": "2", "episode_len": "5", "batch_size": "4", key: value}
        cfg = tmp_path / "sc.ini"
        cfg.write_text(
            SCENARIO_INI.split("[ddpg]")[0]
            + "[ddpg]\n"
            + "".join(f"{k} = {v}\n" for k, v in ddpg.items())
        )
        out = tmp_path / "alloc"
        assert cli.main(["allocate", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"error: {key} " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("ue.1", "load_bits", "nan", "loads must be finite and positive, got nan"),
            ("ue.2", "load_bits", "inf", "loads must be finite and positive, got inf"),
            ("ue.2", "snr", "inf", "snrs must be finite and positive, got inf"),
            ("ue.3", "snr", "nan", "snrs must be finite and positive, got nan"),
            ("scenario", "bandwidth_hz", "nan", "bandwidth_hz must be finite and positive, got nan"),
            ("scenario", "bandwidth_hz", "inf", "bandwidth_hz must be finite and positive, got inf"),
            ("ue.1", "rho", "nan", "mask_ratios must lie in [0, 1), got nan"),
            ("ue.2", "rho", "5.0", "mask_ratios must lie in [0, 1), got 5.0"),
            ("ue.3", "rho", "1.0", "mask_ratios must lie in [0, 1), got 1.0"),
            ("ue.3", "rho", "-0.5", "mask_ratios must lie in [0, 1), got -0.5"),
            ("scenario", "seed", "-1", "[scenario] seed seeds the DDPG training and must be >= 0, got -1"),
            ("ue.1", "snr", "1e-20", "snrs must make log2(1 + snr) positive, got 1e-20: 1 + snr rounds to 1"),
            ("scenario", "bandwidth_hz", "1e-320",
             "bandwidth_hz 1e-320 split equally sends a UE's 4000000.0 bits at snr 3.0 in inf s"),
            ("ue.1", "load_bits", "1e-320",
             "bandwidth_hz 4000000.0 split equally sends a UE's 1e-320 bits at snr 3.0 in 0.0 s"),
            ("ue.1", "load_bits", "1e308",
             "the oracle bandwidth_hz 4000000.0 times w is inf for load_bits (1e+308, 2000000.0, 2000000.0)"),
        ],
    )
    def test_scenario_value_out_of_range_rejected(self, tmp_path, capsys, section, key, value, message):
        parser = configparser.ConfigParser()
        parser.read_string(SCENARIO_INI)
        for k, v in {"episodes": "2", "episode_len": "5", "batch_size": "4"}.items():
            parser.set("ddpg", k, v)
        parser.set(section, key, value)
        cfg = tmp_path / "sc.ini"
        with open(cfg, "w") as fh:
            parser.write(fh)
        out = tmp_path / "alloc"
        assert cli.main(["allocate", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_allocate_outputs(self, tmp_path):
        cfg = tmp_path / "sc.ini"
        cfg.write_text(SCENARIO_INI)
        out = tmp_path / "alloc"
        assert cli.main(["allocate", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out / "allocation.csv")
        assert {r["method"] for r in rows} == {"ddpg", "oracle", "equal"}
        oracle_rows = [r for r in rows if r["method"] == "oracle"]
        assert [float(r["fraction"]) for r in oracle_rows] == pytest.approx([0.5, 0.25, 0.25])
        curve = read_rows(out / "learning_curve.csv")
        assert len(curve) == 30

    def test_negative_seed_flag_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "sc.ini"
        cfg.write_text(SCENARIO_INI)
        out = tmp_path / "alloc"
        assert cli.main(["allocate", "--config", str(cfg), "--out", str(out), "--seed", "-5"]) == 2
        assert "error: --seed seeds the DDPG training and must be >= 0, got -5" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_file_seed_only_draws_fading(self, tmp_path):
        # The scenario seed reaches only derive_seed, which hashes any integer.
        cfg = tmp_path / "sc.ini"
        cfg.write_text(
            CHANNEL_SCENARIO_INI.replace("seed = 3", "seed = -3")
            + "\n[ddpg]\nepisodes = 2\nepisode_len = 5\nbatch_size = 4\n"
        )
        out = tmp_path / "alloc"
        assert cli.main(["allocate", "--config", str(cfg), "--out", str(out), "--seed", "4"]) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == 4
        positive = tmp_path / "positive.ini"
        positive.write_text(CHANNEL_SCENARIO_INI)
        assert parse_scenario_config(cfg)[0].snrs != parse_scenario_config(positive)[0].snrs

    def test_allocate_deterministic(self, tmp_path):
        cfg = tmp_path / "sc.ini"
        cfg.write_text(SCENARIO_INI)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["allocate", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert cli.main(["allocate", "--config", str(cfg), "--out", str(out_b)]) == 0
        for name in ("allocation.csv", "learning_curve.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_buffer_capacity_past_the_run_length(self, tmp_path):
        # 2 episodes of 5 TTIs store 10 transitions: a capacity of 10^15 must not be
        # allocated, and trains exactly as a buffer of 10 rows does.
        outs = []
        for capacity in ("1000000000000000", "10"):
            cfg = tmp_path / f"sc{capacity}.ini"
            cfg.write_text(
                CHANNEL_SCENARIO_INI
                + f"\n[ddpg]\nepisodes = 2\nepisode_len = 5\nbatch_size = 4\nbuffer_capacity = {capacity}\n"
            )
            outs.append(tmp_path / f"alloc{capacity}")
            assert cli.main(["allocate", "--config", str(cfg), "--out", str(outs[-1])]) == 0
        for name in ("allocation.csv", "learning_curve.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_scenario_snr_from_channel_section(self, tmp_path):
        cfg = tmp_path / "sc.ini"
        cfg.write_text(CHANNEL_SCENARIO_INI)
        scenario, hyper, seed = parse_scenario_config(cfg)
        assert seed == 3
        assert scenario.n_ue == 2
        assert all(s > 0 for s in scenario.snrs)
        again, _, _ = parse_scenario_config(cfg)
        assert scenario.snrs == again.snrs  # fading frozen by the scenario seed

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "key, field",
        [("f_c", "carrier_hz"), ("alpha", "path_loss_exp"), ("P", "tx_power"), ("sigma2", "noise_power")],
    )
    def test_channel_value_not_finite_rejected(self, tmp_path, capsys, key, field, value):
        parser = configparser.ConfigParser()
        parser.optionxform = str
        parser.read_string(CHANNEL_SCENARIO_INI)
        parser.set("channel", key, value)
        cfg = tmp_path / "sc.ini"
        with open(cfg, "w") as fh:
            parser.write(fh)
        out = tmp_path / "alloc"
        assert cli.main(["allocate", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"error: {field} must be finite and positive, got {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_faded_snr_with_no_rate_rejected(self, tmp_path, capsys):
        """A UE whose fading draw leaves 1 + snr rounding to 1 has no rate to allocate for."""
        cfg = tmp_path / "sc.ini"
        cfg.write_text(CHANNEL_SCENARIO_INI.replace("P = 1.0", "P = 1e-30"))
        out = tmp_path / "alloc"
        assert cli.main(["allocate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "error: snrs must make log2(1 + snr) positive, got 1.4" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "old, new, snr",
        [
            ("distance = 0.001", "distance = 1e-310", "inf"),  # |h| past the float range: was exit 1
            ("alpha = 1.0", "alpha = 1e300", "inf"),  # the path gain's power overflows: was exit 1
            ("P = 1.0", "P = 1e300", "inf"),  # P |h|^2 / sigma2 overflows: was exit 2, naming snrs
        ],
    )
    def test_faded_snr_past_the_float_range_rejected(self, tmp_path, capsys, old, new, snr):
        cfg = tmp_path / "sc.ini"
        cfg.write_text(CHANNEL_SCENARIO_INI.replace("distance = 50", "distance = 0.001").replace(old, new))
        out = tmp_path / "alloc"
        assert cli.main(["allocate", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"the [channel] link give the UE snr {snr}; it must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_a_ue_with_both_snr_and_distance_rejected(self, tmp_path, capsys):
        """The snr would win and the distance go unused: one key or the other, not both."""
        cfg = tmp_path / "sc.ini"
        cfg.write_text(CHANNEL_SCENARIO_INI.replace("distance = 150", "distance = 150\nsnr = 3.0"))
        out = tmp_path / "alloc"
        assert cli.main(["allocate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [ue.2] gives both snr and distance") and err.count("\n") == 1
        assert not out.exists()

    def test_scenario_missing_snr_rejected(self, tmp_path):
        from flowcomm.config import ConfigError

        cfg = tmp_path / "sc.ini"
        cfg.write_text("[scenario]\nbandwidth_hz = 1e6\n[ue.1]\nload_bits = 1\n[ue.2]\nload_bits = 2\n")
        with pytest.raises(ConfigError):
            parse_scenario_config(cfg)
