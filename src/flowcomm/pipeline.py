"""End-to-end experiment runs: video -> flow -> selection -> channel -> quality rows.

`VideoRun` is the per-video stage graph behind `pipeline`, `sweep` and every
per-stage CLI command, so each command draws the same seeds for the same cell;
`run_videos` runs a task on every video's graph once `check_videos` has checked them all,
and is the one place that splits the CPUs among videos.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import channel as ch
from . import extractor as ex
from . import load as ld
from .config import ConfigError, ExperimentConfig, derive_seed, video_id
from .flow import check_frame_size, estimate_flow, fan_out, read_ahead
from .load import LoadBreakdown
from .metrics import (
    QualityReport,
    SsimPlanes,
    check_ssim_window,
    frame_losses,
    motion_area_percentage,
    ssim_stats,
)
from .reconstruct import reconstructed_frames
from .video import PatchGrid, load_ppm_sequence


@dataclass
class PointResult:
    video_id: str
    rho: float
    snr_db: float
    report: QualityReport
    map: float  # motion area percentage of the rho's selection
    breakdown: LoadBreakdown
    tx_seconds: float
    n_selected: int


class VideoRun:
    """One video's stage graph: load, patch grid, flow, then one ranking for every rho.

    The video is loaded once, on first use, so a run crosses to a worker
    process as its config alone; `check_videos` checks its frames first. Flow is
    estimated only where selections are made, and each field is extracted on
    the thread that estimated it, before that thread refines the next. Each
    seed is keyed by what it draws for: extraction by the video id, the channel
    by the cell's (video id, rho, snr_db), so a cell gives the same numbers
    whatever else is in the grid. Flow and the cells run on up to `threads`
    threads.
    """

    def __init__(self, cfg: ExperimentConfig, run_seed: int, directory: str, threads: int):
        self.cfg = cfg
        self.run_seed = run_seed
        self.threads = threads
        self.directory = directory
        self.video_id = video_id(directory)

    @cached_property
    def video(self):
        return load_ppm_sequence(self.directory)

    @cached_property
    def ssim_reference(self) -> list:
        """Each source frame's half of SSIM, computed once for every scoring pass that shares it.

        Each entry keeps a view of its source frame, not a luma plane: a score
        makes the luma again in its cell's planes. Frame 0 stays a raw frame:
        reconstruction copies it, so it always scores exactly 1 without
        reaching the SSIM kernel.
        """
        frames = self.video.frames
        planes = SsimPlanes(self.video.height, self.video.width)
        return [frames[0], *(ssim_stats(f, planes) for f in frames[1:])]

    def estimate_flows(self, sink):
        """The video's flow fields, estimated afresh on each call, each handed to `sink`
        on the thread that estimated it (see `estimate_flow`)."""
        return estimate_flow(self.video, self.cfg.flow_params, self.threads, sink)

    def breakdown(self, rho: float) -> LoadBreakdown:
        return load_breakdown(self.cfg, self.video.frames.shape[:3], rho)

    def widest_selection(self, encode=None) -> ex.SelectionResult:
        """The selection at the smallest rho: every rho's selection is a prefix of it.

        The selection count never grows with rho, and the RANSAC seeds do not
        depend on it, so one ranking serves every rho. Flow hands each field to
        extraction as it is estimated, so no field outlives its frame's
        selection; given `encode`, the selection keeps each frame's codes in
        place of its payloads (see `ex.extract`).
        """
        cfg, v = self.cfg, self.video
        grid = PatchGrid.for_shape(v.height, v.width, cfg.patch_h, cfg.patch_w)
        seed = derive_seed(self.run_seed, "extract", self.video_id)
        params = replace(cfg.extractor, mask_ratio=min(cfg.rho_list))
        return ex.extract(self.estimate_flows, grid, params, seed, encode)

    def selections(self):
        """Yield each rho's selection, its `mask_ratio` the rho: a rho=0 selection holds every patch."""
        widest = self.widest_selection()
        for rho in self.cfg.rho_list:
            yield widest.prefix(rho)

    def cells(self, payloads: bool = False):
        """Yield (selection, norm, snr_db, channel seed) in grid order, as `run_point` takes them.

        The video is encoded once, for every rho and SNR cell, each frame as
        it is extracted: the selections keep codes, not float64 payloads,
        unless `payloads` asks for both.
        """
        codec = self.cfg.codec
        widest = self.widest_selection(None if payloads else lambda p: ch.flow_codes(p, codec))
        for sel, norm in encode_selections(widest, self.cfg.rho_list, codec):
            for snr_db in self.cfg.snr_db_list:
                seed = derive_seed(self.run_seed, "channel", (self.video_id, sel.mask_ratio, snr_db))
                yield sel, norm, snr_db, seed

    def quality(self, frames, passes: int) -> QualityReport:
        """Score the reconstructed frames against the source, one frame at a time, in one
        of `passes` scoring passes over the video: two or more share `ssim_reference`,
        and one scores against the source frames themselves."""
        reference = self.ssim_reference if passes > 1 else self.video.frames
        return frame_losses(frames, self.video, reference)

    def points(self) -> list[PointResult]:
        """Every (rho, snr_db) cell of the video through the channel, scored, in grid order.

        Every rho is encoded before the first cell. The cells run on the
        video's threads, at most one per cell, one cell per thread at a time;
        `run_point` gives a cell a second thread when there are two per cell.
        """
        cells = list(self.cells())
        # Before any cell thread reads them: cached_property takes no lock.
        if len(cells) > 1:
            self.ssim_reference
        self.cfg.codec.decode_tables
        return fan_out(lambda cell: run_point(self, *cell), cells, min(self.threads, len(cells)))


def encode_selections(widest: ex.SelectionResult, rho_list, codec: ch.CodecParams):
    """Yield (selection, norm) for each rho, from one encoding of `widest`.

    The widest selection is encoded frame by frame, here if it was not as it
    was extracted. A rho's picks are a prefix of each frame's, and the codec
    works pixel by pixel in patch order, so its codes are views of each
    frame's first 2 k ph pw codes. Its norm, of its whole symbol vector, is
    taken with one `np.vdot` over its own symbols, expanded contiguously.
    """
    if widest.codes is None:
        widest = replace(widest, codes=np.stack([ch.flow_codes(p, codec) for p in widest.payloads]))
    for rho in rho_list:
        sel = widest.prefix(rho)
        symbols = ch.expand_codes(sel.codes, codec)
        norm = float(np.sqrt(np.vdot(symbols, symbols)))
        del symbols  # not kept across the yield, so no two rhos' symbols are alive at once
        yield sel, norm


def received_payloads(
    sel: ex.SelectionResult, norm: float, codec: ch.CodecParams, snr_linear: float, seed: int
):
    """Yield each flow frame's (k, 2, ph, pw) payloads as decoded after an AWGN link at the cell's SNR.

    `snr_linear` is the post-equalization SNR; path loss and fading enter only
    the allocation scenarios. Symbols are normalized to average power gamma
    (the whole-vector normalization scaled by the symbol count) and get real
    Gaussian noise of variance 1 / (2 snr), the real part of CN(0, 1 / snr),
    so gamma and snr act only through their product. The bandwidth B sets the
    capacity, hence `tx_seconds`. The transmitter-side scale factor travels
    as error-free metadata alongside the bit payloads. One noise stream runs
    through the frames in order, so the result equals sending all at once.
    One buffer serves every frame, so a frame's payloads hold until the next
    is decoded. The frame's symbols are made, sent and decoded in that buffer,
    in place: each is looked up in the cell's table of every code's expanded,
    scaled symbol.
    """
    ph, pw = sel.grid.patch_h, sel.grid.patch_w
    # Extreme mask ratios can round the selection to zero: no symbols, and no norm to scale.
    n_symbols = sel.codes.size
    scale = ch.power_scale(norm, codec.gamma, n_symbols) if n_symbols else 1.0
    symbol_of = ch.expand_codes(np.arange(1 << codec.bits_per_symbol), codec)
    symbol_of *= scale
    rng = np.random.default_rng(seed)
    decoded = np.empty((sel.picks.shape[1], 2, ph, pw))
    for codes in sel.codes:
        symbols = np.take(symbol_of, codes, out=decoded.reshape(-1), mode="clip")  # in range
        received = ch.transmit_analog(symbols, 1.0 / snr_linear, rng, out=symbols)
        received *= 1.0 / scale
        ch.flow_decode(received, codec, ph, pw, out=decoded)
        yield decoded


def transmit_selection(
    sel: ex.SelectionResult, norm: float, codec: ch.CodecParams, snr_linear: float, seed: int
) -> np.ndarray:
    """Every flow frame's `received_payloads`, copied into one (T', k, 2, ph, pw) stack."""
    decoded = np.empty((*sel.picks.shape, 2, sel.grid.patch_h, sel.grid.patch_w))
    for t, payloads in enumerate(received_payloads(sel, norm, codec, snr_linear, seed)):
        decoded[t] = payloads
    return decoded


def transmit_stats(sent: np.ndarray, decoded: np.ndarray) -> tuple[int, float]:
    """A cell's symbol count, one per payload value, and the RMS error of its decoded payloads."""
    if not sent.size:
        return 0, 0.0
    error = decoded - sent
    with np.errstate(over="ignore"):
        error **= 2
    rms = float(np.sqrt(np.mean(error)))
    if math.isinf(rms):  # the squares overflowed: take them again in units of the largest error
        np.subtract(decoded, sent, out=error)
        peak = np.abs(error).max()
        error /= peak
        error **= 2
        rms = float(peak * np.sqrt(np.mean(error)))
    return sent.size, rms


def run_point(
    run: VideoRun, sel: ex.SelectionResult, norm: float, snr_db: float, channel_seed: int
) -> PointResult:
    """One (video, `sel.mask_ratio`, snr_db) cell of the sweep grid: one loop over the flow frames.

    Each step sends and decodes a frame's payloads, warps the next frame from
    the one before and scores it, so a cell holds one frame of each at a time.
    When the video has two threads for each of its cells, a cell's second
    thread sends and warps each frame while the one before is scored.
    """
    breakdown, n_cells = run.breakdown(sel.mask_ratio), len(run.cfg.rho_list) * len(run.cfg.snr_db_list)
    payloads = received_payloads(sel, norm, run.cfg.codec, ch.db_to_linear(snr_db), channel_seed)
    frames = reconstructed_frames(run.video.frames[0], sel.grid, sel.picks, payloads)
    if run.threads >= 2 * n_cells:
        frames = read_ahead(frames)
    report = run.quality(frames, n_cells)
    return PointResult(
        run.video_id, sel.mask_ratio, snr_db, report, motion_area_percentage(sel.important),
        breakdown, tx_seconds(run.cfg, breakdown, snr_db), sel.n_selected,
    )


def load_breakdown(cfg: ExperimentConfig, shape: tuple[int, int, int], rho: float) -> LoadBreakdown:
    """The load of a cell at mask ratio `rho` on a video of `shape` (T, H, W)."""
    n_frames, height, width = shape
    params = ld.LoadParams(n_frames, height, width, cfg.patch_h, cfg.patch_w, rho, cfg.zip_ratio,
                           cfg.codec.bits_per_symbol)
    return ld.total_load(params)


def tx_seconds(cfg: ExperimentConfig, breakdown: LoadBreakdown, snr_db: float) -> float:
    """A cell's load l_com over the link capacity B log2(1 + snr), which the config keeps positive."""
    return float(breakdown.l_com) / ch.capacity_per_s(cfg.bandwidth_hz, ch.db_to_linear(snr_db))


# Checked here; every command loads its videos. "time" is each cell's tx_seconds.
STAGES = ("flow", "extract", "transmit", "score", "time")


def check_videos(cfg: ExperimentConfig, stages) -> None:
    """Check every video for each of `stages`, the STAGES a command runs, before any video runs.

    Loading raises its own container errors; frames a stage cannot take are a
    ConfigError naming the video."""
    for directory in cfg.video_dirs:
        n_frames, h, w = load_ppm_sequence(directory).frames.shape[:3]
        try:
            if "score" in stages:
                check_ssim_window(h, w)
            if "extract" in stages:
                grid = PatchGrid.for_shape(h, w, cfg.patch_h, cfg.patch_w)
                ex.check_background_grid(grid, (h, w))
            if "transmit" in stages:  # after "extract", which it sends
                # The power normalization scales by sqrt(gamma * symbols) of a rho's whole
                # selection, and the smallest rho sends the most symbols.
                k = ex.selection_count(min(cfg.rho_list), grid.n_patches)
                n_symbols = (n_frames - 1) * k * 2 * grid.patch_h * grid.patch_w
                if not math.isfinite(cfg.codec.gamma * n_symbols):
                    raise ValueError(
                        f"[codec] gamma = {cfg.codec.gamma!r} times the {n_symbols} symbols of "
                        "the widest selection is not finite, so the symbols cannot be "
                        "normalized to average power gamma"
                    )
            if "time" in stages:  # l_com is largest at the smallest rho
                widest = load_breakdown(cfg, (n_frames, h, w), min(cfg.rho_list))
                seconds = max(tx_seconds(cfg, widest, snr_db) for snr_db in cfg.snr_db_list)
                if not math.isfinite(seconds):
                    raise ValueError(
                        f"[link] B = {cfg.bandwidth_hz!r} gives a cell the transmission time "
                        f"l_com / (B log2(1 + snr)) = {seconds!r} s; it must be finite"
                    )
            if "flow" in stages:
                check_frame_size(h, w, cfg.flow_params)
        except ValueError as exc:
            raise ConfigError(f"{video_id(directory)}: {exc}") from exc


def usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_videos(cfg: ExperimentConfig, run_seed: int, workers: int, task) -> list:
    """task(run) for each configured video's VideoRun, in config order.

    The videos fan out over min(workers, videos) processes, which split the
    usable CPUs evenly, at least one each: each video's flow and cells run on
    its share, as threads. With one process the videos run in this one, each
    let go once its task returns, and no process pool is imported. `task` must
    pickle, as a module-level function or a partial of one.
    """
    processes = min(workers, len(cfg.video_dirs))
    threads = max(1, usable_cpus() // processes)
    runs = (VideoRun(cfg, run_seed, d, threads) for d in cfg.video_dirs)
    if processes == 1:
        return [task(run) for run in runs]
    from concurrent.futures import ProcessPoolExecutor

    return fan_out(task, runs, processes, ProcessPoolExecutor)
