"""Workload definitions: sizes, seeded input synthesis and the CLI call for each.

Every input is a pure function of the workload name and the seed, so the same
seed gives the same PPM frames and config bytes. `tiny=True` shrinks each
workload to a few seconds' worth of work for the benchmark's own tests; the
benchmark itself always runs the full sizes.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

NAMES = ("sweep_grid", "large_frame", "ddpg_train")


@dataclass(frozen=True)
class VideoSpec:
    """A `flowcomm pipeline` run on one synthetic block-motion clip."""

    height: int
    width: int
    n_frames: int
    levels: int
    rho: tuple
    snr_db: tuple
    patch: int = 16

    @property
    def n_patches(self) -> int:
        return math.ceil(self.height / self.patch) * math.ceil(self.width / self.patch)

    @property
    def cells(self) -> list[tuple[float, float]]:
        return [(r, s) for r in self.rho for s in self.snr_db]


@dataclass(frozen=True)
class DdpgSpec:
    """A `flowcomm allocate` run: 3 UEs, DDPG with 64x64 hidden layers."""

    episodes: int
    episode_len: int
    batch_size: int


SPECS = {
    # ROADMAP baseline: 256x256x16, 16 px patches, 3 levels, 4 rho x 3 SNR.
    "sweep_grid": VideoSpec(256, 256, 16, 3, (0.0, 0.3, 0.6, 0.9), (10.0, 20.0, 30.0)),
    # Per-video work (flow, SSIM area) dominates: 4x the frame area, one cell.
    "large_frame": VideoSpec(512, 512, 8, 4, (0.6,), (20.0,)),
    "ddpg_train": DdpgSpec(episodes=100, episode_len=50, batch_size=64),
}

TINY_SPECS = {
    "sweep_grid": VideoSpec(64, 64, 4, 2, (0.0, 0.3, 0.6, 0.9), (10.0, 20.0, 30.0)),
    "large_frame": VideoSpec(96, 96, 3, 2, (0.6,), (20.0,)),
    "ddpg_train": DdpgSpec(episodes=3, episode_len=10, batch_size=8),
}


def spec_for(name: str, tiny: bool = False):
    return (TINY_SPECS if tiny else SPECS)[name]


def _write_video(spec: VideoSpec, seed: int, clip_dir: str) -> None:
    import numpy as np

    from flowcomm import synth
    from flowcomm.video import save_ppm_sequence

    rng = np.random.default_rng(seed)
    bh, bw = spec.height // 4, spec.width // 4
    top = int(rng.integers(0, spec.height - bh))
    left = int(rng.integers(0, spec.width - bw))
    # Foreground block moves (2, 1) px/frame over a background panning 1 px/frame.
    video, _ = synth.block_motion_video(
        spec.height, spec.width, spec.n_frames, [(top, left, bh, bw)],
        dx=2, dy=1, seed=seed, bg_dx=1, bg_dy=0,
    )
    save_ppm_sequence(video, clip_dir)


def _experiment_ini(spec: VideoSpec, clip_dir: str) -> str:
    return (
        f"[input]\nvideos = {clip_dir}\n\n"
        f"[patches]\nheight = {spec.patch}\nwidth = {spec.patch}\n\n"
        f"[flow]\nlevels = {spec.levels}\niterations_per_level = 3\n"
        "smoothing_sigma = 1.0\nlk_window = 5\n\n"
        "[extractor]\nalpha1 = 0.5\nalpha2 = 1.0\ntheta_th = 0.98\n"
        "ransac_iters = 64\ninlier_eps = 0.5\n\n"
        "[codec]\nbits_per_symbol = 8\nmag_cap = 32\ngamma = 1.0\n\n"
        "[link]\nd = 100\nf_c = 2.4e9\nalpha = 1.0\nP = 1.0\nsigma2 = 1e-9\nB = 1e6\n\n"
        "[load]\nzip_ratio = 0.0\n\n"
        f"[sweep]\nrho = {' '.join(repr(r) for r in spec.rho)}\n"
        f"snr_db = {' '.join(repr(s) for s in spec.snr_db)}\n"
    )


def _scenario_ini(spec: DdpgSpec, seed: int) -> str:
    # Two UEs with a given SNR, one at 150 m whose fading is drawn from the seed.
    return (
        f"[scenario]\nbandwidth_hz = 4e6\nseed = {seed}\n\n"
        "[ue.1]\nload_bits = 4e6\nsnr = 3.0\nrho = 0.9\n\n"
        "[ue.2]\nload_bits = 2e6\nsnr = 3.0\nrho = 0.5\n\n"
        "[ue.3]\nload_bits = 2e6\ndistance = 150\nrho = 0.5\n\n"
        "[channel]\nf_c = 2.4e9\nalpha = 1.0\nP = 1.0\nsigma2 = 1e-9\n\n"
        f"[ddpg]\nepisodes = {spec.episodes}\nactor_lr = 1e-4\ncritic_lr = 1e-3\n"
        "gamma = 0.99\ntau = 0.005\nnoise_scale = 0.2\nnoise_floor = 0.01\n"
        f"noise_decay = 0.999\nbatch_size = {spec.batch_size}\n"
        f"episode_len = {spec.episode_len}\n"
    )


def prepare(name: str, seed: int, work_dir: str, tiny: bool = False) -> list[str]:
    """Write the workload's inputs under work_dir; return the CLI argv to run."""
    spec = spec_for(name, tiny)
    os.makedirs(work_dir, exist_ok=True)
    config = os.path.join(work_dir, "config.ini")
    out = os.path.join(work_dir, "out")
    if isinstance(spec, VideoSpec):
        clip_dir = os.path.join(work_dir, "clip")
        _write_video(spec, seed, clip_dir)
        text, command = _experiment_ini(spec, clip_dir), "pipeline"
    else:
        text, command = _scenario_ini(spec, seed), "allocate"
    with open(config, "w") as fh:
        fh.write(text)
    return [command, "--config", config, "--seed", str(seed), "--out", out, "--workers", "1"]
