"""INI experiment/scenario configs and stable seed derivation."""
from __future__ import annotations

import configparser
import hashlib
import math
import os
from dataclasses import dataclass

from .allocator import AllocationScenario, DdpgHyper
from .channel import CodecParams, LinkParams, capacity_per_s, db_to_linear, sample_channel
from .extractor import ExtractorParams
from .flow import FlowEstimatorParams


class ConfigError(ValueError):
    """Bad or missing experiment configuration."""


def derive_seed(run_seed: int, stage: str, index: int = 0) -> int:
    """Stable per-stage seed: sha256 over (run seed, stage, index)."""
    digest = hashlib.sha256(f"{run_seed}:{stage}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def video_id(directory: str) -> str:
    """The name a video's outputs go under: its directory's basename."""
    return os.path.basename(os.path.normpath(directory))


@dataclass(frozen=True)
class ExperimentConfig:
    video_dirs: tuple
    patch_h: int
    patch_w: int
    flow_params: FlowEstimatorParams
    extractor: ExtractorParams      # mask_ratio comes from the sweep list
    codec: CodecParams
    bandwidth_hz: float             # B; snr_db is the post-equalization SNR
    zip_ratio: float
    rho_list: tuple
    snr_db_list: tuple


def _read_ini(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str  # keys like P and B are case-sensitive
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file: {path}")
    return parser


def _get(parser, section, key, cast, default=None):
    if not parser.has_option(section, key):
        if default is None:
            raise ConfigError(f"missing [{section}] {key}")
        return default
    raw = parser.get(section, key)
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc


def _floats(raw: str) -> tuple:
    vals = tuple(float(tok) for tok in raw.replace(",", " ").split())
    if not vals:
        raise ValueError("empty list")
    return vals


def _paths(raw: str) -> tuple:
    vals = tuple(tok for tok in raw.replace(",", " ").split())
    if not vals:
        raise ValueError("empty list")
    return vals


def parse_experiment_config(path) -> ExperimentConfig:
    p = _read_ini(path)
    if not p.has_section("input"):
        raise ConfigError("missing [input] section")
    video_dirs = _get(p, "input", "videos", _paths)
    seen = {}
    for directory in video_dirs:
        vid = video_id(directory)
        if vid in seen:
            raise ConfigError(
                f"[input] videos {seen[vid]} and {directory} share the video id {vid!r}, "
                "which names their outputs"
            )
        seen[vid] = directory
    bandwidth_hz = _get(p, "link", "B", float, 1e6)
    if not bandwidth_hz > 0:
        raise ConfigError(f"[link] B must be positive, got {bandwidth_hz!r}")
    rho_list = _get(p, "sweep", "rho", _floats, (0.0,))
    for k, rho in enumerate(rho_list):
        if not 0.0 <= rho < 1.0:
            raise ConfigError(f"[sweep] rho must lie in [0, 1), got {rho!r}")
        for other in rho_list[:k]:
            if rho == other or f"{rho:g}" == f"{other:g}":
                raise ConfigError(
                    f"[sweep] rho {other!r} and {rho!r} would share the selection blob "
                    f"selection_rho{rho:g}.bin and their summary rows"
                )
    snr_db_list = _get(p, "sweep", "snr_db", _floats, (20.0,))
    for k, snr_db in enumerate(snr_db_list):
        try:
            snr = db_to_linear(snr_db)
            capacity = capacity_per_s(bandwidth_hz, snr)
        except OverflowError:
            snr = capacity = math.inf
        if not (0 < snr < math.inf and 0 < capacity < math.inf):
            raise ConfigError(
                f"[sweep] snr_db {snr_db!r} gives the link SNR {snr!r} and capacity "
                f"B log2(1 + snr) = {capacity!r} bit/s; both must be finite and positive"
            )
        if snr_db in snr_db_list[:k]:
            raise ConfigError(f"[sweep] snr_db {snr_db!r} is listed twice")
    return ExperimentConfig(
        video_dirs=video_dirs,
        patch_h=_get(p, "patches", "height", int, 16),
        patch_w=_get(p, "patches", "width", int, 16),
        flow_params=FlowEstimatorParams(
            levels=_get(p, "flow", "levels", int, 4),
            iterations_per_level=_get(p, "flow", "iterations_per_level", int, 3),
            smoothing_sigma=_get(p, "flow", "smoothing_sigma", float, 1.0),
            lk_window=_get(p, "flow", "lk_window", int, 5),
        ),
        extractor=ExtractorParams(
            alpha1=_get(p, "extractor", "alpha1", float, 0.5),
            alpha2=_get(p, "extractor", "alpha2", float, 1.0),
            theta_th=_get(p, "extractor", "theta_th", float, 0.98),
            ransac_iters=_get(p, "extractor", "ransac_iters", int, 64),
            inlier_eps=_get(p, "extractor", "inlier_eps", float, 0.5),
        ),
        codec=CodecParams(
            bits_per_symbol=_get(p, "codec", "bits_per_symbol", int, 8),
            mag_cap=_get(p, "codec", "mag_cap", float, 32.0),
            gamma=_get(p, "codec", "gamma", float, 1.0),
        ),
        bandwidth_hz=bandwidth_hz,
        zip_ratio=_get(p, "load", "zip_ratio", float, 0.0),
        rho_list=rho_list,
        snr_db_list=snr_db_list,
    )


def parse_scenario_config(path) -> tuple[AllocationScenario, DdpgHyper, int]:
    """Scenario + hyperparameters + seed from an allocation INI file.

    Each [ue.N] section gives load_bits and rho, and either a direct linear
    snr or a distance resolved through the [channel] link parameters with
    the scenario seed (fading frozen at scenario construction).
    """
    p = _read_ini(path)
    if not p.has_section("scenario"):
        raise ConfigError("missing [scenario] section")
    seed = _get(p, "scenario", "seed", int, 0)
    bandwidth = _get(p, "scenario", "bandwidth_hz", float)
    ue_sections = sorted(
        (s for s in p.sections() if s.startswith("ue.")), key=lambda s: int(s.split(".", 1)[1])
    )
    if len(ue_sections) < 2:
        raise ConfigError("need at least 2 [ue.N] sections")
    loads, snrs, rhos = [], [], []
    for k, sec in enumerate(ue_sections):
        loads.append(_get(p, sec, "load_bits", float))
        rhos.append(_get(p, sec, "rho", float, 0.0))
        dist = _get(p, sec, "distance", float, -1.0)
        if p.has_option(sec, "snr"):
            snrs.append(_get(p, sec, "snr", float))
        else:
            if not p.has_section("channel") or dist <= 0:
                raise ConfigError(f"[{sec}] needs snr, or distance plus a [channel] section")
            link = LinkParams(
                distance=dist,
                carrier_hz=_get(p, "channel", "f_c", float, 2.4e9),
                path_loss_exp=_get(p, "channel", "alpha", float, 1.0),
                tx_power=_get(p, "channel", "P", float, 1.0),
                noise_power=_get(p, "channel", "sigma2", float, 1e-9),
                bandwidth_hz=bandwidth,
            )
            snrs.append(sample_channel(link, derive_seed(seed, "scenario-fading", k)).snr)
    scenario = AllocationScenario(
        loads=tuple(loads),
        snrs=tuple(snrs),
        bandwidth_hz=bandwidth,
        mask_ratios=tuple(rhos),
    )
    hyper = DdpgHyper(
        actor_lr=_get(p, "ddpg", "actor_lr", float, 1e-4),
        critic_lr=_get(p, "ddpg", "critic_lr", float, 1e-3),
        gamma=_get(p, "ddpg", "gamma", float, 0.99),
        tau=_get(p, "ddpg", "tau", float, 0.005),
        noise_scale=_get(p, "ddpg", "noise_scale", float, 0.2),
        noise_floor=_get(p, "ddpg", "noise_floor", float, 0.01),
        noise_decay=_get(p, "ddpg", "noise_decay", float, 0.999),
        batch_size=_get(p, "ddpg", "batch_size", int, 64),
        buffer_capacity=_get(p, "ddpg", "buffer_capacity", int, 100_000),
        episode_len=_get(p, "ddpg", "episode_len", int, 50),
        episodes=_get(p, "ddpg", "episodes", int, 500),
    )
    return scenario, hyper, seed


def config_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
