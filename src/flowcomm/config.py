"""INI experiment/scenario configs and stable seed derivation."""
from __future__ import annotations

import configparser
import hashlib
import math
import os
from dataclasses import dataclass, fields

from .allocator import AllocationScenario, DdpgHyper
from .channel import CodecParams, LinkParams, capacity_per_s, db_to_linear, sample_channel
from .extractor import ExtractorParams
from .flow import FlowEstimatorParams


class ConfigError(ValueError):
    """Bad or missing experiment configuration."""


def derive_seed(run_seed: int, stage: str, key) -> int:
    """Stable per-stage seed: sha256 over (run seed, stage, key), for any key with a stable `str`."""
    digest = hashlib.sha256(f"{run_seed}:{stage}:{key}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def video_id(directory: str) -> str:
    """The name a video's outputs go under: the basename of its directory's absolute path."""
    return os.path.basename(os.path.abspath(directory))


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
    try:
        read = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file: {path}")
    return parser


def _get(parser, section, key, cast, default=None):
    if not parser.has_option(section, key):
        if default is None:
            raise ConfigError(f"missing [{section}] {key}")
        return default
    raw = parser.get(section, key, raw=True)
    try:
        return cast(parser.get(section, key))  # a '%' in the value must be a valid interpolation
    except (ValueError, configparser.Error) as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc


def _list_of(cast):
    """A parser of a non-empty comma- or space-separated list, each token cast."""

    def parse(raw: str) -> tuple:
        vals = tuple(cast(tok) for tok in raw.replace(",", " ").split())
        if not vals:
            raise ValueError("empty list")
        return vals

    return parse


def _build(cls, **kwargs):
    """cls(**kwargs), its ValueError raised again as a ConfigError with the same message."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _section(parser, section, cls, skip=()):
    """A params dataclass from a section's keys, named as its fields.

    A missing key keeps the field's default, whose type casts the value.
    """
    values = {
        f.name: _get(parser, section, f.name, type(f.default))
        for f in fields(cls)
        if f.name not in skip and parser.has_option(section, f.name)
    }
    return _build(cls, **values)


def parse_experiment_config(path) -> ExperimentConfig:
    p = _read_ini(path)
    if not p.has_section("input"):
        raise ConfigError("missing [input] section")
    video_dirs = _get(p, "input", "videos", _list_of(str))
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
    rho_list = _get(p, "sweep", "rho", _list_of(float), (0.0,))
    for k, rho in enumerate(rho_list):
        if not 0.0 <= rho < 1.0:
            raise ConfigError(f"[sweep] rho must lie in [0, 1), got {rho!r}")
        for other in rho_list[:k]:
            if rho == other or f"{rho:g}" == f"{other:g}":
                raise ConfigError(
                    f"[sweep] rho {other!r} and {rho!r} would share the selection blob "
                    f"selection_rho{rho:g}.bin and their summary rows"
                )
    snr_db_list = _get(p, "sweep", "snr_db", _list_of(float), (20.0,))
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
    patch_h, patch_w = (_get(p, "patches", key, int, 16) for key in ("height", "width"))
    for key, size in (("height", patch_h), ("width", patch_w)):
        if size < 1:
            raise ConfigError(f"[patches] {key} must be >= 1, got {size}")
    zip_ratio = _get(p, "load", "zip_ratio", float, 0.0)
    if not 0.0 <= zip_ratio < 1.0:
        raise ConfigError(f"[load] zip_ratio must lie in [0, 1), got {zip_ratio!r}")
    return ExperimentConfig(
        video_dirs=video_dirs,
        patch_h=patch_h,
        patch_w=patch_w,
        flow_params=_section(p, "flow", FlowEstimatorParams),
        extractor=_section(p, "extractor", ExtractorParams, skip=("mask_ratio",)),
        codec=_section(p, "codec", CodecParams),
        bandwidth_hz=bandwidth_hz,
        zip_ratio=zip_ratio,
        rho_list=rho_list,
        snr_db_list=snr_db_list,
    )


# [channel] key -> LinkParams field
CHANNEL_KEYS = {"f_c": "carrier_hz", "alpha": "path_loss_exp", "P": "tx_power", "sigma2": "noise_power"}


def parse_scenario_config(path) -> tuple[AllocationScenario, DdpgHyper, int]:
    """Scenario + hyperparameters + seed from an allocation INI file.

    Each [ue.N] section gives load_bits and rho, and either a direct linear
    snr or a distance resolved through the [channel] link parameters with
    the scenario seed (fading frozen at scenario construction), not both.
    """
    p = _read_ini(path)
    if not p.has_section("scenario"):
        raise ConfigError("missing [scenario] section")
    seed = _get(p, "scenario", "seed", int, 0)
    bandwidth = _get(p, "scenario", "bandwidth_hz", float)
    ue_sections = [s for s in p.sections() if s.startswith("ue.")]
    try:
        ue_sections.sort(key=lambda s: int(s[3:]))
    except ValueError as exc:
        raise ConfigError(f"UE sections are named [ue.N] with an integer N: {exc}") from exc
    if len(ue_sections) < 2:
        raise ConfigError("need at least 2 [ue.N] sections")
    loads, snrs, rhos = [], [], []
    for k, sec in enumerate(ue_sections):
        loads.append(_get(p, sec, "load_bits", float))
        rhos.append(_get(p, sec, "rho", float, 0.0))
        if p.has_option(sec, "snr"):
            if p.has_option(sec, "distance"):
                raise ConfigError(f"[{sec}] gives both snr and distance; give one or the other")
            snrs.append(_get(p, sec, "snr", float))
        else:
            dist = _get(p, sec, "distance", float, -1.0)
            if not p.has_section("channel") or dist <= 0:
                raise ConfigError(f"[{sec}] needs snr, or distance plus a [channel] section")
            link = _build(
                LinkParams,
                distance=dist,
                bandwidth_hz=bandwidth,
                **{field: _get(p, "channel", key, float)
                   for key, field in CHANNEL_KEYS.items() if p.has_option("channel", key)},
            )
            try:
                snr = sample_channel(link, derive_seed(seed, "scenario-fading", k)).snr
            except (OverflowError, ZeroDivisionError):  # a path gain or |h|^2 past the float range
                snr = math.inf
            if not 0.0 < snr < math.inf:
                raise ConfigError(f"[{sec}] distance = {dist!r} and the [channel] link give the UE "
                                  f"snr {snr!r}; it must be finite and positive")
            snrs.append(snr)
    scenario = _build(
        AllocationScenario,
        loads=tuple(loads),
        snrs=tuple(snrs),
        bandwidth_hz=bandwidth,
        mask_ratios=tuple(rhos),
    )
    hyper = _section(p, "ddpg", DdpgHyper)
    return scenario, hyper, seed


def config_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
