"""Command line entry points: stage runs, end-to-end pipeline, sweeps, allocation.

Exit codes: 0 success, 1 internal error (with a traceback), 2 a bad config or
input file, found before an experiment command runs or writes anything.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
import traceback
from functools import partial

import numpy as np

from . import __version__
from . import allocator as al
from .config import (
    ConfigError,
    config_digest,
    parse_experiment_config,
    parse_scenario_config,
)
from .channel import db_to_linear
from .pipeline import STAGES, check_videos, run_videos, transmit_selection, transmit_stats
from .reconstruct import reconstruct_video
from .video import FormatError, write_flo

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_BAD_INPUT = 2

FRAME_HEADER = ["video_id", "rho", "snr_db", "frame_idx", "ssim", "psnr", "mse"]


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_atomic(path: str, text: str) -> None:
    """Write text via temp file + rename so readers never see partial output."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv_atomic(path: str, header: list[str], rows: list[list]) -> None:
    """Write a CSV, every float as its repr, through `_write_atomic`."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    _write_atomic(path, buf.getvalue())


def write_manifest(out_dir: str, command: str, config_path: str, seed: int) -> None:
    """Everything needed to reproduce the run's CSVs byte for byte."""
    manifest = {
        "version": __version__,
        "command": command,
        "seed": seed,
        "config_sha256": config_digest(config_path),
        "config_file": os.path.basename(str(config_path)),
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    _write_atomic(os.path.join(out_dir, "manifest.json"), text)


def _loads(b) -> list[float]:
    """The l_first, l_sr, l_b and l_com columns of a load breakdown."""
    return [float(b.l_first_frame), float(b.l_sr), float(b.l_b), float(b.l_com)]


def _frame_rows(key: list, report) -> list[list]:
    """Per-frame quality rows, then the video-mean row, under one (video, rho, snr_db) key."""
    per_frame = zip(report.frame_ssim, report.frame_psnr, report.frame_mse)
    rows = [[*key, t, *values] for t, values in enumerate(per_frame)]
    rows.append([*key, "mean", report.mean_ssim, report.mean_psnr, report.mean_mse])
    return rows


# Each experiment command's per-video task takes (out dir, VideoRun), writes the
# video's own files and returns its rows, one list per CSV of the command.


def flow_rows(out_dir: str, run) -> tuple[list]:
    vid_dir = os.path.join(out_dir, run.video_id)
    os.makedirs(vid_dir, exist_ok=True)

    def write(t, field, scratch):
        write_flo(field, os.path.join(vid_dir, f"flow_{t:04d}.flo"))
        return np.hypot(*field, out=scratch[: field[0].size].reshape(field.shape[1:])).mean()

    magnitudes = run.estimate_flows(write)
    return ([[run.video_id, len(magnitudes), float(np.mean(magnitudes))]],)


def extract_rows(out_dir: str, run) -> tuple[list]:
    vid_dir = os.path.join(out_dir, run.video_id)
    rows = []
    for sel in run.selections():
        os.makedirs(vid_dir, exist_ok=True)
        with open(os.path.join(vid_dir, f"selection_rho{sel.mask_ratio:g}.bin"), "wb") as fh:
            fh.write(sel.to_bytes())
        rows.append([run.video_id, sel.mask_ratio, sel.n_selected, int(sel.xi.sum())])
    return (rows,)


def load_rows(out_dir: str, run) -> tuple[list]:
    cfg = run.cfg
    return ([[run.video_id, rho, cfg.zip_ratio, *_loads(run.breakdown(rho))]
             for rho in cfg.rho_list],)


def transmit_rows(out_dir: str, run) -> tuple[list]:
    rows = []
    for sel, norm, snr_db, channel_seed in run.cells(payloads=True):
        decoded = transmit_selection(sel, norm, run.cfg.codec, db_to_linear(snr_db), channel_seed)
        rows.append([run.video_id, sel.mask_ratio, snr_db, *transmit_stats(sel.payloads, decoded)])
    return (rows,)


def reconstruct_rows(out_dir: str, run) -> tuple[list]:
    """Local reconstruction from lossless selections (no channel in the loop)."""
    rows = []
    for sel in run.selections():
        reconstructed = reconstruct_video(run.video.frames[0], sel)
        report = run.quality(reconstructed.frames, len(run.cfg.rho_list))
        rows += _frame_rows([run.video_id, sel.mask_ratio, ""], report)
    return (rows,)


def pipeline_rows(out_dir: str, run) -> tuple[list, list]:
    summary_rows, frame_rows = [], []
    for r in run.points():
        report = r.report
        summary_rows.append(
            [r.video_id, r.rho, r.snr_db, report.mean_ssim, report.mean_psnr, report.mean_mse,
             r.map, r.n_selected, *_loads(r.breakdown), r.tx_seconds]
        )
        frame_rows += _frame_rows([r.video_id, r.rho, r.snr_db], report)
    return summary_rows, frame_rows


LOAD_HEADER = ["l_first", "l_sr", "l_b", "l_com"]
# command -> (per-video task, the pipeline.STAGES it runs, [(CSV name, header)] per row list)
EXPERIMENTS = {
    "flow": (flow_rows, ("flow",), [("flow.csv", ["video_id", "n_fields", "mean_magnitude"])]),
    "extract": (
        extract_rows, ("flow", "extract"),
        [("extract.csv", ["video_id", "rho", "n_selected", "xi_bits"])],
    ),
    "load": (load_rows, (), [("load.csv", ["video_id", "rho", "rho_zip", *LOAD_HEADER])]),
    "transmit": (
        transmit_rows, ("flow", "extract", "transmit"),
        [("transmit.csv", ["video_id", "rho", "snr_db", "n_symbols", "rms_flow_error"])],
    ),
    "reconstruct": (reconstruct_rows, ("flow", "extract", "score"), [("reconstruct.csv", FRAME_HEADER)]),
    "pipeline": (
        pipeline_rows, STAGES,
        [("summary.csv", ["video_id", "rho", "snr_db", "mean_ssim", "mean_psnr", "mean_mse", "map",
                          "n_selected", *LOAD_HEADER, "tx_seconds"]),
         ("frames.csv", FRAME_HEADER)],
    ),
}
EXPERIMENTS["sweep"] = EXPERIMENTS["pipeline"]  # pipeline under the name of its grid


def run_experiment(command: str, config_path: str, seed: int, out_dir: str, workers: int):
    """Check every video, then run the command's task on each and write each of its CSVs once."""
    cfg = parse_experiment_config(config_path)
    task, stages, tables = EXPERIMENTS[command]
    check_videos(cfg, stages)
    write_manifest(out_dir, command, config_path, seed)
    per_video = run_videos(cfg, seed, workers, partial(task, out_dir))
    for k, (name, header) in enumerate(tables):
        rows = [row for lists in per_video for row in lists[k]]
        write_csv_atomic(os.path.join(out_dir, name), header, rows)


def cmd_allocate(config_path: str, seed: int | None, out_dir: str) -> None:
    scenario, hyper, file_seed = parse_scenario_config(config_path)
    run_seed = file_seed if seed is None else seed
    if run_seed < 0:  # it seeds numpy generators directly; the scenario seed only hashes
        source = "[scenario] seed" if seed is None else "--seed"
        raise ConfigError(f"{source} seeds the DDPG training and must be >= 0, got {run_seed}")
    env = al.AllocationEnv(scenario)
    try:
        # A run that diverges overflows on its way there: DivergedError is the check, not a warning.
        with np.errstate(all="ignore"):
            agent, curve = al.train_ddpg(scenario, hyper, run_seed)
            frac_ddpg, _ = agent.allocate(env)
    except al.DivergedError as exc:
        raise ConfigError(
            f"DDPG training diverged: {exc}; lower [ddpg] actor_lr, critic_lr or noise_scale"
        ) from exc

    methods = {
        "ddpg": frac_ddpg * scenario.bandwidth_hz,
        "oracle": al.oracle_allocate(scenario)[0],
        "equal": al.equal_split_baseline(scenario)[0],
    }

    alloc_rows = []
    for method, bandwidths in methods.items():
        times = al.transmission_times(scenario, bandwidths)
        for ue in range(scenario.n_ue):
            alloc_rows.append(
                [method, ue, bandwidths[ue] / scenario.bandwidth_hz, bandwidths[ue], times[ue]]
            )
    write_csv_atomic(
        os.path.join(out_dir, "allocation.csv"),
        ["method", "ue", "fraction", "b_hz", "t_seconds"],
        alloc_rows,
    )
    write_csv_atomic(
        os.path.join(out_dir, "learning_curve.csv"),
        ["episode", "mean_reward", "greedy_t_max"],
        [list(row) for row in curve],
    )
    write_manifest(out_dir, "allocate", config_path, run_seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flowcomm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*EXPERIMENTS, "allocate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default="out")
        p.add_argument("--workers", type=int, default=1)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        if args.command == "allocate":
            cmd_allocate(args.config, args.seed, args.out)
        else:
            seed = 0 if args.seed is None else args.seed
            run_experiment(args.command, args.config, seed, args.out, args.workers)
    except (ConfigError, FormatError, FileNotFoundError, FileExistsError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
