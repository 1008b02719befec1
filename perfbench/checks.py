"""Per-operation checks on the CSVs a workload run wrote.

An operation is a grid cell (pipeline workloads), or a learning-curve episode
or an allocation method (allocate workload). Each check returns the number of
operations attempted, the number that failed with the reason for each, and
the run's quality figures (`mean_ssim`, or `t_max_ratio`).
"""
from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

from workloads import DdpgSpec, VideoSpec


@dataclass
class CheckResult:
    attempted: int
    failures: list = field(default_factory=list)  # one reason string per failed operation
    figures: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.failures)


def _rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _finite(value: str) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"not finite: {value}")
    return x


def selection_count(rho: float, n_patches: int) -> int:
    """round((1 - rho) * N), halves away from zero."""
    return int(math.floor((1.0 - rho) * n_patches + 0.5))


def _check_cell(spec: VideoSpec, rho: float, rows: list[dict], frame_rows: list[dict]) -> str | None:
    if len(rows) != 1:
        return f"{len(rows)} summary rows"
    row = rows[0]
    want = (spec.n_frames - 1) * selection_count(rho, spec.n_patches)
    if int(row["n_selected"]) != want:
        return f"n_selected {row['n_selected']} != {want}"
    if len(frame_rows) != spec.n_frames + 1:
        return f"{len(frame_rows)} frame rows, expected {spec.n_frames + 1}"
    ssims = [_finite(row["mean_ssim"])] + [_finite(r["ssim"]) for r in frame_rows]
    if not all(-1.0 <= s <= 1.0 for s in ssims):
        return "SSIM outside [-1, 1]"
    loads = [_finite(row[k]) for k in ("l_first", "l_sr", "l_b")]
    l_com = _finite(row["l_com"])
    if min(loads + [l_com]) < 0:
        return "negative load"
    if not math.isclose(l_com, sum(loads), rel_tol=1e-12):
        return f"l_com {l_com} != l_first + l_sr + l_b = {sum(loads)}"
    tx = _finite(row["tx_seconds"])
    if tx <= 0:
        return f"tx_seconds {tx} <= 0"
    return None


def check_pipeline(spec: VideoSpec, out_dir: str) -> CheckResult:
    cells = spec.cells
    result = CheckResult(attempted=len(cells))
    try:
        summary = _rows(os.path.join(out_dir, "summary.csv"))
        frames = _rows(os.path.join(out_dir, "frames.csv"))
    except (OSError, csv.Error) as exc:
        result.failures = [f"outputs unreadable: {exc}"] * len(cells)
        return result
    ssims = []
    for rho, snr in cells:
        def key(r):
            return float(r["rho"]) == rho and float(r["snr_db"]) == snr

        rows = [r for r in summary if key(r)]
        try:
            reason = _check_cell(spec, rho, rows, [r for r in frames if key(r)])
        except (KeyError, ValueError) as exc:
            reason = f"bad value: {exc}"
        if reason is None:
            ssims.append(float(rows[0]["mean_ssim"]))
        else:
            result.failures.append(f"cell rho={rho} snr_db={snr}: {reason}")
    if ssims:
        result.figures["mean_ssim"] = sum(ssims) / len(ssims)
    return result


def _check_method(method: str, rows: list[dict], n_ue: int) -> str | None:
    if len(rows) != n_ue:
        return f"{len(rows)} rows, expected {n_ue}"
    fractions = [_finite(r["fraction"]) for r in rows]
    times = [_finite(r["t_seconds"]) for r in rows]
    if min(fractions) <= 0 or not math.isclose(sum(fractions), 1.0, rel_tol=1e-9):
        return f"fractions {fractions} do not sum to 1"
    if min(times) <= 0:
        return "non-positive transmission time"
    if method == "oracle" and not all(math.isclose(t, times[0], rel_tol=1e-9) for t in times):
        return f"oracle times differ: {times}"
    return None


def check_allocate(spec: DdpgSpec, out_dir: str, n_ue: int = 3) -> CheckResult:
    methods = ("ddpg", "oracle", "equal")
    result = CheckResult(attempted=spec.episodes + len(methods))
    try:
        curve = _rows(os.path.join(out_dir, "learning_curve.csv"))
        alloc = _rows(os.path.join(out_dir, "allocation.csv"))
    except (OSError, csv.Error) as exc:
        result.failures = [f"outputs unreadable: {exc}"] * result.attempted
        return result
    by_episode = {}
    for row in curve:
        by_episode.setdefault(row.get("episode"), []).append(row)
    for episode in range(spec.episodes):
        rows = by_episode.get(str(episode), [])
        try:
            if len(rows) != 1:
                raise ValueError(f"{len(rows)} rows")
            reward = _finite(rows[0]["mean_reward"])
            t_max = _finite(rows[0]["greedy_t_max"])
            if not 0.0 <= reward <= 1.0 or t_max <= 0:
                raise ValueError(f"reward {reward}, t_max {t_max} out of range")
        except (KeyError, ValueError) as exc:
            result.failures.append(f"episode {episode}: {exc}")
    t_max = {}
    for method in methods:
        rows = [r for r in alloc if r.get("method") == method]
        try:
            reason = _check_method(method, rows, n_ue)
        except (KeyError, ValueError) as exc:
            reason = f"bad value: {exc}"
        if reason is None:
            t_max[method] = max(float(r["t_seconds"]) for r in rows)
        else:
            result.failures.append(f"method {method}: {reason}")
    if "ddpg" in t_max and "oracle" in t_max:
        result.figures["t_max_ratio"] = t_max["ddpg"] / t_max["oracle"]
    return result


def check(spec, out_dir: str) -> CheckResult:
    if isinstance(spec, VideoSpec):
        return check_pipeline(spec, out_dir)
    return check_allocate(spec, out_dir)
