"""Span tracing of calls into flowcomm's public functions, from outside the program.

`Tracer.install()` replaces each traced function by a timing wrapper wherever
flowcomm looks it up: the defining module, every flowcomm module that imported
it by name, or the class for a method. Each call records a span (id, name,
start, end, parent id, run id) in memory; `write_spans` writes them out once
the run is over. A layer's self time is its span's duration minus the time its
traced child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

# (layer, qualified name in flowcomm.<layer>) for every traced public function.
TARGETS = [
    ("metrics", "frame_losses"),
    ("metrics", "ssim"),
    ("extractor", "extract"),
    ("extractor", "patch_mean_flow"),
    ("extractor", "ransac_background"),
    ("extractor", "fit_background_lstsq"),
    ("extractor", "classify_patches"),
    ("extractor", "select_patches"),
    ("channel", "flow_encode"),
    ("channel", "power_normalize"),
    ("channel", "transmit_analog"),
    ("channel", "flow_decode"),
    ("pipeline", "run_point"),
    ("pipeline", "transmit_selection"),
    ("reconstruct", "reconstruct_video"),
    ("flow", "estimate_flow"),
    ("video", "load_ppm_sequence"),
    ("load", "total_load"),
    ("config", "parse_experiment_config"),
    ("config", "parse_scenario_config"),
    ("cli", "write_csv_atomic"),
    ("cli", "write_manifest"),
    ("mlp", "Mlp.forward"),
    ("mlp", "Mlp.backward"),
    ("mlp", "adam_step"),
    ("allocator", "train_ddpg"),
    ("allocator", "select_action"),
    ("allocator", "AllocationEnv.step"),
    ("allocator", "td_target"),
    ("allocator", "soft_update"),
    ("allocator", "ReplayBuffer.add"),
    ("allocator", "ReplayBuffer.sample"),
]

COUNTERS = [
    "metrics.ssim.useful_ratio",
    "extractor.extract.useful_ratio",
    "extractor.fit.attempts",
    "extractor.fit.degenerate",
    "channel.symbols",
    "reconstruct.frames",
    "flow.pairs",
    "flow.mpix_per_s",
    "video.bytes_read",
    "allocator.tti",
    "allocator.updates",
]


def span_names() -> list[str]:
    return [f"{layer}.{qual}" for layer, qual in TARGETS]


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = [f"{n}.{k}" for n in span_names() for k in ("calls", "total_s", "self_s")]
    return names + COUNTERS


def metric_unit(name: str) -> str:
    if name.endswith("mpix_per_s"):
        return "Mpx/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes_read"):
        return "B"
    return "count"


class Tracer:
    """Records spans and counts for one run; install before, uninstall after."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []       # (id, name, start, end, parent id)
        self._stack: list[list] = []       # [span id, child time]
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self._extract_keys: set = set()
        self._flow_pixels = 0
        self._patched: list[tuple] = []    # (owner, attribute, original)

    # -- wrapping ---------------------------------------------------------

    def _call(self, name, fn, hook, args, kwargs):
        span_id = len(self.spans)
        self.spans.append(None)  # reserve the id so children sort after the parent
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        result, error = None, None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            self.spans[span_id] = (span_id, name, start, end, parent)
            self.calls[name] += 1
            self.total[name] += duration
            self.self_time[name] += duration - frame[1]
            if hook is not None:
                hook(self, args, result, error)
            if self._stack:
                # The hook's own time is tracing overhead, not the parent's work.
                self._stack[-1][1] += time.perf_counter() - start

    def _wrapper(self, name, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, hook, args, kwargs)

        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "flowcomm" or k.startswith("flowcomm.")]
        for layer, qual in TARGETS:
            module = importlib.import_module(f"flowcomm.{layer}")
            name = f"{layer}.{qual}"
            if "." in qual:
                cls_name, attr = qual.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrapper(name, original))
                continue
            original = getattr(module, qual)
            traced = self._wrapper(name, original)
            for mod in modules:
                if mod.__dict__.get(qual) is original:
                    self._patch(mod, qual, original, traced)

    def _patch(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.total_s"] = self.total.get(name, 0.0)
            out[f"{name}.self_s"] = self.self_time.get(name, 0.0)
        c = self.counts
        ssim_calls = self.calls.get("metrics.ssim", 0)
        extract_calls = self.calls.get("extractor.extract", 0)
        flow_s = self.total.get("flow.estimate_flow", 0.0)
        out.update({
            "metrics.ssim.useful_ratio": c["ssim_useful"] / ssim_calls if ssim_calls else 0.0,
            "extractor.extract.useful_ratio":
                len(self._extract_keys) / extract_calls if extract_calls else 0.0,
            "extractor.fit.attempts": self.calls.get("extractor.fit_background_lstsq", 0),
            "extractor.fit.degenerate": c["fit_degenerate"],
            "channel.symbols": c["symbols"],
            "reconstruct.frames": c["frames"],
            "flow.pairs": c["pairs"],
            "flow.mpix_per_s": self._flow_pixels / 1e6 / flow_s if flow_s else 0.0,
            "video.bytes_read": c["bytes_read"],
            "allocator.tti": self.calls.get("allocator.select_action", 0),
            "allocator.updates": self.calls.get("allocator.td_target", 0),
        })
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "run": self.run_id,
                }) + "\n")


# -- counters, taken at the same boundaries as the spans --------------------

def _ssim_hook(tr, args, result, exc):
    import numpy as np

    if exc is None and not np.array_equal(args[0], args[1]):
        tr.counts["ssim_useful"] += 1


def _extract_hook(tr, args, result, exc):
    # (seed, rho) identifies the (video, rho) pair: the seed is derived per video.
    params, seed = args[2], args[3]
    tr._extract_keys.add((seed, params.mask_ratio))


def _fit_hook(tr, args, result, exc):
    from flowcomm.extractor import DegenerateSampleError

    if isinstance(exc, DegenerateSampleError):
        tr.counts["fit_degenerate"] += 1


def _transmit_hook(tr, args, result, exc):
    if exc is None:
        tr.counts["symbols"] += args[0].size


def _reconstruct_hook(tr, args, result, exc):
    if exc is None:
        tr.counts["frames"] += result.n_frames


def _flow_hook(tr, args, result, exc):
    if exc is None:
        video = args[0]
        tr.counts["pairs"] += len(result)
        tr._flow_pixels += len(result) * video.height * video.width


def _load_video_hook(tr, args, result, exc):
    if exc is None:
        directory = args[0]
        tr.counts["bytes_read"] += sum(
            os.path.getsize(os.path.join(directory, n))
            for n in os.listdir(directory) if n.lower().endswith(".ppm")
        )


HOOKS = {
    "metrics.ssim": _ssim_hook,
    "extractor.extract": _extract_hook,
    "extractor.fit_background_lstsq": _fit_hook,
    "channel.transmit_analog": _transmit_hook,
    "reconstruct.reconstruct_video": _reconstruct_hook,
    "flow.estimate_flow": _flow_hook,
    "video.load_ppm_sequence": _load_video_hook,
}
