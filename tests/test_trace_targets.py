"""The benchmark's span tracer (perfbench/spans.py) wraps functions by name;
each name it lists must still exist, or `perfbench/run.py --trace 1` breaks.
Its hooks also read call arguments, so a traced run must still report them."""
import ast
import importlib
import importlib.util
import os

from flowcomm import cli, flow, pipeline, synth
from flowcomm.extractor import selection_count
from flowcomm.video import save_ppm_sequence

SPANS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "spans.py")


def trace_targets():
    """TARGETS as written in spans.py, read without importing the benchmark."""
    with open(SPANS) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no TARGETS list")


def test_every_trace_target_resolves():
    targets = trace_targets()
    assert targets
    missing = []
    for layer, qual in targets:
        owner = importlib.import_module(f"flowcomm.{layer}")
        for attr in qual.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(f"flowcomm.{layer}.{qual}")
    assert not missing, missing


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_pipeline_extracts_once_per_video(tmp_path):
    video, _ = synth.block_motion_video(64, 64, 4, [(16, 16, 16, 16)], dx=2, dy=0, seed=1)
    save_ppm_sequence(video, tmp_path / "clip")
    config = tmp_path / "c.ini"
    config.write_text(
        f"[input]\nvideos = {tmp_path / 'clip'}\n[flow]\nlevels = 2\n"
        "[sweep]\nrho = 0.0 0.5\nsnr_db = 20\n"
    )
    tracer = load_spans().Tracer("tier-1")
    tracer.install()
    try:
        rc = cli.main(["pipeline", "--config", str(config), "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert rc == 0
    metrics = tracer.metrics()
    # The hook reads extract's (flows, grid, params, seed) positional arguments.
    assert metrics["extractor.extract.calls"] == 1
    assert metrics["extractor.extract.useful_ratio"] == 1.0


def test_traced_pipeline_with_flow_threads(tmp_path, monkeypatch):
    """Flow's worker threads call traced functions only in extraction, one frame at a
    time, so traced calls never overlap and the span stack stays whole."""
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: 2)
    video, _ = synth.block_motion_video(64, 64, 5, [(16, 16, 16, 16)], dx=2, dy=0, seed=2)
    save_ppm_sequence(video, tmp_path / "clip")
    config = tmp_path / "c.ini"
    config.write_text(
        f"[input]\nvideos = {tmp_path / 'clip'}\n[flow]\nlevels = 2\n"
        "[sweep]\nrho = 0.5\nsnr_db = 20\n"
    )
    tracer = load_spans().Tracer("tier-1")
    tracer.install()
    try:
        rc = cli.main(["pipeline", "--config", str(config), "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert rc == 0
    metrics = tracer.metrics()
    assert metrics["flow.estimate_flow.calls"] == 1
    # The hook reads estimate_flow's video argument and the number of fields returned.
    assert metrics["flow.pairs"] == 4


def test_traced_library_call_is_one_span():
    """The library call fills its stack through a sink of its own, not by calling the
    traced name again, so its span and its pairs are counted once."""
    video, _ = synth.block_motion_video(64, 64, 5, [(16, 16, 16, 16)], dx=2, dy=0, seed=4)
    tracer = load_spans().Tracer("tier-1")
    tracer.install()
    try:
        fields = flow.estimate_flow(video, flow.FlowEstimatorParams(levels=2), 2)
    finally:
        tracer.uninstall()
    assert fields.shape == (4, 2, 64, 64)
    metrics = tracer.metrics()
    assert metrics["flow.estimate_flow.calls"] == 1
    assert metrics["flow.pairs"] == 4


def test_traced_counters_under_the_frame_by_frame_leg(tmp_path):
    """channel.symbols sums transmit_analog's first argument, which is now one frame's symbols."""
    n_frames, patch = 4, 16
    video, _ = synth.block_motion_video(64, 64, n_frames, [(16, 16, 16, 16)], dx=2, dy=0, seed=3)
    save_ppm_sequence(video, tmp_path / "clip")
    config = tmp_path / "c.ini"
    config.write_text(
        f"[input]\nvideos = {tmp_path / 'clip'}\n[flow]\nlevels = 2\n"
        "[sweep]\nrho = 0.0 0.5\nsnr_db = 10 30\n"
    )
    tracer = load_spans().Tracer("tier-1")
    tracer.install()
    try:
        rc = cli.main(["pipeline", "--config", str(config), "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert rc == 0
    metrics = tracer.metrics()
    n_patches = (64 // patch) ** 2
    cells = [(rho, snr) for rho in (0.0, 0.5) for snr in (10, 30)]
    # Per cell: T' flow frames x k patches x 2 symbols per pixel x ph x pw pixels.
    expected = sum(
        (n_frames - 1) * selection_count(rho, n_patches) * 2 * patch * patch for rho, _ in cells
    )
    assert metrics["channel.symbols"] == expected
    assert metrics["channel.transmit_analog.calls"] == len(cells) * (n_frames - 1)
    # A cell reconstructs and scores frame by frame; only `reconstruct` stacks whole videos.
    assert metrics["reconstruct.reconstruct_video.calls"] == 0
    assert metrics["reconstruct.frames"] == 0


def traced(argv):
    tracer = load_spans().Tracer("tier-1")
    tracer.install()
    try:
        rc = cli.main(argv)
    finally:
        tracer.uninstall()
    return rc, tracer.metrics()


def test_traced_reconstruct_counts_frames(tmp_path):
    """The hook reads .n_frames of reconstruct_video's result."""
    n_frames = 4
    video, _ = synth.block_motion_video(64, 64, n_frames, [(16, 16, 16, 16)], dx=2, dy=0, seed=3)
    save_ppm_sequence(video, tmp_path / "clip")
    config = tmp_path / "c.ini"
    config.write_text(
        f"[input]\nvideos = {tmp_path / 'clip'}\n[flow]\nlevels = 2\n[sweep]\nrho = 0.0 0.5\n"
    )
    rc, metrics = traced(["reconstruct", "--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert metrics["reconstruct.reconstruct_video.calls"] == 2
    assert metrics["reconstruct.frames"] == 2 * n_frames


def test_traced_pipeline_on_cell_threads(tmp_path, monkeypatch):
    """Cells on two threads make the same traced calls and counts as on one.

    The tracer keeps one span stack per process, so self times mix across the
    threads; calls and counters do not depend on it. Times and flow.mpix_per_s,
    a rate, end in "_s"."""
    video, _ = synth.block_motion_video(64, 64, 5, [(16, 16, 16, 16)], dx=2, dy=0, seed=4)
    save_ppm_sequence(video, tmp_path / "clip")
    config = tmp_path / "c.ini"
    config.write_text(
        f"[input]\nvideos = {tmp_path / 'clip'}\n[flow]\nlevels = 2\n"
        "[sweep]\nrho = 0.0 0.5\nsnr_db = 10 30\n"
    )
    counted = {}
    for cpus in (1, 2):
        monkeypatch.setattr(pipeline, "usable_cpus", lambda: cpus)
        argv = ["pipeline", "--config", str(config), "--out", str(tmp_path / f"out{cpus}")]
        rc, metrics = traced(argv)
        assert rc == 0
        counted[cpus] = {
            name: value for name, value in metrics.items()
            if not name.endswith("_s")
        }
    assert counted[1]["pipeline.run_point.calls"] == 4
    assert counted[2] == counted[1]
