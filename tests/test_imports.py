"""What a fresh interpreter imports. flowcomm runs on numpy alone: no command
loads SciPy, which the tests keep only as an oracle. The thread pool is imported
as one starts, and the process pool only for two or more processes. Each check
runs in a subprocess, because this process already has them loaded."""
import filecmp
import json
import os
import subprocess
import sys

import pytest

from flowcomm import cli, synth
from flowcomm.video import save_ppm_sequence
from test_trace_targets import trace_targets

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

SCENARIO_INI = """
[scenario]
bandwidth_hz = 4e6
seed = 5

[ue.1]
load_bits = 4e6
snr = 3.0
rho = 0.9

[ue.2]
load_bits = 2e6
snr = 3.0
rho = 0.5

[ddpg]
episodes = 3
episode_len = 5
batch_size = 4
"""


# what a command that estimates no flow and starts no pool never loads
BARRED = ("scipy", "concurrent", "multiprocessing")
LOADED_BARRED = f"sorted(m for m in sys.modules if m.split('.')[0] in {BARRED!r})"


def fresh(script: str, *args: str):
    """Run script in a new interpreter with flowcomm on its path; return its JSON stdout."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def experiment(tmp_path, frames: int, sweep: str) -> str:
    video, _ = synth.block_motion_video(64, 64, frames, [(16, 16, 16, 16)], dx=2, dy=1, seed=7)
    save_ppm_sequence(video, tmp_path / "clip")
    config = tmp_path / "experiment.ini"
    config.write_text(f"[input]\nvideos = {tmp_path / 'clip'}\n[flow]\nlevels = 2\n{sweep}")
    return str(config)


def test_cli_import_loads_every_traced_layer_and_no_ndimage():
    """perfbench's tracer patches names only in the flowcomm modules loaded before it
    imports its targets, so `import flowcomm.cli` must keep loading every traced layer."""
    loaded = fresh(
        "import json, sys\nimport flowcomm.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m == 'flowcomm' or m.startswith('flowcomm.')"
        " or m == 'scipy.ndimage')))"
    )
    assert "scipy.ndimage" not in loaded
    assert {f"flowcomm.{layer}" for layer, _ in trace_targets()} <= set(loaded)
    assert loaded == ["flowcomm"] + [f"flowcomm.{m}" for m in (
        "allocator", "channel", "cli", "config", "extractor", "flow", "load", "metrics",
        "mlp", "pipeline", "reconstruct", "video",
    )]


def test_cli_import_loads_no_scipy_or_worker_pool():
    assert fresh(f"import json, sys\nimport flowcomm.cli\nprint(json.dumps({LOADED_BARRED}))") == []


def test_allocate_and_load_load_no_scipy_or_worker_pool(tmp_path):
    scenario = tmp_path / "scenario.ini"
    scenario.write_text(SCENARIO_INI)
    config = experiment(tmp_path, 3, "[sweep]\nrho = 0.5\n")
    result = fresh(
        "import json, sys\nfrom flowcomm import cli\nresult = {}\n"
        "for command, config, out in zip(('allocate', 'load'), sys.argv[1::2], sys.argv[2::2]):\n"
        "    rc = cli.main([command, '--config', config, '--out', out])\n"
        f"    result[command] = [rc, {LOADED_BARRED}]\n"
        "print(json.dumps(result))",
        scenario, tmp_path / "alloc", config, tmp_path / "load",
    )
    assert result == {"allocate": [0, []], "load": [0, []]}
    assert (tmp_path / "alloc" / "allocation.csv").is_file()
    assert (tmp_path / "load" / "load.csv").is_file()


def test_flow_commands_on_one_cpu_load_no_scipy_or_worker_pool(tmp_path):
    """Flow on one thread starts no pool, and no numpy kernel imports SciPy, which
    itself imported concurrent.futures."""
    config = experiment(tmp_path, 3, "[sweep]\nrho = 0.5\n")
    commands = ["flow", "extract", "transmit", "reconstruct", "pipeline", "sweep"]
    result = fresh(
        "import json, sys\nfrom flowcomm import cli, pipeline\n"
        "pipeline.usable_cpus = lambda: 1\n"
        "rcs = [cli.main([c, '--config', sys.argv[1], '--out', sys.argv[2] + '/' + c]) for c in sys.argv[3:]]\n"
        f"print(json.dumps([rcs, {LOADED_BARRED}]))",
        config, tmp_path, *commands,
    )
    assert result == [[0] * len(commands), []]
    assert all((tmp_path / c / "manifest.json").is_file() for c in commands)


def test_pipeline_on_one_worker_loads_no_multiprocessing(tmp_path):
    """One process runs the videos in place: the process pool is never imported."""
    config = experiment(tmp_path, 3, "[sweep]\nrho = 0.5\n")
    result = fresh(
        "import json, sys\nfrom flowcomm import cli\n"
        "rc = cli.main(['pipeline', '--config', sys.argv[1], '--out', sys.argv[2], '--workers', '1'])\n"
        "print(json.dumps([rc, 'multiprocessing' in sys.modules]))",
        config, tmp_path / "out",
    )
    assert result == [0, False]
    assert (tmp_path / "out" / "summary.csv").is_file()


def test_scoring_loads_no_ndimage():
    result = fresh(
        "import json, sys\nimport numpy as np\nfrom flowcomm import metrics\n"
        "from flowcomm.video import Video\n"
        "rng = np.random.default_rng(0)\n"
        "source = Video(rng.integers(0, 256, (3, 32, 40, 3)).astype(np.uint8))\n"
        "frames = rng.integers(0, 256, (3, 32, 40, 3)).astype(np.uint8)\n"
        "reference = [metrics.ssim_stats(f) for f in source.frames]\n"
        "report = metrics.frame_losses(frames, source, reference)\n"
        "print(json.dumps([0.0 < report.mean_ssim < 1.0, 'scipy.ndimage' in sys.modules]))"
    )
    assert result == [True, False]


@pytest.mark.parametrize("command", ["pipeline", "flow", "extract", "transmit", "reconstruct", "sweep"])
def test_flow_commands_run_without_scipy_on_two_flow_threads(tmp_path, command):
    """With SciPy unimportable, each command that estimates flow runs it on two threads
    in a fresh interpreter and writes the bytes of a run in this process."""
    config = experiment(tmp_path, 6, "[sweep]\nrho = 0.0 0.5\nsnr_db = 10 30\n")
    result = fresh(
        "import json, sys\nsys.modules['scipy'] = None  # any import of SciPy raises ImportError\n"
        "from flowcomm import cli, pipeline\n"
        "pipeline.usable_cpus = lambda: 2\n"
        "estimate, threads = pipeline.estimate_flow, []\n"
        "def traced(*args):\n"
        "    threads.append(args[2])\n"
        "    return estimate(*args)\n"
        "pipeline.estimate_flow = traced\n"
        "rc = cli.main([sys.argv[1], '--config', sys.argv[2], '--out', sys.argv[3]])\n"
        "scipy = sorted(m for m, module in sys.modules.items() if m.split('.')[0] == 'scipy' and module)\n"
        "print(json.dumps([rc, threads, scipy]))",
        command, config, tmp_path / "fresh",
    )
    assert result == [0, [2], []]
    assert cli.main([command, "--config", config, "--out", str(tmp_path / "here")]) == 0
    written = sorted(
        os.path.relpath(os.path.join(root, name), tmp_path / "here")
        for root, _, names in os.walk(tmp_path / "here") for name in names
    )
    assert any(name.endswith(".csv") for name in written)
    _, mismatch, errors = filecmp.cmpfiles(tmp_path / "fresh", tmp_path / "here", written, shallow=False)
    assert (mismatch, errors) == ([], [])
