"""Property tests of the command line over generated experiments and allocation scenarios.

Every experiment, valid or not, exits 0 or 2 on every command that reads an
experiment config (1 would be a flowcomm bug). A run that exits 0 keeps round((1 - rho) N) patches in every flow frame, scores SSIM
in [-1, 1], reports finite, non-negative loads, a positive transmission time
and finite numbers but for the PSNR of a lossless video. Every scenario exits 2 and
writes nothing, or exits 0 with finite numbers and band fractions in (0, 1].
No command emits a RuntimeWarning: stderr holds at most the `error:` line.
A cell's rows and its video's selection blobs do not depend on what else is in the grid.
"""
import contextlib
import csv
import io
import math
import os
import tempfile
import warnings

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import read_selection
from flowcomm import cli, synth
from flowcomm import extractor as ex
from flowcomm.video import save_ppm_sequence

# Link SNRs from tiny to huge; 4000 dB gives no finite capacity.
SNR_DB = st.one_of(st.floats(-100.0, 300.0), st.sampled_from([-150.0, 3000.0, 4000.0]))

# Magnitudes from the smallest subnormal to 1e308, uniform in the exponent, plus the edges
# and the everyday range, where most scenarios are valid.
MAGNITUDE = st.one_of(
    st.floats(-323.0, 308.0).map(lambda e: 10.0**e),
    st.floats(5e-324, 1e308),
    st.floats(1.0, 1e7),
    st.sampled_from([5e-324, 1e-310, 1e-300, 1.0, 3.0, 1e300, 1e308]),
)

# [link] B: three times in four from the everyday range, else any magnitude, where the
# capacity or a cell's transmission time can leave the finite floats.
BANDWIDTH_HZ = st.one_of(*[st.floats(1e3, 1e9)] * 3, MAGNITUDE)


@st.composite
def experiments(draw):
    """(height, width, frames, patch h, patch w, pyramid levels, rho list, snr_db, B, mag_cap).

    Patches mostly leave the 3x3 grid the background model needs, and rarely
    tile the frame exactly; widths below 11 px fall under the SSIM window, and
    3 levels need 29 px for the 8 px coarsest level. The codec's magnitude cap is
    left at its default three times in four (None), else drawn from any magnitude.
    """
    height, width = draw(st.integers(11, 48)), draw(st.integers(6, 48))
    return (
        height,
        width,
        draw(st.integers(2, 4)),
        draw(st.integers(1, max(1, height // 3 + 1))),
        draw(st.integers(1, max(1, width // 3 + 1))),
        draw(st.integers(1, 3)),
        draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=3,
                      unique_by=lambda rho: f"{rho:g}")),
        draw(SNR_DB),
        draw(BANDWIDTH_HZ),
        draw(st.one_of(*[st.none()] * 3, MAGNITUDE)),
    )


def main(argv):
    """cli.main's exit code and stderr, checked for RuntimeWarnings, which pytest would capture."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(argv)
    runtime = [f"{w.filename}:{w.lineno}: {w.message}"
               for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not runtime, (argv[0], runtime)
    return rc, err


def run(command, config, out):
    rc, err = main([command, "--config", config, "--seed", "3", "--out", out])
    assert rc in (0, 2), err.getvalue()
    if rc:
        assert err.getvalue().startswith("error: "), err.getvalue()
    return rc


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(experiments())
# Decoded magnitudes reach the 1e300 cap, and their squared errors overflowed to an inf RMS.
@example((48, 48, 4, 16, 16, 2, [0.0], 10.0, 1e6, 1e300))
def test_cli_exits_0_or_2_and_keeps_its_contracts(experiment):
    height, width, n_frames, patch_h, patch_w, levels, rhos, snr_db, bandwidth_hz, mag_cap = experiment
    video, _ = synth.block_motion_video(
        height, width, n_frames, [(height // 4, width // 4, height // 3, width // 3)],
        dx=2, dy=1, seed=height * width,
    )
    with tempfile.TemporaryDirectory() as root:
        clip = os.path.join(root, "clip")
        save_ppm_sequence(video, clip)
        config = os.path.join(root, "c.ini")
        with open(config, "w") as fh:
            fh.write(
                f"[input]\nvideos = {clip}\n[patches]\nheight = {patch_h}\nwidth = {patch_w}\n"
                f"[flow]\nlevels = {levels}\n"
                f"[sweep]\nrho = {' '.join(map(repr, rhos))}\nsnr_db = {snr_db!r}\n"
                f"[link]\nB = {bandwidth_hz!r}\n"
            )
            if mag_cap is not None:
                fh.write(f"[codec]\nmag_cap = {mag_cap!r}\n")
        n_patches = math.ceil(height / patch_h) * math.ceil(width / patch_w)

        extracted = os.path.join(root, "extract")
        if run("extract", config, extracted) == 0:
            for rho in rhos:
                with open(os.path.join(extracted, "clip", f"selection_rho{rho:g}.bin"), "rb") as fh:
                    sel = read_selection(fh.read())
                per_frame = sel.xi.reshape(n_frames - 1, -1).sum(axis=1)
                assert per_frame.tolist() == [ex.selection_count(rho, n_patches)] * (n_frames - 1)

        for command in ("flow", "load", "reconstruct"):
            run(command, config, os.path.join(root, command))

        transmitted = os.path.join(root, "transmit")
        if run("transmit", config, transmitted) == 0:
            for row in read_rows(os.path.join(transmitted, "transmit.csv")):
                for key, value in row.items():
                    if key != "video_id":
                        assert math.isfinite(float(value)), (key, row)

        piped = os.path.join(root, "pipeline")
        if run("pipeline", config, piped) == 0:
            for row in read_rows(os.path.join(piped, "frames.csv")):
                assert -1.0 <= float(row["ssim"]) <= 1.0, row
            for row in read_rows(os.path.join(piped, "summary.csv")):
                expected = (n_frames - 1) * ex.selection_count(float(row["rho"]), n_patches)
                assert int(row["n_selected"]) == expected
                for key in ("l_first", "l_sr", "l_b", "l_com"):
                    load = float(row[key])
                    assert math.isfinite(load) and load >= 0.0, (key, load)
                # Every number is finite but PSNR, which is inf exactly for a lossless video.
                for key, value in row.items():
                    if key not in ("video_id", "mean_psnr"):
                        assert math.isfinite(float(value)), (key, row)
                psnr, mse = float(row["mean_psnr"]), float(row["mean_mse"])
                assert psnr == math.inf if mse == 0.0 else math.isfinite(psnr), row
                assert float(row["tx_seconds"]) > 0.0, row


@st.composite
def grid_pairs(draw):
    """(frames, clip sizes, first grid, second grid); a grid is its (rho list, snr_db list).

    The first grid sweeps every clip but clip 0. The second puts clip 0 in front,
    adds a rho and reorders the SNRs, so every cell of the first is one of its own.
    """
    n_frames = draw(st.integers(2, 4))
    sizes = draw(st.lists(st.tuples(st.integers(24, 40), st.integers(24, 40)), min_size=2, max_size=3))
    rhos = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=2, max_size=4,
                         unique_by=lambda rho: f"{rho:g}"))
    snrs = draw(st.lists(st.floats(-10.0, 40.0), min_size=1, max_size=3, unique=True))
    return n_frames, sizes, (rhos[1:], snrs), (draw(st.permutations(rhos)), draw(st.permutations(snrs)))


@settings(max_examples=20, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(grid_pairs())
def test_a_cell_gives_the_same_outputs_whatever_else_is_in_the_grid(pair):
    n_frames, sizes, *grids = pair
    with tempfile.TemporaryDirectory() as root:
        clips = []
        for k, (height, width) in enumerate(sizes):
            video, _ = synth.block_motion_video(
                height, width, n_frames, [(height // 4, width // 4, height // 3, width // 3)],
                dx=2, dy=1, seed=k, bg_dx=1, bg_dy=0,
            )
            clips.append(os.path.join(root, f"v{k}"))
            save_ppm_sequence(video, clips[-1])
        first, second = (os.path.join(root, f"grid{g}") for g in range(2))
        for out, videos, (rhos, snrs) in zip((first, second), (clips[1:], clips), grids):
            config = out + ".ini"
            with open(config, "w") as fh:
                fh.write(
                    f"[input]\nvideos = {' '.join(videos)}\n[patches]\nheight = 8\nwidth = 8\n"
                    f"[flow]\nlevels = 1\n[sweep]\nrho = {' '.join(map(repr, rhos))}\n"
                    f"snr_db = {' '.join(map(repr, snrs))}\n"
                )
            for command in ("pipeline", "transmit", "reconstruct", "extract"):
                assert run(command, config, out) == 0
        for name in ("summary.csv", "frames.csv", "transmit.csv", "reconstruct.csv"):
            with open(os.path.join(first, name)) as fh, open(os.path.join(second, name)) as wider:
                shared, rows = fh.readlines(), set(wider.readlines())
            assert [row for row in shared if row not in rows] == [], name
        for clip in clips[1:]:
            vid = os.path.basename(clip)
            for blob in os.listdir(os.path.join(first, vid)):
                with open(os.path.join(first, vid, blob), "rb") as fh, \
                        open(os.path.join(second, vid, blob), "rb") as wider:
                    assert fh.read() == wider.read(), (vid, blob)


@st.composite
def scenarios(draw):
    """The text of an `allocate` scenario: 2 or 3 UEs, each with an snr or a distance."""
    lines = [f"[scenario]\nbandwidth_hz = {draw(MAGNITUDE)!r}\nseed = 3"]
    for k in range(draw(st.integers(2, 3))):
        lines.append(f"[ue.{k + 1}]\nload_bits = {draw(MAGNITUDE)!r}\nrho = 0.5")
        key = draw(st.sampled_from(["snr", "distance"]))
        lines.append(f"{key} = {draw(MAGNITUDE)!r}")
    lines.append("[channel]")
    for key in ("f_c", "alpha", "P", "sigma2"):
        if draw(st.booleans()):
            lines.append(f"{key} = {draw(MAGNITUDE)!r}")
    lines.append("[ddpg]\nepisodes = 2\nepisode_len = 5\nbatch_size = 4")
    for key in ("actor_lr", "critic_lr", "noise_scale"):
        if draw(st.booleans()):
            lines.append(f"{key} = {draw(MAGNITUDE)!r}")
    return "\n".join(lines) + "\n"


# Each UE's equal share is finite, but UE 0's oracle share of the band underflowed to 0
# and wrote fraction 0.0, b_hz 0.0 and t_seconds inf.
UNDERFLOW = (
    "[scenario]\nbandwidth_hz = 1e-290\nseed = 3\n"
    "[ue.1]\nload_bits = 1e-300\nrho = 0.5\nsnr = 3.0\n"
    "[ue.2]\nload_bits = 1e10\nrho = 0.5\nsnr = 3.0\n"
    "[ddpg]\nepisodes = 2\nepisode_len = 5\nbatch_size = 4\n"
)


# Training diverges to NaN actions, which passed the environment's action check and were
# written as nan rewards, t_max and allocations.
DIVERGING = (
    "[scenario]\nbandwidth_hz = 4e6\nseed = 3\n"
    "[ue.1]\nload_bits = 4e6\nsnr = 3.0\nrho = 0.9\n"
    "[ue.2]\nload_bits = 2e6\nsnr = 3.0\nrho = 0.5\n"
    "[ddpg]\nepisodes = 3\nepisode_len = 10\nbatch_size = 8\n"
)


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
@example(UNDERFLOW)
@example(DIVERGING + "actor_lr = 1e300\n")
@example(DIVERGING + "critic_lr = 1e300\n")
@example(DIVERGING + "noise_scale = 1e308\nnoise_floor = 1e308\nnoise_decay = 1.0\n")
# Finite training that starves UE 1 to the softmax floor: its 1.8e296 bits took inf s.
@example(
    "[scenario]\nbandwidth_hz = 1.0\nseed = 3\n"
    "[ue.1]\nload_bits = 1.797693134860518e+296\nrho = 0.5\nsnr = 1.0\n"
    "[ue.2]\nload_bits = 1.0\nrho = 0.5\nsnr = 1.0\n"
    "[ddpg]\nepisodes = 2\nepisode_len = 5\nbatch_size = 4\nactor_lr = 100000.0\n"
)
def test_allocate_exits_0_or_2_and_writes_finite_numbers(scenario):
    with tempfile.TemporaryDirectory() as root:
        config, out = os.path.join(root, "s.ini"), os.path.join(root, "out")
        with open(config, "w") as fh:
            fh.write(scenario)
        rc, err = main(["allocate", "--config", config, "--out", out])
        assert rc in (0, 2), err.getvalue()
        if rc:
            assert err.getvalue().startswith("error: "), err.getvalue()
            assert not os.path.exists(out)
            return
        allocation = read_rows(os.path.join(out, "allocation.csv"))
        curve = read_rows(os.path.join(out, "learning_curve.csv"))
        for row in allocation:
            assert 0.0 < float(row["fraction"]) <= 1.0, row
        for row in allocation + curve:
            for key, value in row.items():
                if key != "method":
                    assert math.isfinite(float(value)), row
