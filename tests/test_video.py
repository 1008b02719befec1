import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcomm import synth
from flowcomm import video as video_module
from flowcomm.video import (
    FLO_MAGIC,
    FormatError,
    PatchGrid,
    Video,
    load_ppm,
    load_ppm_sequence,
    partition_patches,
    read_flo,
    save_ppm,
    save_ppm_sequence,
    write_flo,
)


class TestPpm:
    def test_all_zero_pair(self, tmp_path):
        zero = np.zeros((4, 4, 3), dtype=np.uint8)
        save_ppm(zero, tmp_path / "a.ppm")
        save_ppm(zero, tmp_path / "b.ppm")
        video = load_ppm_sequence(tmp_path)
        assert video.n_frames == 2
        assert not video.frames.any()

    def test_single_file_rejected(self, tmp_path):
        save_ppm(np.zeros((4, 4, 3), dtype=np.uint8), tmp_path / "a.ppm")
        with pytest.raises(FormatError, match="insufficient frames"):
            load_ppm_sequence(tmp_path)

    def test_roundtrip_bit_exact(self, tmp_path):
        video = synth.static_video(16, 16, 2, seed=0)
        frames = np.random.default_rng(1).integers(0, 256, size=(8, 16, 16, 3)).astype(np.uint8)
        video = Video(frames)
        save_ppm_sequence(video, tmp_path / "seq")
        again = load_ppm_sequence(tmp_path / "seq")
        assert np.array_equal(again.frames, video.frames)

    def test_load_holds_the_clip_once(self, tmp_path):
        # Each file's bytes are copied into one preallocated array and let go before the next
        # file is read; a list of frames stacked at the end held the clip twice. The frames
        # are large next to a file object's read buffer.
        frames = np.random.default_rng(2).integers(0, 256, size=(8, 64, 128, 3)).astype(np.uint8)
        save_ppm_sequence(Video(frames), tmp_path / "seq")
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            video = load_ppm_sequence(tmp_path / "seq")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert np.array_equal(video.frames, frames)
        assert peak < frames.nbytes + 2 * frames[0].nbytes, peak / frames[0].nbytes

    @pytest.mark.parametrize("n_frames, first", [(10000, "frame_0000.ppm"), (10001, "frame_00000.ppm")])
    def test_roundtrip_keeps_order_past_four_digits(self, tmp_path, n_frames, first):
        """Names keep 4 digits up to 10000 frames; past that every name gets the last
        frame's digits, or frame_10000 would sort between frame_1000 and frame_1001."""
        t = np.arange(n_frames)
        frames = np.stack([t % 256, t // 256, t * 0], axis=-1).astype(np.uint8)
        video = Video(frames.reshape(n_frames, 1, 1, 3))
        paths = save_ppm_sequence(video, tmp_path / "seq")
        assert os.path.basename(paths[0]) == first
        assert np.array_equal(load_ppm_sequence(tmp_path / "seq").frames, video.frames)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_ppm_sequence(tmp_path / "nowhere")

    @pytest.mark.parametrize("make", [os.mkdir, os.mkfifo], ids=["directory", "fifo"])
    def test_entry_that_is_not_a_regular_file_rejected(self, tmp_path, monkeypatch, make):
        """Named before any file is read: a directory's read fails, and a FIFO's open blocks."""
        save_ppm_sequence(synth.static_video(8, 8, 2, seed=0), tmp_path)
        make(tmp_path / "zzz.ppm")

        def unread(path):
            raise AssertionError(f"{path} was read")

        monkeypatch.setattr(video_module, "load_ppm", unread)
        with pytest.raises(FormatError, match=rf"^{tmp_path / 'zzz.ppm'}: not a regular file$"):
            load_ppm_sequence(tmp_path)

    def test_symlinks_to_frames_load(self, tmp_path):
        video = synth.static_video(8, 8, 2, seed=0)
        (tmp_path / "clip").mkdir()
        for path in save_ppm_sequence(video, tmp_path / "frames"):
            (tmp_path / "clip" / os.path.basename(path)).symlink_to(path)
        assert np.array_equal(load_ppm_sequence(tmp_path / "clip").frames, video.frames)

    def test_dimension_mismatch(self, tmp_path):
        self.check_dimension_mismatch(tmp_path, 5)

    def test_dimension_mismatch_of_a_one_row_frame(self, tmp_path):
        self.check_dimension_mismatch(tmp_path, 1)  # would broadcast into its row of the clip

    @staticmethod
    def check_dimension_mismatch(tmp_path, height):
        for name, h in (("a", 4), ("b", height), ("c", 4)):
            save_ppm(np.zeros((h, 4, 3), dtype=np.uint8), tmp_path / f"{name}.ppm")
        message = rf"^dimension mismatch: b\.ppm is \({height}, 4, 3\), expected \(4, 4, 3\)$"
        with pytest.raises(FormatError, match=message):
            load_ppm_sequence(tmp_path)

    @pytest.mark.parametrize("header", [b"P6\n0 4\n255\n", b"P6\n4 0\n255\n"])
    def test_empty_raster_rejected(self, tmp_path, header):
        (tmp_path / "a.ppm").write_bytes(header)
        with pytest.raises(FormatError, match="empty"):
            load_ppm(tmp_path / "a.ppm")

    def test_non_p6_header(self, tmp_path):
        (tmp_path / "a.ppm").write_bytes(b"P3\n4 4\n255\n" + b"0 " * 48)
        with pytest.raises(FormatError):
            load_ppm(tmp_path / "a.ppm")

    def test_comment_in_header(self, tmp_path):
        raster = bytes(range(4 * 2 * 3))
        (tmp_path / "a.ppm").write_bytes(b"P6\n# made by hand\n4 2\n255\n" + raster)
        frame = load_ppm(tmp_path / "a.ppm")
        assert frame.shape == (2, 4, 3)
        assert frame.tobytes() == raster

    @pytest.mark.parametrize(
        "header",
        [
            b"P61 1\n255\n",  # no whitespace after the magic
            b"P6\n1 1\n255#\n",  # a comment, not one whitespace byte, after maxval
        ],
        ids=["magic_run_on", "comment_after_maxval"],
    )
    def test_malformed_header_rejected(self, tmp_path, header):
        (tmp_path / "a.ppm").write_bytes(header + bytes([1, 2, 3]))
        with pytest.raises(FormatError, match="malformed PPM header"):
            load_ppm(tmp_path / "a.ppm")

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_roundtrip_property(self, tmp_path_factory, h, w, seed):
        frame = np.random.default_rng(seed).integers(0, 256, size=(h, w, 3)).astype(np.uint8)
        path = tmp_path_factory.mktemp("ppm") / "f.ppm"
        save_ppm(frame, path)
        assert np.array_equal(load_ppm(path), frame)


class TestFlo:
    def test_zero_roundtrip(self, tmp_path):
        flow = np.zeros((2, 2, 2))
        write_flo(flow, tmp_path / "z.flo")
        back = read_flo(tmp_path / "z.flo")
        assert np.array_equal(back, flow)

    def test_representable_values_exact(self, tmp_path):
        flow = np.stack([np.full((3, 5), 1.5), np.full((3, 5), -2.25)])
        write_flo(flow, tmp_path / "r.flo")
        back = read_flo(tmp_path / "r.flo")
        assert back.shape == (2, 3, 5) and back.dtype == np.float64 and back.flags.c_contiguous
        assert np.array_equal(back, flow)

    def test_random_field_seed7(self, tmp_path):
        rng = np.random.default_rng(7)
        # values pre-quantized to float32 so the 32-bit container is exact
        u = rng.standard_normal((16, 16)).astype(np.float32).astype(np.float64)
        v = rng.standard_normal((16, 16)).astype(np.float32).astype(np.float64)
        write_flo(np.stack([u, v]), tmp_path / "x.flo")
        back = read_flo(tmp_path / "x.flo")
        assert np.abs(back[0] - u).max() == 0.0
        assert np.abs(back[1] - v).max() == 0.0

    def test_bad_magic(self, tmp_path):
        (tmp_path / "bad.flo").write_bytes(b"XXXX" + b"\0" * 16)
        with pytest.raises(FormatError, match="magic"):
            read_flo(tmp_path / "bad.flo")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, tmp_path, bad):
        flow = np.zeros((2, 3, 4))
        flow[1, 2, 3] = bad
        write_flo(flow, tmp_path / "n.flo")
        with pytest.raises(FormatError, match="finite"):
            read_flo(tmp_path / "n.flo")

    def test_truncated(self, tmp_path):
        write_flo(np.zeros((2, 4, 4)), tmp_path / "t.flo")
        blob = (tmp_path / "t.flo").read_bytes()
        (tmp_path / "t.flo").write_bytes(blob[:-7])
        with pytest.raises(FormatError, match="truncated"):
            read_flo(tmp_path / "t.flo")

    @pytest.mark.parametrize("side", [2**20, 2**30])
    def test_header_declaring_more_than_the_file_holds_is_truncated(self, tmp_path, side):
        """Rejected before any read: 2**20 squared would not fit in memory, 2**30 squared
        not in an index-sized integer."""
        path = tmp_path / "huge.flo"
        path.write_bytes(FLO_MAGIC + struct.pack("<ii", side, side) + b"\0" * 16)
        with pytest.raises(FormatError, match="truncated payload"):
            read_flo(path)

    def test_reads_from_a_pipe(self, tmp_path):
        """A pipe has no size to check the header against: its payload is read, then counted."""
        flow = np.stack([np.full((3, 5), 1.5), np.full((3, 5), -2.25)])
        write_flo(flow, tmp_path / "f.flo")
        os.mkfifo(tmp_path / "pipe")
        blob = (tmp_path / "f.flo").read_bytes()
        writer = threading.Thread(target=(tmp_path / "pipe").write_bytes, args=(blob,))
        writer.start()
        try:
            assert np.array_equal(read_flo(tmp_path / "pipe"), flow)
        finally:
            writer.join()

    @pytest.mark.parametrize("width, height, payload", [(-2, 3, b""), (-1, -1, b"\0" * 8), (0, 0, b"")])
    def test_header_dimensions_below_one_rejected(self, tmp_path, width, height, payload):
        path = tmp_path / "e.flo"
        path.write_bytes(FLO_MAGIC + struct.pack("<ii", width, height) + payload)
        with pytest.raises(FormatError, match=f"empty {width}x{height} field"):
            read_flo(path)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 10), st.integers(0, 2**32 - 1))
    def test_roundtrip_property(self, tmp_path_factory, h, w, seed):
        rng = np.random.default_rng(seed)
        u = (rng.uniform(-50, 50, (h, w))).astype(np.float32).astype(np.float64)
        v = (rng.uniform(-50, 50, (h, w))).astype(np.float32).astype(np.float64)
        path = tmp_path_factory.mktemp("flo") / "f.flo"
        write_flo(np.stack([u, v]), path)
        back = read_flo(path)
        assert np.array_equal(back[0], u) and np.array_equal(back[1], v)


class TestPartition:
    def test_identity_partition(self):
        rng = np.random.default_rng(0)
        flow = np.stack([rng.standard_normal((16, 16)), rng.standard_normal((16, 16))])
        grid = PatchGrid.for_shape(16, 16, 16, 16)
        patches = partition_patches(flow, grid)
        assert patches.shape == (1, 2, 16, 16)
        assert np.array_equal(patches[0, 0], flow[0]) and np.array_equal(patches[0, 1], flow[1])

    def test_224_grid_count(self):
        flow = np.zeros((2, 224, 224))
        grid = PatchGrid.for_shape(224, 224, 16, 16)
        assert grid.rows == grid.cols == 14
        assert partition_patches(flow, grid).shape == (196, 2, 16, 16)

    def test_boundary_padding(self):
        rng = np.random.default_rng(1)
        flow = np.stack([rng.standard_normal((20, 20)), rng.standard_normal((20, 20))])
        grid = PatchGrid.for_shape(20, 20, 16, 16)
        patches = partition_patches(flow, grid)
        assert patches.shape == (4, 2, 16, 16)
        # bottom-right patch (row-major index 1 * 2 + 1) holds a 4x4 valid corner, zero elsewhere
        corner = patches[3]
        assert np.array_equal(corner[0, :4, :4], flow[0, 16:, 16:])
        assert not corner[0, 4:, :].any() and not corner[0, :, 4:].any()

    def test_canvas_patch_view_writes_the_canvas(self):
        grid = PatchGrid.for_shape(30, 41, 16, 8)
        scratch = np.zeros(2 * 32 * 48 + 7)
        canvas, patches, after = grid.canvas(scratch, (7,))
        assert canvas.shape == (2, 32, 48) and patches.shape == (2, 6, 2, 16, 8)
        # carved in order from the buffer's start: the canvas, then each shape after it
        assert np.shares_memory(canvas, scratch[: canvas.size]) and canvas.base is scratch
        assert np.shares_memory(after, scratch[canvas.size :])
        patches[1, 4] = np.arange(2 * 16 * 8).reshape(2, 16, 8)
        assert np.array_equal(canvas[:, 16:32, 32:40], patches[1, 4])
        canvas[:, 16:32, 32:40] = 0.0
        assert not canvas.any()
        # without a buffer, or with one too small, the arrays are fresh
        for small in (None, scratch[:-1]):
            fresh = grid.canvas(small, (7,))
            assert [a.shape for a in fresh] == [(2, 32, 48), (2, 6, 2, 16, 8), (7,)]
            assert not any(np.shares_memory(a, scratch) for a in fresh)

    def test_oversized_patch_rejected(self):
        with pytest.raises(ValueError):
            PatchGrid.for_shape(8, 8, 16, 16)

    def test_reassemble_identity(self):
        rng = np.random.default_rng(2)
        flow = np.stack([rng.standard_normal((30, 41)), rng.standard_normal((30, 41))])
        grid = PatchGrid.for_shape(30, 41, 16, 16)
        # place every patch back on the padded canvas, then crop the padding
        canvas = np.zeros((2, grid.rows * 16, grid.cols * 16))
        for n, patch in enumerate(partition_patches(flow, grid)):
            i, j = divmod(n, grid.cols)
            canvas[:, i * 16 : (i + 1) * 16, j * 16 : (j + 1) * 16] = patch
        assert np.array_equal(canvas[0, :30, :41], flow[0])
        assert np.array_equal(canvas[1, :30, :41], flow[1])
        assert not canvas[:, 30:, :].any() and not canvas[:, :, 41:].any()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 40), st.integers(1, 40))
    def test_patch_count_property(self, h, w, ph, pw):
        if ph > h or pw > w:
            with pytest.raises(ValueError):
                PatchGrid.for_shape(h, w, ph, pw)
            return
        grid = PatchGrid.for_shape(h, w, ph, pw)
        assert grid.n_patches == -(-h // ph) * -(-w // pw)
