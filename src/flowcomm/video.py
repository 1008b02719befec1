"""Canonical video/flow tensors and bit-exact file I/O (PPM P6, .flo).

A flow field is a float64 (2, H, W) array: channel 0 = u (horizontal px), 1 = v (vertical px).
"""
from __future__ import annotations

import math
import os
import re
import stat
import struct
from dataclasses import dataclass

import numpy as np

FLO_MAGIC = b"PIEH"  # little-endian float32 202021.25
_PPM_SEPARATOR = re.compile(rb"(?:\s+|#[^\n]*\n)+")  # before each PPM header token
_PPM_NUMBER = re.compile(rb"\d+")


class FormatError(ValueError):
    """Raised for malformed PPM / .flo containers."""


@dataclass(frozen=True)
class Video:
    """Frame stack of shape (T, H, W, 3), uint8 samples."""

    frames: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frames)
        if f.ndim != 4 or f.shape[3] != 3:
            raise ValueError(f"expected (T, H, W, 3) frames, got shape {f.shape}")
        if f.shape[0] < 2:
            raise ValueError("insufficient frames: a video needs at least 2")
        if f.dtype != np.uint8:
            raise ValueError(f"frames must be uint8, got {f.dtype}")
        object.__setattr__(self, "frames", f)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def height(self) -> int:
        return self.frames.shape[1]

    @property
    def width(self) -> int:
        return self.frames.shape[2]


@dataclass(frozen=True)
class PatchGrid:
    """Non-overlapping patch layout; boundary patches are zero-padded to full size."""

    patch_h: int
    patch_w: int
    rows: int
    cols: int

    @classmethod
    def for_shape(cls, height: int, width: int, patch_h: int, patch_w: int) -> "PatchGrid":
        if patch_h > height or patch_w > width:
            raise ValueError(
                f"patch {patch_h}x{patch_w} exceeds field {height}x{width}"
            )
        if patch_h < 1 or patch_w < 1:
            raise ValueError("patch dimensions must be >= 1")
        return cls(patch_h, patch_w, -(-height // patch_h), -(-width // patch_w))

    @property
    def n_patches(self) -> int:
        return self.rows * self.cols

    def canvas(self, scratch: np.ndarray | None = None, *after) -> list[np.ndarray]:
        """A (2, rows * patch_h, cols * patch_w) flow canvas, its (rows, cols, 2, patch_h,
        patch_w) patch view, which writes through to it, and an array of each `after` shape.

        The canvas and then the `after` arrays are carved from `scratch` (see `carve`);
        the canvas's values are whatever the buffer held.
        """
        ph, pw = self.patch_h, self.patch_w
        canvas, *rest = carve(scratch, (2, self.rows * ph, self.cols * pw), *after)
        return [canvas, canvas.reshape(2, self.rows, ph, self.cols, pw).transpose(1, 3, 0, 2, 4), *rest]


def load_ppm(path: str | os.PathLike) -> np.ndarray:
    """Read one binary PPM (P6, maxval 255) into an (H, W, 3) uint8 array."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P6"):
        raise FormatError(f"{path}: not a P6 PPM")
    # header = magic, width, height, maxval, each token after whitespace or '#' comments
    pos, tokens = 2, []
    while len(tokens) < 3:
        m = _PPM_SEPARATOR.match(data, pos)
        m = m and _PPM_NUMBER.match(data, m.end())
        if not m:
            raise FormatError(f"{path}: malformed PPM header")
        tokens.append(int(m.group()))
        pos = m.end()
    width, height, maxval = tokens
    if width < 1 or height < 1:
        raise FormatError(f"{path}: empty {width}x{height} raster")
    if maxval != 255:
        raise FormatError(f"{path}: only maxval 255 supported, got {maxval}")
    if not data[pos : pos + 1].isspace():
        raise FormatError(f"{path}: malformed PPM header")
    pos += 1  # single whitespace byte terminating the header
    size = width * height * 3
    if len(data) - pos < size:
        raise FormatError(f"{path}: truncated raster")
    return np.frombuffer(data, np.uint8, size, pos).reshape(height, width, 3)


def save_ppm(frame: np.ndarray, path: str | os.PathLike) -> None:
    """Write an (H, W, 3) uint8 array as binary PPM P6."""
    frame = np.ascontiguousarray(frame, dtype=np.uint8)
    if frame.ndim != 3 or frame.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) frame, got {frame.shape}")
    h, w = frame.shape[:2]
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (w, h))
        fh.write(frame.tobytes())


def load_ppm_sequence(directory: str | os.PathLike) -> Video:
    """Load all *.ppm files in a directory (lexicographic order) as one video: each file is
    read into its row of one (T, H, W, 3) array, its bytes let go before the next is read."""
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"no such directory: {directory}")
    names = sorted(n for n in os.listdir(directory) if n.lower().endswith(".ppm"))
    if len(names) < 2:
        raise FormatError(f"insufficient frames: found {len(names)} PPM files in {directory}")
    for path in (os.path.join(directory, name) for name in names):  # all, before any is read
        if not os.path.isfile(path):  # a directory cannot be read, and a FIFO's open blocks
            raise FormatError(f"{path}: not a regular file")
    frames = None
    for t, name in enumerate(names):
        frame = load_ppm(os.path.join(directory, name))
        if frames is None:
            frames = np.empty((len(names), *frame.shape), np.uint8)
        elif frame.shape != frames.shape[1:]:
            raise FormatError(f"dimension mismatch: {name} is {frame.shape}, expected {frames.shape[1:]}")
        frames[t] = frame
        del frame  # a view of its file's bytes: free them before the next file is read
    return Video(frames)


def save_ppm_sequence(video: Video, directory: str | os.PathLike) -> list[str]:
    """Write each frame as frame_<t>.ppm, t zero-padded to at least 4 digits and to
    one width for the whole clip, so `load_ppm_sequence` reads the frames back in order."""
    os.makedirs(directory, exist_ok=True)
    digits = max(4, len(str(video.n_frames - 1)))
    paths = []
    for t in range(video.n_frames):
        p = os.path.join(directory, f"frame_{t:0{digits}d}.ppm")
        save_ppm(video.frames[t], p)
        paths.append(p)
    return paths


def read_flo(path: str | os.PathLike) -> np.ndarray:
    """Read a .flo file (magic 'PIEH', LE int32 width/height, interleaved float32 u,v).

    Returns a C-contiguous (2, H, W) float64 field; a non-finite value is a FormatError.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != FLO_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        header = fh.read(8)
        if len(header) != 8:
            raise FormatError(f"{path}: truncated header")
        width, height = struct.unpack("<ii", header)
        if width < 1 or height < 1:
            raise FormatError(f"{path}: empty {width}x{height} field")
        size = 8 * width * height
        # a header can declare more than memory holds: a regular file's size bounds it unread
        st = os.fstat(fh.fileno())
        if stat.S_ISREG(st.st_mode) and st.st_size - fh.tell() < size:
            raise FormatError(f"{path}: truncated payload")
        raw = fh.read(size)
    if len(raw) != size:
        raise FormatError(f"{path}: truncated payload")
    uv = np.frombuffer(raw, dtype="<f4").reshape(height, width, 2)
    if not np.isfinite(uv).all():
        raise FormatError(f"{path}: flow values must be finite")
    return np.ascontiguousarray(uv.transpose(2, 0, 1), dtype=np.float64)


def write_flo(flow: np.ndarray, path: str | os.PathLike) -> None:
    """Write a (2, H, W) field as .flo: u and v interleaved per pixel, float32."""
    _, height, width = flow.shape
    with open(path, "wb") as fh:
        fh.write(FLO_MAGIC)
        fh.write(struct.pack("<ii", width, height))
        fh.write(np.ascontiguousarray(flow.transpose(1, 2, 0), dtype="<f4").tobytes())


def carve(buffer: np.ndarray | None, *shapes) -> list[np.ndarray]:
    """Consecutive C-contiguous views of flat float64 `buffer`, one per shape, from its start;
    fresh arrays instead when `buffer` is None or too small to hold them all."""
    sizes = [math.prod(shape) for shape in shapes]
    if buffer is None or sum(sizes) > buffer.size:
        return [np.empty(shape) for shape in shapes]
    views, start = [], 0
    for shape, size in zip(shapes, sizes):
        views.append(buffer[start : start + size].reshape(shape))
        start += size
    return views


def partition_patches(flow: np.ndarray, grid: PatchGrid, scratch: np.ndarray | None = None) -> np.ndarray:
    """Split a (2, H, W) flow field into grid patches.

    Returns an (N, 2, patch_h, patch_w) array, patch i * cols + j at row-major
    index, channel 0 = u and 1 = v, zero-padded beyond the field border. The
    padded canvas and then the patches are carved from `scratch` (see
    `PatchGrid.canvas`), so once this returns, the canvas's place at the start
    of `scratch` is free.
    """
    _, height, width = flow.shape
    ph, pw = grid.patch_h, grid.patch_w
    if ph > height or pw > width:
        raise ValueError("patch larger than field")
    canvas, by_patch, patches = grid.canvas(scratch, (grid.n_patches, 2, ph, pw))
    canvas[:, :height, :width] = flow
    canvas[:, height:] = 0.0
    canvas[:, :height, width:] = 0.0
    np.copyto(patches.reshape(grid.rows, grid.cols, 2, ph, pw), by_patch)
    return patches
