"""Seeded synthetic test videos: smooth textures, translating blocks."""
from __future__ import annotations

import numpy as np

from .metrics import gaussian_taps, separable_blur
from .video import Video


def smooth_texture(height: int, width: int, seed: int, blur: float = 3.0) -> np.ndarray:
    """Band-limited random RGB texture; smooth enough for gradient-based flow.

    Each channel is blurred as scipy.ndimage.gaussian_filter(mode="wrap") would.
    """
    rng = np.random.default_rng(seed)
    tex = rng.uniform(0, 255, size=(height, width, 3))
    taps = gaussian_taps(blur)
    reach = len(taps) - 1
    scratch = np.empty(3 * (height + reach) * (width + reach))
    for c in range(3):
        separable_blur(tex[:, :, c], taps, tex[:, :, c], scratch, "wrap")
    lo, hi = tex.min(), tex.max()
    tex = 30.0 + (tex - lo) * (225.0 - 30.0) / (hi - lo)
    return np.rint(tex).astype(np.uint8)


def static_video(height: int, width: int, n_frames: int, seed: int) -> Video:
    frame = smooth_texture(height, width, seed)
    return Video(np.stack([frame] * n_frames))


def block_motion_video(
    height: int,
    width: int,
    n_frames: int,
    blocks: list[tuple[int, int, int, int]],
    dx: int,
    dy: int,
    seed: int,
    bg_dx: int = 0,
    bg_dy: int = 0,
) -> tuple[Video, np.ndarray]:
    """Foreground blocks translating (dx, dy) px/frame over a background.

    blocks: (top, left, block_h, block_w) rectangles in the first frame.
    The background itself pans (bg_dx, bg_dy) px/frame when given, emulating
    camera motion. Returns the video and a (H, W) bool mask of first-frame
    block pixels.
    """
    background = smooth_texture(height, width, seed)
    sprite = smooth_texture(height, width, seed + 1, blur=1.5)
    mask0 = np.zeros((height, width), dtype=bool)
    for top, left, bh, bw in blocks:
        mask0[top : top + bh, left : left + bw] = True
    frames = []
    for t in range(n_frames):
        frame = np.roll(background, shift=(t * bg_dy, t * bg_dx), axis=(0, 1)).copy()
        shifted_mask = np.roll(mask0, shift=(t * dy, t * dx), axis=(0, 1))
        shifted_sprite = np.roll(sprite, shift=(t * dy, t * dx), axis=(0, 1))
        frame[shifted_mask] = shifted_sprite[shifted_mask]
        frames.append(frame)
    return Video(np.stack(frames)), mask0


def block_motion_ground_truth(
    mask0: np.ndarray, patch_h: int, patch_w: int
) -> np.ndarray:
    """Per-patch bool grid: True where the first-frame block mask touches."""
    h, w = mask0.shape
    rows = -(-h // patch_h)
    cols = -(-w // patch_w)
    gt = np.zeros((rows, cols), dtype=bool)
    for i in range(rows):
        for j in range(cols):
            if mask0[i * patch_h : (i + 1) * patch_h, j * patch_w : (j + 1) * patch_w].any():
                gt[i, j] = True
    return gt
