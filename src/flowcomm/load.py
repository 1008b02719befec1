"""Transmission-load accounting for the first frame, flow patches, and mask bits.

Loads are carried as exact rationals (fractions.Fraction) so integer-valued
configurations compare exactly; callers convert with float().
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

COLOR_CHANNELS = 3  # C, first-frame color channels
FLOW_CHANNELS = 2   # C', flow components (u, v)
BIT_DEPTH = 8       # N_b, bits per transmitted first-frame and bitmap value
COLOR_DEPTH = 8     # D, source color depth bits
COMPENSATION_RATIO = Fraction(1, COLOR_DEPTH)  # rho_c = 1 / D


@dataclass(frozen=True)
class LoadParams:
    n_frames: int                # T
    height: int                  # H, px
    width: int                   # W, px
    patch_h: int = 16            # H'
    patch_w: int = 16            # W'
    mask_ratio: float = 0.0      # rho
    zip_ratio: float = 0.0       # rho_zip
    bits_per_symbol: int = 8     # bits per transmitted flow value, the codec's

    def __post_init__(self):
        for name in ("n_frames", "height", "width", "patch_h", "patch_w", "bits_per_symbol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.mask_ratio < 1.0:
            raise ValueError("mask_ratio must lie in [0, 1)")
        if not 0.0 <= self.zip_ratio < 1.0:
            raise ValueError("zip_ratio must lie in [0, 1)")


@dataclass(frozen=True)
class LoadBreakdown:
    l_first_frame: Fraction
    l_sr: Fraction
    l_b: Fraction
    l_com: Fraction

    def __post_init__(self):
        if min(self.l_first_frame, self.l_sr, self.l_b, self.l_com) < 0:
            raise ValueError("loads cannot be negative")


def numeric_load(p: LoadParams) -> tuple[Fraction, Fraction]:
    """Bits for the first frame and the kept flow patches (ratio form).

    l_first = N_b * H * W * C;  l_sr = (1 - rho) * (T - 1) * bits * H * W * C',
    with bits the codec's bits per symbol, one symbol per flow value.
    """
    l_first = Fraction(BIT_DEPTH * p.height * p.width * COLOR_CHANNELS)
    l_sr = (
        (1 - Fraction(p.mask_ratio))
        * (p.n_frames - 1)
        * p.bits_per_symbol
        * p.height
        * p.width
        * FLOW_CHANNELS
    )
    return l_first, l_sr


def mask_load(p: LoadParams) -> Fraction:
    """Position-bitmap bits: rho_c * N_b * T * (H * W) / (H' * W')."""
    return (
        COMPENSATION_RATIO
        * BIT_DEPTH
        * p.n_frames
        * Fraction(p.height * p.width, p.patch_h * p.patch_w)
    )


def total_load(p: LoadParams) -> LoadBreakdown:
    """Full breakdown with l_com = (1 - rho_zip) * (l_first + l_sr) + l_b."""
    l_first, l_sr = numeric_load(p)
    l_b = mask_load(p)
    l_com = (1 - Fraction(p.zip_ratio)) * (l_first + l_sr) + l_b
    return LoadBreakdown(l_first, l_sr, l_b, l_com)
