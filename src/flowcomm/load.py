"""Transmission-load accounting for the first frame, flow patches, and mask bits.

Loads are carried as exact rationals (fractions.Fraction) so integer-valued
configurations compare exactly; callers convert with float().
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class LoadParams:
    n_frames: int                # T
    height: int                  # H, px
    width: int                   # W, px
    color_channels: int = 3      # C
    flow_channels: int = 2       # C'
    bit_depth: int = 8           # N_b
    patch_h: int = 16            # H'
    patch_w: int = 16            # W'
    color_depth: int = 8         # D, source color depth bits
    mask_ratio: float = 0.0      # rho
    zip_ratio: float = 0.0       # rho_zip

    def __post_init__(self):
        for name in ("n_frames", "height", "width", "color_channels", "flow_channels",
                     "bit_depth", "patch_h", "patch_w", "color_depth"):
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
    l_n: Fraction
    l_b: Fraction
    l_com: Fraction

    def __post_init__(self):
        if self.l_n != self.l_first_frame + self.l_sr:
            raise ValueError("l_n must equal l_first_frame + l_sr")
        if min(self.l_first_frame, self.l_sr, self.l_b, self.l_com) < 0:
            raise ValueError("loads cannot be negative")


def numeric_load(p: LoadParams) -> tuple[Fraction, Fraction]:
    """Bits for the first frame and the kept flow patches (ratio form).

    l_first = N_b * H * W * C;  l_sr = (1 - rho) * (T - 1) * N_b * H * W * C'.
    """
    l_first = Fraction(p.bit_depth * p.height * p.width * p.color_channels)
    l_sr = (
        (1 - Fraction(p.mask_ratio))
        * (p.n_frames - 1)
        * p.bit_depth
        * p.height
        * p.width
        * p.flow_channels
    )
    return l_first, l_sr


def compensation_ratio(p: LoadParams) -> Fraction:
    """rho_c = 1 / D."""
    return Fraction(1, p.color_depth)


def mask_load(p: LoadParams) -> Fraction:
    """Position-bitmap bits: rho_c * N_b * T * (H * W) / (H' * W')."""
    return (
        compensation_ratio(p)
        * p.bit_depth
        * p.n_frames
        * Fraction(p.height * p.width, p.patch_h * p.patch_w)
    )


def total_load(p: LoadParams) -> LoadBreakdown:
    """Full breakdown with l_com = (1 - rho_zip) * (l_first + l_sr) + l_b."""
    l_first, l_sr = numeric_load(p)
    l_b = mask_load(p)
    l_n = l_first + l_sr
    l_com = (1 - Fraction(p.zip_ratio)) * l_n + l_b
    return LoadBreakdown(l_first, l_sr, l_n, l_b, l_com)
