from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcomm.load import (
    COMPENSATION_RATIO,
    LoadParams,
    mask_load,
    numeric_load,
    total_load,
)

REFERENCE_CFG = dict(n_frames=8, height=224, width=224, patch_h=16, patch_w=16)


class TestNumericLoad:
    def test_first_frame_size(self):
        l_first, _ = numeric_load(LoadParams(**REFERENCE_CFG))
        assert l_first == 8 * 224 * 224 * 3 == 1_204_224

    def test_sr_at_rho_zero(self):
        _, l_sr = numeric_load(LoadParams(**REFERENCE_CFG, mask_ratio=0.0))
        assert l_sr == 7 * 8 * 224 * 224 * 2 == 5_619_712

    @pytest.mark.parametrize("bits", [1, 8, 16])
    def test_sr_counts_the_codecs_bits_per_flow_value(self, bits):
        l_first, l_sr = numeric_load(LoadParams(**REFERENCE_CFG, bits_per_symbol=bits))
        assert l_sr == 7 * bits * 224 * 224 * 2
        assert l_first == 8 * 224 * 224 * 3  # the first frame keeps its 8-bit color

    def test_sr_scales_with_keep_fraction(self):
        _, full = numeric_load(LoadParams(**REFERENCE_CFG, mask_ratio=0.0))
        _, half = numeric_load(LoadParams(**REFERENCE_CFG, mask_ratio=0.5))
        assert half == full / 2


class TestMaskLoad:
    def test_compensation_ratio(self):
        assert COMPENSATION_RATIO == Fraction(1, 8)

    def test_reference_configuration(self):
        assert mask_load(LoadParams(**REFERENCE_CFG)) == 8 * 196 == 1568

    def test_linear_in_frame_count(self):
        one = mask_load(LoadParams(**{**REFERENCE_CFG, "n_frames": 1}))
        assert one == 196
        assert mask_load(LoadParams(**REFERENCE_CFG)) == 8 * one


class TestTotalLoad:
    def test_no_compression(self):
        b = total_load(LoadParams(**REFERENCE_CFG, zip_ratio=0.0))
        assert b.l_com == b.l_first_frame + b.l_sr + b.l_b

    def test_half_compression(self):
        b = total_load(LoadParams(n_frames=2, height=16, width=16, patch_h=16, patch_w=16, zip_ratio=0.5))
        expected = Fraction(1, 2) * (b.l_first_frame + b.l_sr) + b.l_b
        assert b.l_com == expected

    def test_high_mask_limit(self):
        b = total_load(LoadParams(**REFERENCE_CFG, mask_ratio=0.999999, zip_ratio=0.0))
        assert b.l_com - (b.l_first_frame + b.l_b) == b.l_sr
        assert float(b.l_sr) < 10

    def test_worked_example(self):
        # l_n = 1000, l_b = 100, rho_zip = 0.5 -> l_com = 600
        l_n, l_b = Fraction(1000), Fraction(100)
        assert (1 - Fraction(1, 2)) * l_n + l_b == 600


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(0.0, 0.99),
        st.floats(0.0, 0.99),
        st.floats(0.0, 0.99),
        st.floats(0.0, 0.99),
    )
    def test_monotone_in_rho_and_zip(self, rho_a, rho_b, zip_a, zip_b):
        lo_rho, hi_rho = sorted((rho_a, rho_b))
        lo_zip, hi_zip = sorted((zip_a, zip_b))
        base = dict(n_frames=4, height=64, width=64, patch_h=16, patch_w=16)
        low = total_load(LoadParams(**base, mask_ratio=hi_rho, zip_ratio=hi_zip))
        high = total_load(LoadParams(**base, mask_ratio=lo_rho, zip_ratio=lo_zip))
        assert low.l_com <= high.l_com

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LoadParams(n_frames=0, height=16, width=16)
        with pytest.raises(ValueError):
            LoadParams(n_frames=2, height=16, width=16, mask_ratio=1.0)
        with pytest.raises(ValueError):
            LoadParams(n_frames=2, height=16, width=16, bits_per_symbol=0)
