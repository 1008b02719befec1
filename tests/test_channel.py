import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_flow_decode
from flowcomm import channel as ch


def unit_gain_link(**overrides):
    """Link whose large-scale gain is exactly 1 (alpha handles any d * f_c)."""
    params = dict(
        distance=ch.SPEED_OF_LIGHT / (4.0 * math.pi),
        carrier_hz=1.0,
        path_loss_exp=1.0,
        tx_power=1.0,
        noise_power=1.0,
        bandwidth_hz=1.0,
    )
    params.update(overrides)
    return ch.LinkParams(**params)


class TestSampleChannel:
    def test_snr_and_capacity_follow_the_draw(self):
        link = unit_gain_link(tx_power=2.0, noise_power=0.5, bandwidth_hz=3.0)
        real = ch.sample_channel(link, seed=0)
        assert real.snr == pytest.approx(2.0 * abs(real.h) ** 2 / 0.5, rel=1e-12)
        assert real.capacity_per_s == pytest.approx(3.0 * math.log2(1.0 + real.snr), rel=1e-12)

    def test_capacity_exact_for_snr_one(self):
        assert ch.capacity_per_s(1.0, 1.0) == 1.0

    def test_same_seed_same_draw(self):
        link = unit_gain_link()
        a = ch.sample_channel(link, seed=123)
        b = ch.sample_channel(link, seed=123)
        assert a.h == b.h and a.snr == b.snr

    def test_rayleigh_second_moment(self):
        link = unit_gain_link()
        h2 = [abs(ch.sample_channel(link, seed=s).h) ** 2 for s in range(20_000)]
        assert 0.98 <= np.mean(h2) <= 1.02

    def test_capacity_monotone(self):
        assert ch.capacity_per_s(2.0, 1.0) > ch.capacity_per_s(1.0, 1.0)
        assert ch.capacity_per_s(1.0, 3.0) > ch.capacity_per_s(1.0, 1.0)


class TestFlowCodec:
    CP = ch.CodecParams(bits_per_symbol=8, mag_cap=32.0)

    def test_zero_flow_mapping(self):
        payload = np.zeros((1, 2, 2, 2))
        symbols = ch.flow_encode(payload, self.CP)
        mags = (symbols[0::2] + 1.0) / 2.0
        angs = (symbols[1::2] + 1.0) / 2.0
        assert np.all(mags == 0.0)
        assert np.allclose(angs, 0.5, atol=1 / 255)

    def test_cap_boundary(self):
        payload = np.zeros((1, 2, 1, 1))
        payload[0, 0, 0, 0] = 32.0  # u = cap, v = 0
        symbols = ch.flow_encode(payload, self.CP)
        assert (symbols[0] + 1.0) / 2.0 == pytest.approx(1.0)
        assert (symbols[1] + 1.0) / 2.0 == pytest.approx(0.5, abs=1 / 255)

    def test_roundtrip_quantizer_bound(self):
        rng = np.random.default_rng(2)
        payload = rng.uniform(-20, 20, size=(6, 2, 8, 8))
        decoded = ch.flow_decode(ch.flow_encode(payload, self.CP), self.CP, 8, 8)
        mag_in = np.hypot(payload[:, 0], payload[:, 1])
        mag_out = np.hypot(decoded[:, 0], decoded[:, 1])
        assert np.abs(mag_in - mag_out).max() <= 32.0 / 2**8
        ang_in = np.arctan2(payload[:, 1], payload[:, 0])
        ang_out = np.arctan2(decoded[:, 1], decoded[:, 0])
        ang_err = np.abs(np.angle(np.exp(1j * (ang_in - ang_out))))
        assert ang_err.max() <= 2 * math.pi / 2**8

    def test_rms_error_bound(self):
        rng = np.random.default_rng(3)
        payload = rng.uniform(-22, 22, size=(20, 2, 8, 8))  # inside cap range
        decoded = ch.flow_decode(ch.flow_encode(payload, self.CP), self.CP, 8, 8)
        mag_in = np.hypot(payload[:, 0], payload[:, 1])
        mag_out = np.hypot(decoded[:, 0], decoded[:, 1])
        rms = float(np.sqrt(np.mean((mag_in - mag_out) ** 2)))
        assert rms < 32.0 / 2**7

    def test_malformed_length(self):
        with pytest.raises(ValueError, match="malformed"):
            ch.flow_decode(np.zeros(7), self.CP, 2, 2)

    def test_error_monotone_in_bits(self):
        rng = np.random.default_rng(4)
        payload = rng.uniform(-20, 20, size=(10, 2, 8, 8))
        sigma2 = 1e-4
        errs = []
        for bits in (2, 4, 6, 8, 10, 12):
            cp = ch.CodecParams(bits_per_symbol=bits, mag_cap=32.0)
            sym = ch.flow_encode(payload, cp)
            recv = ch.transmit_analog(sym, sigma2, seed=5)
            dec = ch.flow_decode(recv, cp, 8, 8)
            errs.append(float(np.sqrt(np.mean((dec - payload) ** 2))))
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-6


class TestPowerNormalize:
    def test_unit_power(self):
        v = np.array([3.0, -4.0, 1.0])
        out = ch.power_normalize(v, ch.CodecParams(gamma=1.0), p_ue=1.0)
        assert np.vdot(out, out).real == pytest.approx(1.0, rel=1e-12)

    def test_scale_invariance(self):
        v = np.array([0.5, 2.0, -1.0, 0.25])
        cp = ch.CodecParams(gamma=1.0)
        a = ch.power_normalize(v, cp, 1.0)
        b = ch.power_normalize(10.0 * v, cp, 1.0)
        assert np.allclose(a, b, rtol=1e-12)

    def test_gamma_four(self):
        v = np.array([1.0, 1.0])
        out = ch.power_normalize(v, ch.CodecParams(gamma=4.0), p_ue=1.0)
        assert np.vdot(out, out).real == pytest.approx(4.0, rel=1e-9)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            ch.power_normalize(np.zeros(4), ch.CodecParams(), 1.0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 64), st.integers(0, 2**31 - 1), st.floats(0.1, 10.0), st.floats(0.1, 10.0))
    def test_power_property(self, n, seed, gamma, p_ue):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(n)
        if not v.any():
            return
        out = ch.power_normalize(v, ch.CodecParams(gamma=gamma), p_ue)
        assert np.vdot(out, out).real == pytest.approx(gamma * p_ue, rel=1e-9)

    def test_direction_preserved(self):
        v = np.array([1.0, 2.0, 2.0])
        out = ch.power_normalize(v, ch.CodecParams(gamma=1.0), 1.0)
        cos = float(v @ out / (np.linalg.norm(v) * np.linalg.norm(out)))
        assert cos == pytest.approx(1.0, rel=1e-12)


class TestTransmit:
    def test_noiseless_identity(self):
        x = np.linspace(-1, 1, 64)
        y = ch.transmit_analog(x, 0.0, seed=6)
        assert y.dtype == np.float64
        assert np.array_equal(y, x)

    def test_noise_variance(self):
        # The real leg carries the in-phase half of CN(0, sigma2).
        x = np.zeros(100_000)
        sigma2 = 0.01
        y = ch.transmit_analog(x, sigma2, seed=7)
        assert float(np.mean(y)) == pytest.approx(0.0, abs=5 * math.sqrt(sigma2 / 2 / x.size))
        assert float(np.mean(y**2)) == pytest.approx(sigma2 / 2, rel=0.05)

    def test_deterministic(self):
        x = np.ones(32)
        a = ch.transmit_analog(x, 0.1, seed=8)
        b = ch.transmit_analog(x, 0.1, seed=8)
        assert np.array_equal(a, b)

    def test_noiseless_transmit_equals_plain_decode(self):
        rng = np.random.default_rng(10)
        payload = rng.uniform(-10, 10, size=(4, 2, 4, 4))
        cp = ch.CodecParams(bits_per_symbol=8)
        sym = ch.flow_encode(payload, cp)
        via_channel = ch.flow_decode(ch.transmit_analog(sym, 0.0, seed=11), cp, 4, 4)
        plain = ch.flow_decode(sym, cp, 4, 4)
        assert np.array_equal(via_channel, plain)

    def test_chunks_through_one_generator_get_the_whole_vector_noise(self):
        x = np.random.default_rng(12).uniform(-1.0, 1.0, 4099)
        whole = ch.transmit_analog(x, 0.3, seed=13)
        rng = np.random.default_rng(13)
        bounds = np.cumsum([0, 1, 3, 999, 2001, 1095])  # odd chunk lengths covering x
        chunks = [ch.transmit_analog(x[lo:hi], 0.3, rng) for lo, hi in zip(bounds, bounds[1:])]
        assert np.array_equal(np.concatenate(chunks), whole)


def encode_reference(payloads, cp):
    """Oracle: the out-of-place codec expressions."""
    levels = (1 << cp.bits_per_symbol) - 1
    u = payloads[:, 0].reshape(-1)
    v = payloads[:, 1].reshape(-1)
    mag = np.minimum(np.hypot(u, v), cp.mag_cap) / cp.mag_cap
    ang = np.arctan2(v, u) / (2.0 * math.pi) + 0.5
    symbols = np.empty(2 * mag.size)
    symbols[0::2] = 2.0 * (np.round(np.clip(mag, 0.0, 1.0) * levels) / levels) - 1.0
    symbols[1::2] = 2.0 * (np.round(np.clip(ang, 0.0, 1.0) * levels) / levels) - 1.0
    return symbols


def decode_reference(symbols, cp, patch_h, patch_w):
    levels = (1 << cp.bits_per_symbol) - 1
    mag = np.round(np.clip((symbols[0::2] + 1.0) / 2.0, 0.0, 1.0) * levels) / levels * cp.mag_cap
    ang = (np.round(np.clip((symbols[1::2] + 1.0) / 2.0, 0.0, 1.0) * levels) / levels - 0.5) * 2.0 * math.pi
    n = symbols.size // (2 * patch_h * patch_w)
    out = np.empty((n, 2, patch_h, patch_w))
    out[:, 0] = (mag * np.cos(ang)).reshape(n, patch_h, patch_w)
    out[:, 1] = (mag * np.sin(ang)).reshape(n, patch_h, patch_w)
    return out


class TestInPlaceLegMatchesExpressions:
    """The in-place codec and channel give the bits of the out-of-place expressions."""

    @pytest.mark.parametrize("bits", [1, 8, 16])
    def test_codec(self, bits):
        rng = np.random.default_rng(bits)
        payloads = rng.uniform(-40.0, 40.0, size=(6, 2, 5, 7))  # magnitudes past the cap
        payloads[0] = 0.0
        payloads[1, :, 0, :] = [[32.0] * 7, [0.0] * 7]  # on the cap
        payloads[2, 1] = 0.0  # angle 0 and pi
        cp = ch.CodecParams(bits_per_symbol=bits)
        before = payloads.copy()
        symbols = ch.flow_encode(payloads, cp)
        assert np.array_equal(symbols, encode_reference(payloads, cp))
        assert np.array_equal(payloads, before)

        received = symbols + rng.normal(0.0, 0.4, symbols.shape)  # off the grid and past [-1, 1]
        kept = received.copy()
        got = ch.flow_decode(received, cp, 5, 7)
        assert np.array_equal(got, decode_reference(received, cp, 5, 7))
        assert np.array_equal(received, kept)

    @pytest.mark.parametrize("bits, dtype", [(1, np.uint8), (8, np.uint8), (9, np.uint16), (16, np.uint16)])
    def test_codes_expand_to_the_encoded_symbols(self, bits, dtype):
        rng = np.random.default_rng(bits)
        payloads = rng.uniform(-40.0, 40.0, size=(6, 2, 5, 7))
        payloads[0] = 0.0
        payloads[1, :, 0, :] = [[32.0] * 7, [0.0] * 7]
        payloads[2, 1] = 0.0
        cp = ch.CodecParams(bits_per_symbol=bits)
        codes = ch.flow_codes(payloads, cp)
        assert codes.dtype == dtype
        assert int(codes.max()) == (1 << bits) - 1 and int(codes.min()) == 0
        expected = encode_reference(payloads, cp).tobytes()
        assert ch.expand_codes(codes, cp).tobytes() == expected
        assert ch.flow_encode(payloads, cp).tobytes() == expected

    @pytest.mark.parametrize("bits", [1, 2, 4, 8, 12, 16])
    @pytest.mark.parametrize("sigma", [0.0, 0.05, 0.4, 1.0])
    def test_table_decode_equals_the_computed_decoder(self, bits, sigma):
        rng = np.random.default_rng(bits * 10 + int(sigma * 20))
        cp = ch.CodecParams(bits_per_symbol=bits, mag_cap=float(rng.uniform(0.5, 64.0)))
        payloads = rng.uniform(-40.0, 40.0, size=(300, 2, 5, 7))  # past one decode block
        received = ch.flow_encode(payloads, cp) + rng.normal(0.0, sigma, 300 * 2 * 5 * 7)
        received[:6] = [-1.5, 1.5, -1.0, 1.0, 40.0, -40.0]  # outside [-1, 1], and its ends
        expected = reference_flow_decode(received, cp, 5, 7).tobytes()
        assert ch.flow_decode(received, cp, 5, 7).tobytes() == expected
        assert ch.flow_decode(received, cp, 5, 7, out=received.reshape(300, 2, 5, 7)).tobytes() == expected

    def test_decode_tables_hold_one_entry_per_code(self):
        for bits in (1, 16):
            tables = ch.CodecParams(bits_per_symbol=bits).decode_tables
            assert [t.shape for t in tables] == [(1 << bits,)] * 3

    def test_decode_into_a_given_array(self):
        cp = ch.CodecParams()
        symbols = np.random.default_rng(4).uniform(-1.2, 1.2, 2 * 3 * 5 * 7)
        out = np.full((3, 2, 5, 7), np.nan)
        assert ch.flow_decode(symbols, cp, 5, 7, out=out) is out
        assert np.array_equal(out, decode_reference(symbols, cp, 5, 7))

    @pytest.mark.parametrize(
        "h", [1 + 0j, 0.8 - 0.3j, -0.3 + 1.1j], ids=["unit", "re-dominant", "im-dominant"]
    )
    @pytest.mark.parametrize("sigma2", [0.0, 0.25])
    def test_transmit(self, h, sigma2):
        # The real leg keeps the bits of the complex unit-channel leg it replaced:
        # (x + n_re + j n_im), real part, n_re drawn first.
        x = np.random.default_rng(1).uniform(-1.0, 1.0, 4099)
        kept = x.copy()
        rng = np.random.default_rng(3)
        n_re, n_im = (rng.standard_normal(x.shape) * math.sqrt(sigma2 / 2.0) for _ in range(2))
        got = ch.transmit_analog(x, sigma2, seed=3)
        assert np.array_equal(got, (x + n_re + 1j * n_im).real)
        assert np.array_equal(x, kept)
        # sigma2 is the post-equalization noise power, so at any fading coefficient h the
        # zero-forced complex leg (h x + h n) / h gives the real leg's output to rounding.
        zero_forced = ((h * x + h * (n_re + 1j * n_im)) / h).real
        if h == 1:
            assert np.array_equal(got, zero_forced)
        ulps = 4 * np.finfo(float).eps * float(np.abs(got).max())
        np.testing.assert_allclose(got, zero_forced, rtol=0, atol=ulps)
