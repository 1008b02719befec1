"""Link model: Rayleigh fading draws and capacity, real AWGN symbol leg, flow symbol codec."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s
_BLOCK = 1 << 16  # symbols per scratch block in transmit_analog and flow_decode


@dataclass(frozen=True)
class LinkParams:
    distance: float = 100.0       # d, meters
    carrier_hz: float = 2.4e9     # f_c
    path_loss_exp: float = 1.0    # alpha
    tx_power: float = 1.0         # P, watts
    noise_power: float = 1e-9     # sigma^2, watts
    bandwidth_hz: float = 1e6     # B

    def __post_init__(self):
        for name in ("distance", "carrier_hz", "path_loss_exp", "tx_power",
                     "noise_power", "bandwidth_hz"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class ChannelRealization:
    h: complex
    snr: float             # linear
    capacity_per_s: float  # bits/second


@dataclass(frozen=True)
class CodecParams:
    bits_per_symbol: int = 8
    mag_cap: float = 32.0   # px, magnitude clamp before [0, 1] normalization
    gamma: float = 1.0      # power normalization factor

    def __post_init__(self):
        if not 1 <= self.bits_per_symbol <= 16:
            raise ValueError("bits_per_symbol must lie in [1, 16]")
        for name in ("mag_cap", "gamma"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)!r}")

    @cached_property
    def decode_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`flow_decode`'s magnitude, cosine and sine of each of the 2^bits quantizer codes.

        Built on first use with the decoder's own arithmetic, (q / levels) * mag_cap and
        ((q / levels - 0.5) * 2) * pi, so a gathered product has the bits of the computed one.
        """
        unit = np.arange(1 << self.bits_per_symbol, dtype=np.float64)
        unit /= (1 << self.bits_per_symbol) - 1
        angle = unit - 0.5
        angle *= 2.0
        angle *= math.pi
        unit *= self.mag_cap
        return unit, np.cos(angle), np.sin(angle)


def path_gain(link: LinkParams) -> float:
    """Large-scale amplitude gain (c / (4 pi d f_c))^alpha."""
    return (SPEED_OF_LIGHT / (4.0 * math.pi * link.distance * link.carrier_hz)) ** link.path_loss_exp


def db_to_linear(snr_db: float) -> float:
    return 10.0 ** (snr_db / 10.0)


def capacity_per_s(bandwidth_hz: float, snr: float) -> float:
    return bandwidth_hz * math.log2(1.0 + snr)


def sample_channel(link: LinkParams, seed: int) -> ChannelRealization:
    """Draw one fading realization: h = path_gain * beta, beta ~ CN(0, 1)."""
    rng = np.random.default_rng(seed)
    re, im = rng.standard_normal(2) * math.sqrt(0.5)
    h = path_gain(link) * complex(re, im)
    snr = link.tx_power * abs(h) ** 2 / link.noise_power
    return ChannelRealization(h, snr, capacity_per_s(link.bandwidth_hz, snr))


def _quantize_codes(values: np.ndarray, bits: int) -> np.ndarray:
    """Uniform quantizer on [0, 1] with 2^bits levels, in place; returns the codes as floats."""
    np.clip(values, 0.0, 1.0, out=values)
    values *= (1 << bits) - 1
    np.rint(values, out=values)
    return values


def flow_codes(payloads: np.ndarray, cp: CodecParams) -> np.ndarray:
    """Quantizer codes of flow patch payloads, in flow_encode's symbol order.

    payloads: (n, 2, H', W') with channel 0 = u, 1 = v. Each flow vector
    becomes a (magnitude, angle) pair: m = min(|f|, cap)/cap, theta =
    atan2(v, u)/(2 pi) + 1/2, each uniform-quantized to a code in
    [0, 2^bits - 1]. Output is 1-D, interleaved (m, theta) per pixel, uint8
    up to 8 bits per symbol and uint16 above.
    """
    payloads = np.asarray(payloads, dtype=np.float64)
    if payloads.ndim != 4 or payloads.shape[1] != 2:
        raise ValueError(f"expected (n, 2, H', W') payloads, got {payloads.shape}")
    u = payloads[:, 0].reshape(-1)
    v = payloads[:, 1].reshape(-1)
    codes = np.empty(2 * u.size, dtype=np.uint8 if cp.bits_per_symbol <= 8 else np.uint16)
    mag = np.hypot(u, v)
    np.minimum(mag, cp.mag_cap, out=mag)
    mag /= cp.mag_cap
    codes[0::2] = _quantize_codes(mag, cp.bits_per_symbol)
    ang = np.arctan2(v, u)
    ang /= 2.0 * math.pi
    ang += 0.5
    codes[1::2] = _quantize_codes(ang, cp.bits_per_symbol)
    return codes


def expand_codes(codes: np.ndarray, cp: CodecParams) -> np.ndarray:
    """Symbols in [-1, 1] of quantizer codes: (q / levels) * 2 - 1."""
    out = np.empty(codes.shape)
    np.copyto(out, codes)  # an unbuffered cast: a dividing ufunc would cast through a buffer
    out /= (1 << cp.bits_per_symbol) - 1
    out *= 2.0
    out -= 1.0
    return out


def flow_encode(payloads: np.ndarray, cp: CodecParams) -> np.ndarray:
    """Map flow patch payloads to symbols in [-1, 1]: flow_codes, expanded."""
    return expand_codes(flow_codes(payloads, cp), cp)


def flow_decode(
    symbols: np.ndarray, cp: CodecParams, patch_h: int, patch_w: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Inverse of flow_encode: symbols back to (n, 2, H', W') flow payloads, into `out` if given.

    Re-snaps to the quantizer grid, so a noiseless transmit round trip
    decodes identically to encode alone, then looks each (magnitude, angle)
    code pair up in `cp.decode_tables`. Runs one block of patches at a time,
    so its scratch arrays span a block, whatever the symbol count. `out` may
    hold the symbols themselves: each block is read before it is written.
    """
    symbols = np.asarray(symbols)
    per_patch = 2 * patch_h * patch_w
    if symbols.ndim != 1 or symbols.size % per_patch != 0:
        raise ValueError(
            f"malformed symbol vector: length {symbols.size} is not a multiple of {per_patch}"
        )
    n = symbols.size // per_patch
    if out is None:
        out = np.empty((n, 2, patch_h, patch_w))
    mag_of, cos_of, sin_of = cp.decode_tables
    step = max(1, _BLOCK // per_patch)
    code = np.empty(min(n, step) * per_patch // 2, dtype=np.intp)
    for lo in range(0, n, step):
        block = symbols[lo * per_patch : (lo + step) * per_patch]
        k = block.size // per_patch
        mag, ang = block[0::2] + 1.0, block[1::2] + 1.0
        index = code[: mag.size]
        for unit in (mag, ang):
            unit /= 2.0
            _quantize_codes(unit, cp.bits_per_symbol)
        np.copyto(index, mag, casting="unsafe")  # whole numbers: the cast is exact
        np.take(mag_of, index, out=mag, mode="clip")  # in range: no clipping
        np.copyto(index, ang, casting="unsafe")
        term = ang  # its codes are in `index`; a product straight into the strided out[:, c] is buffered
        for c, wave in enumerate((cos_of, sin_of)):
            np.take(wave, index, out=term, mode="clip")
            term *= mag
            out[lo : lo + k, c] = term.reshape(k, patch_h, patch_w)
    return out


def power_scale(norm: float, gamma: float, power: float) -> float:
    """The factor that takes a vector of Euclidean norm `norm` to squared norm gamma * power."""
    return math.sqrt(gamma * power) / norm


def power_normalize(symbols: np.ndarray, cp: CodecParams, p_ue: float) -> np.ndarray:
    """Scale a symbol vector so its Hermitian self-product equals gamma * P."""
    symbols = np.asarray(symbols)
    norm = float(np.sqrt(np.vdot(symbols, symbols).real))
    if norm == 0.0:
        raise ValueError("cannot power-normalize a zero vector")
    return symbols * power_scale(norm, cp.gamma, p_ue)


def transmit_analog(symbols: np.ndarray, sigma2: float, seed, out: np.ndarray | None = None) -> np.ndarray:
    """y = x + n with real n ~ N(0, sigma2 / 2), the in-phase half of CN(0, sigma2), into `out` if given.

    `seed` is an int or a Generator. Chunks of one vector sent in order
    through one Generator get the noise of the whole vector sent at once, so
    the noise is drawn a block at a time, and `out` may be `symbols` itself.
    """
    if sigma2 < 0:
        raise ValueError("noise power cannot be negative")
    symbols = np.asarray(symbols)
    y = np.empty(symbols.shape) if out is None else out
    if y.shape != symbols.shape or not y.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous {symbols.shape} array")
    rng = np.random.default_rng(seed)
    sigma = math.sqrt(sigma2 / 2.0)
    flat_x, flat_y = symbols.reshape(-1), y.reshape(-1)
    for lo in range(0, flat_x.size, _BLOCK):
        noise = rng.standard_normal(min(_BLOCK, flat_x.size - lo))
        noise *= sigma
        noise += flat_x[lo : lo + _BLOCK]
        flat_y[lo : lo + _BLOCK] = noise
    return y
