"""Parameterized transmitter/receiver hardware impairments.

A device's analog chain is modeled as a fixed composition:

* transmitter: FIR -> DC offset -> IQ imbalance -> PA -> oscillator rotation
* receiver: oscillator derotation -> PA -> IQ imbalance -> DC offset -> FIR

The FIR taps realize imperfect filtering, the widely-linear IQ stage maps
x -> a*x + b*conj(x), and the PA is a memoryless odd-order polynomial
y = sum_m c_m * x * |x|^(2m) with c_0 = 1. Transmitter oscillators rotate by
exp(+j*2*pi*f*n*Ts) and receiver oscillators derotate by the same form, so
the net rotation seen downstream is the TX/RX frequency difference.

The division-based extractors cancel device effects exactly only in the
convolutional regime (pure FIR, zero DC, balanced IQ, linear PA, zero
oscillator offset); the default random profiles keep the non-convolutional
terms small so the cancellation stays accurate at realistic levels.

Transmitters may additionally carry a smooth spectral tilt applied only to
the HT long training field, which makes the HT-LTF transmit response differ
from the L-LTF one; receivers never tilt, keeping their response common to
both fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .signals import SAMPLE_RATE, ComplexSignal, Frames
from .waveform import FFT_SIZE, FRAME_LEN, HTLTF_START, WINDOWS


@dataclass(frozen=True)
class DeviceProfile:
    """One device's impairment set. `band_tilt` holds polynomial dB-gain
    coefficients over normalized tone index (constant term first), applied
    to HT-LTF transmission only; None disables it."""

    device_id: str
    dc_offset: complex = 0j
    iq_gain_imbalance: float = 1.0
    iq_phase_imbalance: float = 0.0
    fir_taps: np.ndarray = field(default_factory=lambda: np.array([1.0 + 0j]))
    pa_coeffs: np.ndarray = field(default_factory=lambda: np.array([1.0 + 0j]))
    cfo_hz: float = 0.0
    band_tilt: np.ndarray | None = None

    def __post_init__(self):
        taps = np.asarray(self.fir_taps, dtype=np.complex128)
        pa = np.asarray(self.pa_coeffs, dtype=np.complex128)
        object.__setattr__(self, "fir_taps", taps)
        object.__setattr__(self, "pa_coeffs", pa)
        if self.band_tilt is not None:
            object.__setattr__(self, "band_tilt", np.asarray(self.band_tilt, dtype=np.float64))
        if taps.size == 0:
            raise ValueError("fir_taps must be nonempty")
        if taps[0] == 0:
            raise ValueError("first FIR tap must be nonzero")
        if np.any(np.abs(taps[1:]) > np.abs(taps[0])):
            raise ValueError("first FIR tap must dominate")
        if self.iq_gain_imbalance <= 0:
            raise ValueError("iq_gain_imbalance must be positive")
        if pa.size == 0 or pa[0] != 1:
            raise ValueError("pa_coeffs[0] must be 1 (unity small-signal gain)")


def _fir(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Causal FIR along the last axis (each row of a block on its own)."""
    if taps.size == 1:
        return taps[0] * x
    out = np.empty_like(x)
    for row, dst in zip(np.reshape(x, (-1, x.shape[-1])), np.reshape(out, (-1, x.shape[-1]))):
        dst[:] = np.convolve(row, taps)[: row.size]
    return out


def _iq_imbalance(x: np.ndarray, gain: float, phase: float) -> np.ndarray:
    if gain == 1.0 and phase == 0.0:
        return x
    g = gain
    e_p = np.exp(1j * phase / 2.0)
    a = 0.5 * (g * e_p + np.conj(e_p) / g)
    b = 0.5 * (g * e_p - np.conj(e_p) / g)
    return a * x + b * np.conj(x)


def _pa(x: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    if coeffs.size == 1:
        return x.copy()
    mag2 = np.abs(x) ** 2
    gain = np.zeros_like(x)
    for m, c in enumerate(coeffs):
        gain = gain + c * mag2**m
    return x * gain


def _rotate(x: np.ndarray, f_hz: float) -> np.ndarray:
    if f_hz == 0.0:
        return x
    n = np.arange(x.shape[-1])
    # bound to a name so the product never runs in place (see preprocess.apply_cfo)
    phasor = np.exp(2j * np.pi * f_hz * n / SAMPLE_RATE)
    return x * phasor


def _polyval(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The power series `c` (constant term first) at `x`, in the Horner
    order of `numpy.polynomial.polynomial.polyval`, so with its bits; numpy
    would load `numpy.polynomial` for it."""
    y = c[-1] + x * 0
    for a in c[-2::-1]:
        y = a + y * x
    return y


def _leg2poly(leg: np.ndarray) -> np.ndarray:
    """The power series of a Legendre series whose last coefficient is not
    0, by the recurrence of `numpy.polynomial.legendre.leg2poly` with its
    operation order, so with its bits."""

    def add(a, b):  # polyadd: the shorter series padded; polysub(a, b) is add(a, -b)
        a, b = (a, b) if len(a) >= len(b) else (b, a)
        out = a.copy()
        out[: len(b)] += b
        return out

    def mulx(p):  # polymulx: the new constant term is p[0] * 0, a signed zero
        return np.concatenate((p[:1] * 0, p))

    c = np.array(leg, dtype=np.float64)
    if len(c) < 3:
        return c
    c0, c1 = c[-2:-1], c[-1:]
    for i in range(len(c) - 1, 1, -1):
        c0, c1 = (add(c[i - 2 : i - 1], -((c1 * (i - 1)) / i)),
                  add(c0, (mulx(c1) * (2 * i - 1)) / i))
    return add(c0, mulx(c1))


def _tilt_gain(tilt: np.ndarray) -> np.ndarray:
    """Per-bin linear gain over the 64-point grid from dB polynomial in the
    normalized tone index t = k/32, k in [-32, 31]."""
    k = np.arange(FFT_SIZE)
    k_signed = np.where(k < FFT_SIZE // 2, k, k - FFT_SIZE)
    t = k_signed / (FFT_SIZE // 2)
    db = _polyval(t, tilt)
    return 10.0 ** (db / 20.0)


def _apply_htltf_tilt(x: np.ndarray, tilt: np.ndarray) -> np.ndarray:
    """Filter the HT-LTF field (the end of an HT-MF frame) with the tilt,
    circularly over its symbol, and rebuild the cyclic prefix so the field
    stays internally cyclic."""
    if x.size < FRAME_LEN:
        return x
    out = x.copy()
    sym_start = WINDOWS["HTLTF1"]
    sym = np.fft.ifft(np.fft.fft(x[sym_start:FRAME_LEN]) * _tilt_gain(tilt))
    out[sym_start:FRAME_LEN] = sym
    out[HTLTF_START:sym_start] = sym[HTLTF_START - sym_start:]
    return out


def apply_transmitter(profile: DeviceProfile, x: ComplexSignal) -> ComplexSignal:
    """Run the transmitter chain over a generated preamble.

    The per-field tilt, when present, is applied first (it is part of the
    HT-LTF transmit response); the common chain follows.
    """
    if len(x) == 0:
        raise ValueError("input signal is empty")
    y = x.samples
    if profile.band_tilt is not None:
        y = _apply_htltf_tilt(y, profile.band_tilt)
    y = _fir(y, profile.fir_taps)
    y = y + profile.dc_offset
    y = _iq_imbalance(y, profile.iq_gain_imbalance, profile.iq_phase_imbalance)
    y = _pa(y, profile.pa_coeffs)
    y = _rotate(y, profile.cfo_hz)
    return x.replace_samples(y)


def apply_receiver(profile: DeviceProfile, y: ComplexSignal | Frames) -> ComplexSignal | Frames:
    """Run the receiver chain (mirror order; oscillator derotates, so the
    downstream rotation is TX minus RX frequency). `y` may be a block of
    captures (`Frames`), one per row; the FIR runs on each row."""
    if len(y) == 0:
        raise ValueError("input signal is empty")
    z = _rotate(y.samples, -profile.cfo_hz)
    z = _pa(z, profile.pa_coeffs)
    z = _iq_imbalance(z, profile.iq_gain_imbalance, profile.iq_phase_imbalance)
    z = z + profile.dc_offset
    z = _fir(z, profile.fir_taps)
    return y.replace_samples(z)


class Role:
    TRANSMITTER = "Transmitter"
    RECEIVER = "Receiver"


# Documented default draw ranges. Consumer-grade transmitters get the wider
# spreads; receivers model calibrated lab-grade SDR front ends (small IQ
# residuals, disciplined oscillators). Oscillator offsets stay within what
# the 128-sample coherent sync correlation tolerates: the correlation's
# true peak loses to an off-by-64 alias once the net offset passes about
# 95 kHz, so defaults keep |tx - rx| comfortably below that. +/-45 kHz is
# about +/-8 ppm at a 5.7 GHz carrier, a realistic consumer tolerance.
TX_RANGES = {
    "cfo_hz": 45e3,
    "n_secondary_taps": 3,
    "secondary_tap_db": (-26.0, -18.0),
    "gain_imbalance_db": 0.5,
    "phase_imbalance_deg": 1.5,
    "dc_dbc": (-40.0, -30.0),
    "pa_third_order": 0.01,
    "tilt_rms_db": (1.5, 3.5),
    "tilt_degree": 6,
}
RX_RANGES = {
    "cfo_hz": 5e3,
    "n_secondary_taps": 2,
    "secondary_tap_db": (-26.0, -20.0),
    "gain_imbalance_db": 0.2,
    "phase_imbalance_deg": 0.5,
    "dc_dbc": (-40.0, -30.0),
    "pa_third_order": 0.002,
}


def sample_profile(
    rng_seed: int,
    role: str,
    field_distinct: bool = False,
    device_id: str | None = None,
) -> DeviceProfile:
    """Draw a random profile within the documented ranges (`TX_RANGES` or
    `RX_RANGES` by role), reproducibly.

    Only transmitters with `field_distinct` set carry the HT-LTF tilt;
    receiver profiles never do, which keeps the receiver response common
    across fields.
    """
    ranges = TX_RANGES if role == Role.TRANSMITTER else RX_RANGES
    rng = np.random.default_rng(rng_seed)
    lo_db, hi_db = ranges["secondary_tap_db"]
    n_sec = ranges["n_secondary_taps"]
    mags = 10.0 ** (rng.uniform(lo_db, hi_db, size=n_sec) / 20.0)
    phases = rng.uniform(-np.pi, np.pi, size=n_sec)
    taps = np.concatenate(([1.0 + 0j], mags * np.exp(1j * phases)))
    dc_lo, dc_hi = ranges["dc_dbc"]
    dc_mag = 10.0 ** (rng.uniform(dc_lo, dc_hi) / 20.0)
    dc = dc_mag * np.exp(1j * rng.uniform(-np.pi, np.pi))
    gain = 10.0 ** (rng.uniform(-ranges["gain_imbalance_db"], ranges["gain_imbalance_db"]) / 20.0)
    phase = np.deg2rad(rng.uniform(-ranges["phase_imbalance_deg"], ranges["phase_imbalance_deg"]))
    pa3 = -rng.uniform(0.0, ranges["pa_third_order"]) * np.exp(1j * rng.uniform(-0.2, 0.2))
    cfo = rng.uniform(-ranges["cfo_hz"], ranges["cfo_hz"])
    tilt = None
    if role == Role.TRANSMITTER and field_distinct:
        # Draw the tilt shape in the Legendre basis: the modes are
        # orthogonal over the band, so device curves spread instead of
        # collapsing onto a couple of dominant shapes the way normalized
        # random monomial coefficients do. Converted to plain polynomial
        # coefficients, then scaled to a per-device RMS dB swing so every
        # field-distinct device carries a usable HT/long response contrast.
        deg = ranges["tilt_degree"]
        leg = np.zeros(deg + 1)
        leg[1:] = rng.standard_normal(deg) * 0.95 ** np.arange(deg)
        coeffs = _leg2poly(leg)
        rms_lo, rms_hi = ranges["tilt_rms_db"]
        target = rng.uniform(rms_lo, rms_hi)
        t = np.arange(-32, 32) / 32.0
        curve = _polyval(t, coeffs)
        curve = curve - curve.mean()
        rms = float(np.sqrt(np.mean(curve**2)))
        if rms > 0:
            coeffs = coeffs * (target / rms)
            coeffs[0] -= float(_polyval(t, coeffs).mean())
        tilt = coeffs
    if device_id is None:
        device_id = f"{role.lower()}-{rng_seed}"
    return DeviceProfile(
        device_id=device_id,
        dc_offset=dc,
        iq_gain_imbalance=gain,
        iq_phase_imbalance=phase,
        fir_taps=taps,
        pa_coeffs=np.array([1.0, pa3]),
        cfo_hz=cfo,
        band_tilt=tilt,
    )


def identity_profile(device_id: str = "identity") -> DeviceProfile:
    """A profile whose chain is the identity transform."""
    return DeviceProfile(device_id=device_id)


def linear_profile(
    device_id: str,
    fir_taps,
    band_tilt=None,
    cfo_hz: float = 0.0,
) -> DeviceProfile:
    """A purely convolutional profile (the regime where the division-based
    cancellations are exact)."""
    return DeviceProfile(
        device_id=device_id,
        fir_taps=np.asarray(fir_taps, dtype=np.complex128),
        band_tilt=band_tilt,
        cfo_hz=cfo_hz,
    )
