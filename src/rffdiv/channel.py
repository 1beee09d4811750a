"""Flat and frequency-selective channels plus calibrated AWGN.

A flat channel multiplies by a single complex scalar; a selective channel
convolves with a short tap-delay line (integer sample delays). Noise is
added to meet a target SNR measured over the active samples of the signal
reaching the receiver, so zero padding around a frame does not dilute the
calibration. The channel is static within one frame; mobile scenarios are
approximated upstream by resampling the realization per frame, as one
block of draws.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .signals import ComplexSignal, Frames


class ChannelKind(enum.Enum):
    FLAT = "Flat"
    SELECTIVE = "Selective"


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of the channel: scalar gain (flat) or unit-energy taps at
    strictly increasing integer delays starting from 0 (selective), plus a
    noise level. `snr_db` may be `math.inf` for the noiseless case.

    A block of draws shares kind, delays and noise level, and holds one
    gain per row (`alpha` of shape [rows]) or one row of taps per draw
    (`taps` of shape [rows, n_taps]). `seed` is the seed a single draw
    came from; noise falls back to it."""

    kind: ChannelKind
    alpha: complex | np.ndarray = 1.0 + 0j
    taps: np.ndarray = field(default_factory=lambda: np.array([1.0 + 0j]))
    delays: np.ndarray = field(default_factory=lambda: np.array([0]))
    snr_db: float = math.inf
    seed: int = 0

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=np.complex128)
        delays = np.asarray(self.delays, dtype=np.int64)
        object.__setattr__(self, "taps", taps)
        object.__setattr__(self, "delays", delays)
        if self.kind is ChannelKind.FLAT:
            if np.any(np.abs(self.alpha) == 0):
                raise ValueError("flat channel gain must be nonzero")
        else:
            if taps.size == 0 or taps.shape[-1] != delays.size:
                raise ValueError("selective channel needs matching taps and delays")
            if delays[0] != 0 or np.any(np.diff(delays) <= 0):
                raise ValueError("delays must be strictly increasing from 0")
            energy = np.sum(np.abs(taps) ** 2, axis=-1)
            # math.isclose(energy, 1.0, rel_tol=1e-9) for every draw
            unit = np.isfinite(energy) & (np.abs(energy - 1.0) <= 1e-9 * np.maximum(energy, 1.0))
            if not unit.all():
                bad = float(energy[~unit][0]) if energy.ndim else float(energy)
                raise ValueError(f"tap energies must be normalized to 1, got {bad}")

    def impulse_response(self) -> np.ndarray:
        """Dense impulse response (flat: the single scalar), one row per
        draw for a block."""
        if self.kind is ChannelKind.FLAT:
            return np.asarray(self.alpha, dtype=np.complex128)[..., None]
        h = np.zeros(self.taps.shape[:-1] + (int(self.delays[-1]) + 1,), dtype=np.complex128)
        h[..., self.delays] = self.taps
        return h


def apply_channel(
    ch: ChannelRealization,
    x: ComplexSignal | Frames,
    noise_rng=None,
) -> ComplexSignal | Frames:
    """Propagate through the channel, then add AWGN at the realization's SNR.

    Signal power for the SNR is measured over the active (nonzero) samples
    of the propagated signal. Noise covers the whole record. A separate
    `noise_rng` lets a static link reuse one realization across frames with
    fresh noise each time; by default noise derives from `ch.seed`.

    `x` may be a block of captures (`Frames`), one per row and each
    `lengths[i]` samples long, through one realization or through a block
    of draws, one per row. `noise_rng` is then one generator per row (any
    iterable: a row draws all its noise before the next row's generator is
    taken), and each row gets exactly what it would get alone. Rows are
    propagated one at a time, so `np.convolve` rounds as it always has.
    """
    if len(x) == 0:
        raise ValueError("input signal is empty")
    block = isinstance(x, Frames)
    samples = x.samples if block else x.samples[None]
    lengths = x.lengths.tolist() if block else [len(x)]
    h = ch.impulse_response()
    responses = h if h.ndim == 2 else [h] * len(samples)
    if not block:
        noise_rng = [noise_rng if noise_rng is not None else np.random.default_rng(ch.seed)]
    out = np.zeros_like(samples)
    for i, (n, hi, rng) in enumerate(zip(lengths, responses, noise_rng)):
        xi = samples[i, :n]
        y = hi[0] * xi if hi.size == 1 else np.convolve(xi, hi)[:n]
        if not math.isinf(ch.snr_db):
            mag = np.abs(y)
            active = mag > mag.max() * 1e-12
            p_sig = float(np.mean(mag[active] ** 2)) if active.any() else 0.0
            if p_sig != 0.0:
                p_noise = p_sig / 10.0 ** (ch.snr_db / 10.0)
                y = y + np.sqrt(p_noise / 2.0) * (
                    rng.standard_normal(n) + 1j * rng.standard_normal(n)
                )
        out[i, :n] = y
    return x.replace_samples(out if block else out[0])


def exponential_power_profile(n_taps: int, decay: float) -> np.ndarray:
    """Tap powers proportional to exp(-delay/decay), normalized to sum 1.
    Earlier taps carry more energy."""
    p = np.exp(-np.arange(n_taps) / decay)
    return p / p.sum()


def sample_channel(
    kind: ChannelKind,
    snr_db: float,
    seed,
    n_taps: int = 4,
    decay: float = 1.0,
    rice_k_db: float | None = None,
) -> ChannelRealization:
    """Draw a realization: Rayleigh-magnitude uniform-phase scalar (flat) or
    complex Gaussian taps with exponentially decaying expected powers at
    delays 0..n_taps-1, normalized to unit total energy (selective).

    `rice_k_db` adds a random-phase specular component on the first tap with
    the given specular-to-diffuse power ratio (line-of-sight links); None
    keeps all taps diffuse. With a specular tap the per-tone response keeps
    a gain floor, so deep fades are rare; all-diffuse taps fade per tone
    like Rayleigh regardless of the decay profile.

    `seed` is an int, drawn through `numpy.random.default_rng(seed)`, or an
    iterable of generators, which draws a block with one row per generator:
    each row takes its normals (and uniform) from its own generator before
    the next one is taken, so a generator that starts where
    `default_rng(s)` starts gives row i exactly the draw of seed s. The
    block's taps are then scaled, normalized and checked at once.
    """
    one = isinstance(seed, (int, np.integer))
    rngs = [np.random.default_rng(seed)] if one else seed
    if kind is ChannelKind.FLAT:
        # (re, im) / sqrt(2) per row, viewed as one complex gain per row:
        # the same rounding as the complex division of a single draw
        z = np.array([(rng.standard_normal(), rng.standard_normal()) for rng in rngs])
        alpha = (z / np.sqrt(2.0)).view(np.complex128)[:, 0]
        if one:
            return ChannelRealization(ChannelKind.FLAT, alpha=complex(alpha[0]), snr_db=snr_db,
                                      seed=seed)
        return ChannelRealization(ChannelKind.FLAT, alpha=alpha, snr_db=snr_db)
    rician = rice_k_db is not None
    draws = [(rng.standard_normal(n_taps), rng.standard_normal(n_taps),
              rng.uniform(-np.pi, np.pi) if rician else 0.0) for rng in rngs]
    re, im, phase = (np.array(d) for d in zip(*draws))
    powers = exponential_power_profile(n_taps, decay)
    taps = np.sqrt(powers / 2.0) * (re + 1j * im)
    if rician:
        k_lin = 10.0 ** (rice_k_db / 10.0)
        diffuse = np.sqrt(1.0 / (k_lin + 1.0))
        specular = np.sqrt(k_lin / (k_lin + 1.0)) * np.exp(1j * phase)
        taps = diffuse * taps
        taps[:, 0] = taps[:, 0] + specular
    taps = taps / np.sqrt(np.sum(np.abs(taps) ** 2, axis=1))[:, None]
    return ChannelRealization(
        ChannelKind.SELECTIVE,
        taps=taps[0] if one else taps,
        delays=np.arange(n_taps),
        snr_db=snr_db,
        seed=seed if one else 0,
    )
