import numpy as np
import pytest

from rffdiv import waveform as wf
from rffdiv.waveform import (
    Field,
    PreambleFormat,
    PreambleSpec,
    WindowBoundsError,
    extract_window,
    generate_preamble,
    ideal_symbol_spectrum,
    occupied_tones,
    tone_to_bin,
)

# The published 802.11 long-training tone values, transcribed here
# independently of the package's table (k = -26..26).
LLTF_REFERENCE = [
    1, 1, -1, -1, 1, 1, -1, 1, -1, 1, 1, 1, 1, 1, 1, -1, -1, 1, 1, -1, 1, -1,
    1, 1, 1, 1, 0, 1, -1, -1, 1, 1, -1, 1, -1, 1, -1, -1, -1, -1, -1, 1, 1,
    -1, -1, 1, -1, 1, -1, 1, 1, 1, 1,
]


def test_nonht_length():
    sig = generate_preamble(PreambleSpec(PreambleFormat.NONHT))
    assert len(sig) == 320


def test_htmf_length_and_legacy_identity():
    nonht = generate_preamble(PreambleSpec(PreambleFormat.NONHT))
    htmf = generate_preamble(PreambleSpec(PreambleFormat.HTMF))
    assert len(htmf) == 400
    assert np.array_equal(htmf.samples[:320], nonht.samples)


def test_short_training_repeats_exactly():
    x = generate_preamble(PreambleSpec(PreambleFormat.NONHT)).samples
    assert np.array_equal(x[16:80], x[80:144])


def test_short_training_16_sample_periodicity():
    x = generate_preamble(PreambleSpec(PreambleFormat.NONHT)).samples
    assert np.array_equal(x[: 160 - 16], x[16:160])


def test_occupied_tone_counts():
    assert occupied_tones(Field.LSTF).size == 12
    assert occupied_tones(Field.LLTF).size == 52
    assert occupied_tones(Field.HTLTF).size == 56


def test_subset_relations_and_no_dc():
    lstf = set(occupied_tones(Field.LSTF).tolist())
    lltf = set(occupied_tones(Field.LLTF).tolist())
    htltf = set(occupied_tones(Field.HTLTF).tolist())
    assert lstf < lltf < htltf
    for occ in (lstf, lltf, htltf):
        assert 0 not in occ


def test_lstf_spectrum_has_12_nonzero_bins():
    x = ideal_symbol_spectrum(Field.LSTF)
    assert np.count_nonzero(x) == 12


def test_lltf_spectrum_matches_independent_reference():
    x = ideal_symbol_spectrum(Field.LLTF)
    k = np.arange(-26, 27)
    assert np.array_equal(x[tone_to_bin(k)], np.array(LLTF_REFERENCE, dtype=complex))
    occ = x[tone_to_bin(occupied_tones(Field.LLTF))]
    assert np.allclose(np.abs(occ), 1.0)


def test_dc_bin_zero_for_all_fields():
    for field in Field:
        assert ideal_symbol_spectrum(field)[0] == 0


def test_lltf1_fft_proportional_to_ideal_spectrum():
    sig = generate_preamble(PreambleSpec(PreambleFormat.NONHT))
    seg = extract_window(sig, 0, "LLTF1")
    spec = np.fft.fft(seg)
    ideal = ideal_symbol_spectrum(Field.LLTF)
    occ = tone_to_bin(occupied_tones(Field.LLTF))
    ratio = spec[occ] / ideal[occ]
    assert np.abs(ratio - ratio.mean()).max() < 1e-9
    unoccupied = np.setdiff1d(np.arange(64), occ)
    assert np.abs(spec[unoccupied]).max() < 1e-9 * np.abs(spec[occ]).max() * 64


def test_extract_window_lltf_halves_identical():
    sig = generate_preamble(PreambleSpec(PreambleFormat.NONHT))
    w1 = extract_window(sig, 0, "LLTF1")
    w2 = extract_window(sig, 0, "LLTF2")
    assert np.array_equal(w1, w2)


def test_extract_window_bounds_error_names_window():
    sig = generate_preamble(PreambleSpec(PreambleFormat.NONHT))
    with pytest.raises(WindowBoundsError, match="HTLTF1"):
        extract_window(sig, 0, "HTLTF1")
    with pytest.raises(WindowBoundsError, match="LSTF1"):
        extract_window(sig, 5000, "LSTF1")


def test_lstf_window_periodic_at_lag_16():
    # autocorrelation of the generated short-training window peaks at lag 16
    sig = generate_preamble(PreambleSpec(PreambleFormat.NONHT))
    seg = extract_window(sig, 0, "LSTF1")
    lag16 = np.vdot(seg[:-16], seg[16:])
    energy = np.vdot(seg[:-16], seg[:-16])
    assert abs(lag16 / energy - 1.0) < 1e-12


def test_fields_have_unit_average_power():
    htmf = generate_preamble(PreambleSpec(PreambleFormat.HTMF)).samples
    for seg in (htmf[:160], htmf[160:320], htmf[320:]):
        assert abs(np.mean(np.abs(seg) ** 2) - 1.0) < 1e-12


def test_sync_template_is_the_double_long_symbol():
    tpl = wf.lltf_sync_template()
    assert tpl.shape == (128,)
    frame = generate_preamble(PreambleSpec(PreambleFormat.NONHT)).samples
    assert np.allclose(tpl, frame[192:320])


def test_window_table_matches_the_generated_frame():
    x = generate_preamble(PreambleSpec(PreambleFormat.HTMF)).samples
    assert x.size == wf.FRAME_LEN
    fields = {"LSTF": (0, 160), "LLTF": (160, wf.HTLTF_START),
              "HTLTF": (wf.HTLTF_START, wf.FRAME_LEN)}
    win = {name: x[start : start + wf.FFT_SIZE] for name, start in wf.WINDOWS.items()}
    for name, start in wf.WINDOWS.items():
        lo, hi = fields[name[:-1]]
        assert lo <= start and start + wf.FFT_SIZE <= hi, name
    # a long field opens with a cyclic prefix, its symbol's tail, and the
    # field's first window follows it
    for name, cp in (("LLTF1", 32), ("HTLTF1", 16)):
        start = wf.WINDOWS[name]
        assert start - cp == fields[name[:-1]][0], name
        assert np.array_equal(x[start - cp : start], win[name][-cp:]), name
    assert np.array_equal(win["LLTF1"], win["LLTF2"])
    for name in ("LSTF1", "LSTF2"):
        assert np.array_equal(win[name][16:], win[name][:-16]), name
