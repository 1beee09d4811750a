import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rffdiv
from rffdiv import channel as ch
from rffdiv import data_io
from rffdiv import impairments as imp
from rffdiv import preprocess as pp
from rffdiv.features import Field, field_spectrum
from rffdiv.signals import ComplexSignal
from rffdiv.cli import main
from rffdiv.waveform import PreambleFormat, PreambleSpec, generate_preamble

HTMF_FRAME = generate_preamble(PreambleSpec(PreambleFormat.HTMF))
NONHT_FRAME = generate_preamble(PreambleSpec(PreambleFormat.NONHT))


def build_capture(tx, rx, chan, lead=256, tail=120, noise_seed=None, frame=None):
    """Transmit one frame through the full chain, embedded in zero padding."""
    frame = HTMF_FRAME if frame is None else frame
    x = imp.apply_transmitter(tx, frame)
    padded = ComplexSignal(np.concatenate([
        np.zeros(lead, dtype=complex), x.samples, np.zeros(tail, dtype=complex),
    ]))
    rng = np.random.default_rng(noise_seed) if noise_seed is not None else None
    y = ch.apply_channel(chan, padded, noise_rng=rng)
    return imp.apply_receiver(rx, y), lead


def acquire(capture, multiplier=6.0):
    """Detection through CFO compensation with a floor-derived threshold."""
    thr = pp.noise_floor_threshold(capture, 80, multiplier)
    return pp.synchronize_and_compensate(capture, pp.DetectionConfig(80, thr))


def chain_spectra(tx, rx, chan, noise_seed=None, multiplier=6.0, frame=None):
    capture, _ = build_capture(tx, rx, chan, noise_seed=noise_seed, frame=frame)
    compensated, sync, _ = acquire(capture, multiplier)
    return {f: field_spectrum(compensated, sync.frame_start_n1, f) for f in Field}


@pytest.fixture
def flat_identity():
    return ch.ChannelRealization(ch.ChannelKind.FLAT, alpha=1.0 + 0j)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


_CLI = "from rffdiv.cli import main; result = main"

# The statement each command runs in a fresh interpreter; it sets `result`.
# HL, MODEL, CSI, CONFIG and OUT name a feature table, a model trained on
# it, a CSI table, a bench config and an output path.
COMMANDS = {
    "import": "import rffdiv; result = 0",
    "import-cli": "import rffdiv, rffdiv.cli; result = 0",
    "train": _CLI + "(['train', '--features', HL, '--out', OUT])",
    "eval": _CLI + "(['eval', '--model', MODEL, '--features', HL])",
    "select-ref": _CLI + "(['select-ref', '--csi', CSI])",
    # on two CPUs, with field-distinct transmitters (whose tilt is a
    # Legendre draw) and the reference division
    "bench": ("from rffdiv import harness; harness.usable_cpus = lambda: 2; "
              + _CLI + "(['bench', '--config', CONFIG, '--out-dir', OUT])"),
}

_COMMAND_RUN = """
import json, os, sys
HL, MODEL, CSI, CONFIG, OUT = sys.argv[1:]
forks, fork = [], os.fork

def counting_fork():
    pid = fork()
    forks.append(pid)
    return pid

os.fork = counting_fork
{statement}
print(json.dumps([result, len(forks), sorted(sys.modules)]))
"""


@pytest.fixture(scope="session")
def loaded_by(tmp_path_factory):
    """loaded_by(command, *prefixes) -> (processes forked, the loaded modules
    equal to or under a prefix) after a fresh interpreter runs the command
    of `COMMANDS`, which must succeed. Each command runs once a session,
    however many tests ask."""
    tmp = tmp_path_factory.mktemp("loads")
    features, model, csi, config = (tmp / "hl.csv", tmp / "m.json", tmp / "csi.csv",
                                    tmp / "cfg.json")
    values = np.random.default_rng(0).random((8, 52))
    n = len(values)
    data_io.write_features(features, data_io.FeatureTable(
        "HL", [f"dev{i % 2}" for i in range(n)], ["rx00"] * n, ["flat"] * n,
        list(range(n)), [30.0] * n, values / np.linalg.norm(values, axis=1, keepdims=True)))
    assert main(["train", "--features", str(features), "--out", str(model)]) == 0
    csi.write_text("device," + ",".join(f"v{i}" for i in range(16)) + "\n"
                   + "".join(name + ",1" * 16 + "\n" for name in ("A", "B")))
    config.write_text(json.dumps({
        "master_seed": 11,
        "devices": {"count": 2, "base_seed": 100, "field_distinct": True},
        "receivers": {"count": 2, "base_seed": 900},
        "reference_device": {"id": "ref", "seed": 55},
        "extractors": ["RD", "HL", "DV"],
        "channel": {"scenario": "flat"},
        "snr_db": 30.0,
        "frames_per_device": 4,
        "repeats": 1,
        "train_receivers": ["rx00"],
        "test_receivers": ["rx01"],
        "classifier": {"epochs": 5, "seed": 3},
    }))
    src = str(Path(rffdiv.__file__).resolve().parents[1])
    runs = {}

    def run(command, *prefixes):
        if command not in runs:
            proc = subprocess.run(
                [sys.executable, "-c", _COMMAND_RUN.format(statement=COMMANDS[command]),
                 str(features), str(model), str(csi), str(config), str(tmp / f"{command}.out")],
                capture_output=True, timeout=120,
                env={"PATH": "/usr/bin:/bin", "PYTHONPATH": src})
            assert proc.returncode == 0, proc.stderr.decode()
            runs[command] = json.loads(proc.stdout.decode().splitlines()[-1])
        result, forks, loaded = runs[command]
        assert result == 0
        return forks, [m for m in loaded if any(m == p or m.startswith(p + ".") for p in prefixes)]

    return run
