"""The demo scripts run as shipped. `scripts/receiver_invariance_demo.py`
is also the one caller outside tests of the stages' one-capture API."""

import re
import subprocess
import sys
from pathlib import Path

import rffdiv

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name):
    src = str(Path(rffdiv.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name)],
                          capture_output=True, text=True,
                          env={"PATH": "/usr/bin:/bin", "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    return proc


def test_receiver_invariance_demo_cancels_exactly():
    proc = _run_script("receiver_invariance_demo.py")
    deviations = [float(x) for x in re.findall(r"max deviation from the first: (\S+)",
                                                proc.stdout)]
    assert len(deviations) == 2, proc.stdout
    assert max(deviations) < 1e-12


def test_snr_stability_sweep_prints_its_table():
    header, *rows = _run_script("snr_stability_sweep.py").stdout.splitlines()
    assert header.split()[:3] == ["snr", "scenario", "extractor"]
    # 4 SNRs x (flat RD_LTF, RD_STF, DV + los HL, DV)
    assert len(rows) == 20, rows
    for row in rows:
        values = [float(x) for x in row.split()[3:]]
        assert len(values) == 4 and all(-1.0 <= v <= 1.0 for v in values), row
