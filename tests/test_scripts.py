"""The demo scripts run as shipped. `scripts/receiver_invariance_demo.py`
is also the one caller outside tests of the stages' one-capture API."""

import re
import subprocess
import sys
from pathlib import Path

import rffdiv

ROOT = Path(__file__).resolve().parents[1]


def test_receiver_invariance_demo_cancels_exactly():
    src = str(Path(rffdiv.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "receiver_invariance_demo.py")],
                          capture_output=True, text=True,
                          env={"PATH": "/usr/bin:/bin", "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    deviations = [float(x) for x in re.findall(r"max deviation from the first: (\S+)",
                                                proc.stdout)]
    assert len(deviations) == 2, proc.stdout
    assert max(deviations) < 1e-12
