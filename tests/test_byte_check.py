"""`scripts/byte_check.py` runs a script case on each tree's own copy of
the script, and reports a tree without one as a difference."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _byte_check():
    spec = importlib.util.spec_from_file_location("byte_check", ROOT / "scripts" / "byte_check.py")
    check = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check)
    return check


def test_script_case_runs_each_trees_copy(monkeypatch, tmp_path, capsys):
    check = _byte_check()
    monkeypatch.setattr(check, "OPS", {"sweep": check._script("snr_stability_sweep.py")})
    assert check.main([str(ROOT / "src")]) == 0
    out = capsys.readouterr().out
    assert "python scripts/snr_stability_sweep.py\n    exit 0;" in out, out
    assert out.endswith("1 of 1 cases the same as the baseline\n")

    bare = tmp_path / "tree" / "src"  # a package, but no scripts beside it
    bare.mkdir(parents=True)
    (bare / "rffdiv").symlink_to(ROOT / "src" / "rffdiv")
    assert check.main([str(bare)]) == 1
    out = capsys.readouterr().out
    assert "command 1 exit code: 0 against None" in out, out
    assert out.endswith("0 of 1 cases the same as the baseline\n")
