"""Check that this tree's rffdiv gives the same bytes as a baseline's.

    python scripts/byte_check.py BASELINE_SRC

BASELINE_SRC is another tree's `src/` directory, for example of an export
of the parent commit: `git archive HEAD~1 | tar -x -C /tmp/parent` gives
`/tmp/parent/src`.

Each case of `OPS` runs its commands in order, `{out}` standing for a
fresh, empty directory of its own, once with each tree's package on
PYTHONPATH. A command is rffdiv CLI arguments, or a script of the tree
(`scripts/NAME.py`, no arguments): each tree runs its own copy, found
beside its `src/`, and a tree without one differs. Both run from this
tree's root, so they read the same configs. Per command it prints the exit
code and the last stderr line, and per case the sha256 of every file the
case wrote. Stdout is compared with the case directory written as `{out}`.
Exits 1 on any difference from the baseline, 0 when every case is the
same.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_DEFAULT = "configs/bench_default.json"
_MOBILE = "perfbench/mobile_snr_sweep.json"
# Two SNRs, a two-receiver train set, and one- and two-branch cells.
_SWEEP = "configs/bench_sweep.json"
# One receiver: a point's only reference model is captured in a link worker.
_ONE_RX = "configs/bench_one_receiver.json"


def _bench(config, *flags):
    return [["bench", "--config", config, *flags, "--out-dir", "{out}"]]


def _simulate_extract(config, *flags, extractors=(None, "HL")):
    """`simulate`, then one `extract` per extractor (None: all of them)."""
    return [["simulate", "--config", config, *flags, "--out-dir", "{out}/iq"]] + [
        ["extract", "--manifest", "{out}/iq", "--out-dir", f"{{out}}/{x or 'all'}"]
        + (["--extractor", x] if x else []) for x in extractors]


def _script(name):
    return [[f"scripts/{name}"]]


# name -> commands. The default config at seed 7 and the 15 dB mobile runs
# exit 1 (a late frame's WindowBoundsError).
OPS = {
    "bench default": _bench(_DEFAULT),
    "bench default seed 7": _bench(_DEFAULT, "--seed", "7"),
    "bench sweep": _bench(_SWEEP),
    "bench one receiver": _bench(_ONE_RX),
    **{f"bench mobile seed 1 {snr} dB": _bench(_MOBILE, "--seed", "1", "--snr-db", str(snr))
       for snr in (15, 20, 25, 30)},
    "bench mobile seed 2 15 dB": _bench(_MOBILE, "--seed", "2", "--snr-db", "15"),
    **{f"simulate+extract default seed {seed}": _simulate_extract(_DEFAULT, "--seed", str(seed))
       for seed in (1, 2, 3)},
    "simulate+extract mobile seed 1 15 dB": _simulate_extract(
        _MOBILE, "--seed", "1", "--snr-db", "15", extractors=(None,)),
    "select-ref candidates": [["select-ref", "--csi", "configs/csi_candidates.csv",
                               "--out", "{out}/ranked.csv"]],
    "simulate+extract+train+eval default seed 1": _simulate_extract(
        _DEFAULT, "--seed", "1", extractors=("HL",)) + [
        ["train", "--features", "{out}/HL/features_hl.csv", "--out", "{out}/hl.json"],
        # no --out-dir: eval.json holds the case directory's path; stdout holds the
        # same document and is compared with that path normalized
        ["eval", "--model", "{out}/hl.json", "--features", "{out}/HL/features_hl.csv"]],
    "script snr_stability_sweep": _script("snr_stability_sweep.py"),
    "script reference_sweep_demo": _script("reference_sweep_demo.py"),
}


def _argv(src: Path, args) -> list[str] | None:
    """The command line of one command on the tree of `src`; None for a
    script that tree has no copy of."""
    if not args[0].startswith("scripts/"):
        return [sys.executable, "-m", "rffdiv.cli", *args]
    script = src.parent / args[0]
    return [sys.executable, str(script)] if script.is_file() else None


def run_case(src: Path, commands) -> dict:
    """One case's record on the package in `src`: per command (exit code,
    last stderr line, stdout; the case directory written as `{out}`), and the
    sha256 of each file the case wrote, by relative path."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "out")
        Path(out).mkdir()
        runs = []
        for args in commands:
            argv = _argv(src, [a.replace("{out}", out) for a in args])
            if argv is None:
                runs.append((None, f"no {args[0]} in this tree", ""))
                continue
            proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
            last = "".join(proc.stderr.strip().splitlines()[-1:])
            runs.append((proc.returncode, last.replace(out, "{out}"),
                         proc.stdout.replace(out, "{out}")))
        files = {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in sorted(Path(out).rglob("*")) if p.is_file()}
    return {"runs": runs, "files": files}


def differences(got: dict, want: dict) -> list[str]:
    """What differs between two records of one case (`run_case`)."""
    out = []
    for k, (a, b) in enumerate(zip(got["runs"], want["runs"])):
        for what, x, y in zip(("exit code", "last stderr line", "stdout"), a, b):
            if x != y:
                out.append(f"command {k + 1} {what}: {x!r} against {y!r}")
    for name in sorted(got["files"].keys() | want["files"].keys()):
        if got["files"].get(name) != want["files"].get(name):
            out.append(f"{name}: {got['files'].get(name)} against {want['files'].get(name)}")
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    baseline = Path(argv[0]).resolve()
    if not (baseline / "rffdiv").is_dir():
        print(f"{baseline} holds no rffdiv package", file=sys.stderr)
        return 2
    differ = 0
    for name, commands in OPS.items():
        got, want = run_case(ROOT / "src", commands), run_case(baseline, commands)
        print(f"== {name}")
        for args, (code, last, _) in zip(commands, got["runs"]):
            shown = "python" if args[0].startswith("scripts/") else "rffdiv"
            print(f"  {shown} {' '.join(args)}\n    exit {code}; stderr: {last!r}")
        for path, digest in got["files"].items():
            print(f"  {digest}  {path}")
        diff = differences(got, want)
        differ += bool(diff)
        print("  same as the baseline" if not diff else "  DIFFERS (this tree against "
              "the baseline):\n" + "\n".join(f"    {line}" for line in diff))
    print(f"{len(OPS) - differ} of {len(OPS)} cases the same as the baseline")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
