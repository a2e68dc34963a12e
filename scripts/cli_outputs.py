#!/usr/bin/env python3
"""Write every CLI output on configs/ to one directory, for diffing two trees.

Runs `divcurl check`, `solve` and `norms` on each config in configs/, plus
`solve --solver stream` and `oracle` (at fixed points) on vortex_patch, each
as a fresh process with this tree's src/ on the path.  Run <name> writes its
files to DIR/<name>/ and its stdout and stderr to DIR/<name>.stdout and
DIR/<name>.stderr.  Two trees give byte-identical outputs exactly when

    python3 scripts/cli_outputs.py --out A     (in one tree)
    python3 scripts/cli_outputs.py --out B     (in the other)
    diff -r A B

prints nothing.  The exit code is 1 when any run exits nonzero.
"""

import argparse
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
CONFIGS = ("cylinder", "ellipse", "vortex_patch")
ORACLE_POINTS = "6.0,1.0;-4.5,5.0;0.5,-7.0"


def invocations():
    """(name, argv) of every run, config paths relative to the tree."""
    runs = [(f"{cmd}-{name}", [cmd, "--config", str(ROOT / "configs" / f"{name}.cfg")])
            for cmd in ("check", "solve", "norms") for name in CONFIGS]
    patch = str(ROOT / "configs" / "vortex_patch.cfg")
    runs.append(("stream-vortex_patch", ["solve", "--config", patch, "--solver", "stream"]))
    runs.append(("oracle-vortex_patch", ["oracle", "--config", patch,
                                         f"--points={ORACLE_POINTS}"]))
    return runs


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, help="directory for the outputs")
    args = parser.parse_args()
    out = pathlib.Path(args.out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    failed = 0
    for name, argv in invocations():
        proc = subprocess.run(
            [sys.executable, "-c", "from divcurl.cli import entry; entry()", *argv,
             "--out", str(out / name)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
        (out / f"{name}.stdout").write_text(proc.stdout)
        (out / f"{name}.stderr").write_text(proc.stderr)
        failed += proc.returncode != 0
        print(f"{name}: exit {proc.returncode}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
