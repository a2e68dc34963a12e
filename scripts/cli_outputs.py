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

prints nothing.  With --against B the second run compares its outputs with
B itself: it prints each file that is not byte-identical with the largest
absolute difference of its numbers, or "non-numeric" when the files differ
in more than their numbers, or the side it is missing from.  A .stderr file
is compared without the "<path>:<line>: " prefix of Python's warning lines
and the source line echoed after them, so checkouts in other directories,
or with other line numbers in cli.py, compare equal; the warning category
and message still count.  The exit code is 1 when any run exits nonzero or,
with --against, any file differs.
"""

import argparse
import math
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
CONFIGS = sorted(p.stem for p in (ROOT / "configs").glob("*.cfg"))
ORACLE_POINTS = "6.0,1.0;-4.5,5.0;0.5,-7.0"
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)", re.IGNORECASE)
# a Python warning line "<path>:<line>: <Category>: <message>" and the echoed
# source line after it; the path and line depend on the checkout, not the run
WARNING = re.compile(r"^\S[^\n]*?:\d+: (\w+: [^\n]*\n)(?:  [^\n]*\n)?", re.MULTILINE)


def invocations():
    """(name, argv) of every run, config paths relative to the tree."""
    runs = [(f"{cmd}-{name}", [cmd, "--config", str(ROOT / "configs" / f"{name}.cfg")])
            for cmd in ("check", "solve", "norms") for name in CONFIGS]
    patch = str(ROOT / "configs" / "vortex_patch.cfg")
    runs.append(("stream-vortex_patch", ["solve", "--config", patch, "--solver", "stream"]))
    runs.append(("oracle-vortex_patch", ["oracle", "--config", patch,
                                         f"--points={ORACLE_POINTS}"]))
    return runs


def largest_difference(a: str, b: str):
    """Largest |x - y| over the numbers of two texts that differ in their numbers only, else None.

    Numbers that are not equal as text and whose difference is not a number
    (nan against a value, inf against inf) count as an infinite difference.
    """
    xs, ys = NUMBER.findall(a), NUMBER.findall(b)
    if len(xs) != len(ys) or NUMBER.sub("#", a) != NUMBER.sub("#", b):
        return None
    diffs = [0.0 if x == y else abs(float(x) - float(y)) for x, y in zip(xs, ys)]
    return max((math.inf if math.isnan(d) else d for d in diffs), default=0.0)


def differences(out: pathlib.Path, against: pathlib.Path) -> list:
    """(relative path, note) of each file under out or against that differs in the other.

    Files that are not byte-identical differ, except .stderr files whose
    texts agree once the warning locations are removed.
    """
    def files(root):
        return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}

    def text(root, rel):
        data = (root / rel).read_bytes().decode(errors="replace")
        return WARNING.sub(r"\1", data) if rel.suffix == ".stderr" else data

    mine, theirs = files(out), files(against)
    found = []
    for rel in sorted(mine | theirs):
        if rel not in theirs or rel not in mine:
            found.append((rel, f"only in {out if rel in mine else against}"))
            continue
        if (out / rel).read_bytes() == (against / rel).read_bytes():
            continue
        a, b = text(out, rel), text(against, rel)
        if a != b:
            d = largest_difference(a, b)
            found.append((rel, "non-numeric" if d is None else f"largest difference {d:.3g}"))
    return found


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, help="directory for the outputs")
    parser.add_argument("--against", help="directory of earlier outputs to compare with")
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
    if args.against is not None:
        found = differences(out, pathlib.Path(args.against).resolve())
        for rel, note in found:
            print(f"{rel}: {note}")
        print(f"{len(found)} files differ" if found else "every file is byte-identical")
        failed += bool(found)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
