"""The README's library quick start runs as printed."""

import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    (code,) = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "True"


# file names in backticks, such as conftest.py, are not package names
FILE_SUFFIXES = {"py", "cfg", "txt", "csv", "json", "md"}


def test_readme_names_public_package_names_only():
    # every backticked dotted name resolves in divcurl and has no private part
    import importlib

    import divcurl

    readme = (ROOT / "README.md").read_text()
    names = [m.group(1) for m in re.finditer(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`",
                                             readme)]
    names = [name for name in names if name.rsplit(".", 1)[1] not in FILE_SUFFIXES]
    assert names
    for name in names:
        parts = name.split(".")
        assert not any(part.startswith("_") for part in parts), name
        head, rest = parts[0], parts[1:]
        try:
            obj = getattr(divcurl, head) if hasattr(divcurl, head) else \
                importlib.import_module(f"divcurl.{head}")
        except ImportError:
            raise AssertionError(f"{name}: {head} is not in divcurl") from None
        for part in rest:
            assert hasattr(obj, part), name
            obj = getattr(obj, part)
