import os
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent / "src"))


@pytest.fixture
def two_cpus(monkeypatch):
    """This process may run on two CPUs, so large passes run side by side on any host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
