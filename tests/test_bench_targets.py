"""The benchmark's tracer patches divcurl by name: every name it patches must exist."""

import importlib
import importlib.util
import inspect
import pathlib

SPANS_PATH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_in_divcurl():
    spans = _spans_module()
    for entry in spans.SPANS + spans.COUNTS:
        module = importlib.import_module(f"divcurl.{entry[0]}")
        owner_name, attr = entry[1], entry[2]
        if owner_name is None:
            target = getattr(module, attr, None)
            assert callable(target), f"divcurl.{entry[0]}.{attr} is gone"
        else:
            owner = getattr(module, owner_name)
            assert attr in owner.__dict__, f"divcurl.{entry[0]}.{owner_name}.{attr} is gone"
            target = owner.__dict__[attr]
        if len(entry) > 4 and entry[4] == "pairs":
            # the pair counter binds the oracle's lattice keywords by name
            params = inspect.signature(target).parameters
            assert {"n_radial", "n_angular", "n_boundary"} <= set(params)
