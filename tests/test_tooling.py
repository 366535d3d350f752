import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import dirachl

MODULES = ["dirachl"] + [f"dirachl.{m.name}" for m in pkgutil.iter_modules(dirachl.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", []) if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"


def test_perfbench_spans_resolve():
    # perfbench wraps these names at run time and only reports a missing one
    path = Path(__file__).parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = list(spans.LAYERS.values()) + list(spans.JSON_CODEC)
    missing = []
    for module, attr_path in targets:
        owner = importlib.import_module(module)
        for part in attr_path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module}.{attr_path}")
    assert not missing, f"perfbench/spans.py names missing in dirachl: {missing}"
