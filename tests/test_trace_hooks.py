"""The library names that the benchmark's tracer (`perfbench/spans.py`)
wraps by name.  A rename in `src/` would otherwise leave a traced run
measuring nothing, or failing, with no tier-1 test noticing."""
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(dotted):
    layer, *path = dotted.split(".")
    obj = importlib.import_module(f"torushom.{layer}")
    for name in path:
        obj = getattr(obj, name)
    return obj


spans = _spans()


@pytest.mark.parametrize("layer, cls_name, method",
                         [(layer, cls_name, m) for layer, classes in spans.METHODS.items()
                          for cls_name, methods in classes.items() for m in methods])
def test_every_wrapped_method_is_defined_on_its_class(layer, cls_name, method):
    cls = getattr(importlib.import_module(f"torushom.{layer}"), cls_name)
    assert method in vars(cls)


@pytest.mark.parametrize("key", sorted(spans.KEYED))
def test_every_keyed_function_binds_the_poset_and_the_field(key):
    params = inspect.signature(_resolve(spans.KEYED[key])).parameters
    assert "S" in params and "field" in params
