"""The library names that the benchmark's tracer (`perfbench/spans.py`)
wraps by name.  A rename in `src/` would otherwise leave a traced run
measuring nothing, or failing, with no tier-1 test noticing."""
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
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


def test_the_tracer_sees_the_layers_the_cli_imports_at_call_time(tmp_path):
    # the CLI imports torusalg, specseq and facering inside `run`, after the
    # tracer has rebound their functions; it must get the wrapped ones.  The
    # job runs in a fresh interpreter: `install` rebinds the package for good.
    import torushom
    from torushom.fixtures import preset_charmap
    from torushom.formats import write_charmap

    charmap = tmp_path / "t7.lam"
    charmap.write_text(write_charmap(preset_charmap("torus_7")), encoding="utf-8")
    code = ("import contextlib, io, json, sys\n"
            f"sys.path.insert(0, {str(SPANS.parent)!r})\n"
            "import spans\nfrom torushom import cli\n"
            "tracer = spans.Tracer()\nspans.install(tracer)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = cli.main(sys.argv[1:])\n"
            "print(json.dumps([status, sorted({s[0] for s in tracer.spans})]))")
    src = str(Path(torushom.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code, "all", "--preset", "torus_7",
                          "--charmap", str(charmap)], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True).stdout
    status, names = json.loads(out)
    assert status == 0
    assert {"torusalg.keylemma_check", "facering.relation_system",
            "specseq.theorem_checks"} <= set(names)
