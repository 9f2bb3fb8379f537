"""The traced benchmark run (`bench/traced.py`) wraps functions and methods
by name; every name it lists must still resolve, or a rename would leave its
layer silently unmeasured."""
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACED = Path(__file__).resolve().parents[1] / "bench" / "traced.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("bench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


traced = load_traced()


@pytest.mark.parametrize("layer", sorted(traced.LAYERS))
def test_layer_names_resolve(layer):
    modname, names = traced.LAYERS[layer]
    module = importlib.import_module("tgw." + modname)
    if names is None:
        assert traced._public(module), f"{layer}: tgw.{modname} defines no public function"
        return
    for name in names:
        owner, _, attr = name.rpartition(".")
        if owner:
            # wrapped through the class's own namespace, so it must be
            # defined there, not inherited
            cls = getattr(module, owner, None)
            assert inspect.isclass(cls), f"{layer}: no class tgw.{modname}.{owner}"
            assert inspect.isfunction(vars(cls).get(attr)), f"{layer}: no method {name}"
        else:
            assert inspect.isfunction(getattr(module, attr, None)), \
                f"{layer}: no function tgw.{modname}.{attr}"


def test_cli_handlers_are_functions():
    import tgw.cli as cli
    assert cli.HANDLERS and all(map(inspect.isfunction, cli.HANDLERS.values()))
