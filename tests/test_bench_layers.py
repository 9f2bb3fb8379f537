"""The benchmark names the code it runs by strings.  The traced run
(`bench/traced.py`) wraps functions and methods by name, and every name it
lists must still resolve, or a rename would leave its layer silently
unmeasured.  Each op in `bench/ops.py` is a command line, and every flag it
passes must be one its command reads, or the op would be refused."""
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


traced = load("traced")


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


def test_benchmark_ops_parse():
    from tgw.cli import config_from_args
    ops = load("ops")
    for workload in ops.WORKLOADS.values():
        for op in workload:
            config_from_args(op.argv)   # exits 2 on a flag its command does not read


def test_every_benchmark_op_is_pinned():
    # an op's report is pinned at exit 0, or, for a known defect, at the
    # defect's exit code until the fix re-pins it at exit 0
    from test_cli import PINNED_REPORTS
    pinned = {(argv, code) for argv, code, _ in PINNED_REPORTS}
    ops = load("ops")
    unpinned = [op.text for workload in ops.WORKLOADS.values() for op in workload
                if not {(op.text, 0), (op.text, op.fails and op.fails[0])} & pinned]
    assert unpinned == []
