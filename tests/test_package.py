import importlib
import sys
from pathlib import Path

import pointproc
import pointproc.cli
import pointproc.io
from pointproc import core, detect, spatial, temporal

MODULES = (core, detect, spatial, temporal)
BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_all_is_the_sorted_union_of_the_module_lists():
    union = sorted({name for module in MODULES for name in module.__all__})
    assert pointproc.__all__ == [*union, "__version__"]
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(pointproc, name)
            assert obj is getattr(module, name)
            home = sys.modules.get(getattr(obj, "__module__", None) or "")
            if home is not None:  # re-exported names are the defining module's object
                assert getattr(home, name) is obj


def test_bench_layers_wrap_every_name_and_uninstall(monkeypatch):
    # bench/ is read, never written: no bytecode cache is left behind
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    try:
        owners = (pointproc.cli, pointproc.io, spatial, detect, temporal.IntensityFn,
                  core.RngStream)
        before = {id(o): dict(vars(o)) for o in owners}
        patches = layers.install(layers.Recorder(), pointproc)
        assert len(patches) == 36
        layers.uninstall(patches)
        for owner in owners:
            after = vars(owner)
            assert all(after[k] is v for k, v in before[id(owner)].items())
    finally:
        sys.modules.pop("layers", None)
