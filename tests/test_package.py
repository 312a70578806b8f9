import ast
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


# (owner, attribute) of every name bench/layers.py wraps
WRAPPED = {
    *(("pointproc.io", a) for a in (
        "read_points_csv", "read_space_time_csv", "read_geojson_points", "read_count_values",
        "write_event_times", "write_points_csv", "write_grid_csv", "write_curve_csv",
        "write_scan_csv")),
    *(("pointproc.cli", a) for a in (
        "space_time_scan", "gi_star", "aggregate_to_grid", "csr_envelope", "simulate_csr",
        "kde_surface", "mean_min_distance", "quadrat_counts", "dispersion_by_block",
        "simulate_hpp", "simulate_nhpp", "simulate_hawkes")),
    ("pointproc.detect", "indexed_map"),
    *(("pointproc.spatial", a) for a in (
        "simulate_csr", "indexed_map", "g_function", "f_function", "ripleys_k",
        "mean_min_distance")),
    *(("IntensityFn", a) for a in ("constant", "piecewise", "sinusoid")),
    ("RngStream", "substream"),
}


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
        assert sorted((owner.__name__, attr) for owner, attr, _ in patches) == sorted(WRAPPED)
        layers.uninstall(patches)
        for owner in owners:
            after = vars(owner)
            assert all(after[k] is v for k, v in before[id(owner)].items())
    finally:
        sys.modules.pop("layers", None)


def test_no_module_imports_a_name_it_neither_uses_nor_exports():
    for path in sorted(Path(pointproc.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        module = importlib.import_module(f"pointproc.{path.stem}")
        assert imported - used - set(getattr(module, "__all__", ())) == set(), path.name
