"""The benchmark's traced mode looks up each per-layer metric
`<layer>.<function>.<metric>` by the public function it wraps; a name
that is no longer in its module's `__all__` makes every traced run fail.
BENCHMARK.json is read, never written."""

import importlib
import json
from pathlib import Path

LAYERS = ("polybasis", "kernel", "solver", "bifurcation", "dynamics", "cli")
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_per_layer_metrics_name_public_functions():
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    pairs = {tuple(name.split(".")[:2]) for name in names
             if name.count(".") == 2 and name.split(".")[0] in LAYERS}
    assert len(pairs) >= 10
    missing = []
    for layer, function in sorted(pairs):
        module = importlib.import_module(f"onsager.{layer}")
        if not (function in module.__all__
                and callable(getattr(module, function, None))):
            missing.append(f"{layer}.{function}")
    assert missing == []
