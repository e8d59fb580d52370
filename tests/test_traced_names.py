"""Every callable the benchmark's traced run wraps still exists.

`perfbench/layers.py` names its targets as strings (`scale_fu.<module>`,
then a function or `Class.method`); a rename under `src/` would otherwise
surface only when the benchmark runs. The file is read, never changed.
"""

import functools
import importlib
import importlib.util
import sys
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def traced_targets():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = layers   # its dataclasses look their module up
    try:
        spec.loader.exec_module(layers)
    finally:
        del sys.modules[spec.name]
    return layers.TARGETS


def resolves(module: str, attr: str) -> bool:
    try:
        obj = importlib.import_module(f"scale_fu.{module}")
        functools.reduce(getattr, attr.split("."), obj)
    except (ImportError, AttributeError):
        return False
    return True


def test_every_traced_target_resolves():
    targets = traced_targets()
    assert targets
    missing = [t.name for t in targets if not resolves(t.module, t.attr)]
    assert not missing, f"perfbench/layers.py traces names that no longer exist: {missing}"
