"""Every callable the benchmark's traced run wraps still exists, and its
counting hooks read the arguments they name.

`perfbench/layers.py` names its targets as strings (`scale_fu.<module>`,
then a function or `Class.method`); a rename under `src/` would otherwise
surface only when the benchmark runs. A hook reads an argument with
`_arg(args, kwargs, pos, "key")`: if `key` is not the parameter at `pos`, the
hook counts the wrong value, or fails, only in traced runs. The file is read,
never changed.
"""

import ast
import functools
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
SETUP_PROBE = LAYERS.with_name("setup_probe.py")


def traced_targets():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = layers   # its dataclasses look their module up
    try:
        spec.loader.exec_module(layers)
    finally:
        del sys.modules[spec.name]
    return layers.TARGETS


def resolve(module: str, attr: str):
    obj = importlib.import_module(f"scale_fu.{module}")
    return functools.reduce(getattr, attr.split("."), obj)


def resolves(module: str, attr: str) -> bool:
    try:
        resolve(module, attr)
    except (ImportError, AttributeError):
        return False
    return True


def hook_args(name: str) -> list[tuple[int, str]]:
    """(pos, key) of each `_arg(args, kwargs, pos, "key")` call in the hook
    function `name` of perfbench/layers.py."""
    tree = ast.parse(LAYERS.read_text())
    hook = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == name)
    return [(call.args[2].value, call.args[3].value) for call in ast.walk(hook)
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_arg"]


def test_every_traced_target_resolves():
    targets = traced_targets()
    assert targets
    missing = [t.name for t in targets if not resolves(t.module, t.attr)]
    assert not missing, f"perfbench/layers.py traces names that no longer exist: {missing}"


def test_hook_arguments_match_traced_signatures():
    checked = 0
    for t in traced_targets():
        if t.hook is None:
            continue
        params = list(inspect.signature(resolve(t.module, t.attr)).parameters)
        for pos, key in hook_args(t.hook.__name__):
            assert pos < len(params) and params[pos] == key, (
                f"{t.hook.__name__} reads {t.name} argument {pos} as {key!r}; "
                f"the parameters are {params}")
            checked += 1
    assert checked


def test_setup_probe_names_resolve_on_cli():
    # the set-up probe calls builders that `cli` imports from `pipeline`;
    # tier-1 never runs the probe, so a missing import would show only as a
    # failed benchmark set-up
    tree = ast.parse(SETUP_PROBE.read_text())
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "cli"}
    assert names
    missing = sorted(name for name in names if not resolves("cli", name))
    assert not missing, f"perfbench/setup_probe.py reads names cli lacks: {missing}"
