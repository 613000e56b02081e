import ast
import importlib
import pkgutil
from pathlib import Path

import coinwalk


def test_every_exported_name_resolves():
    # a name left in __all__ or in the package imports after its definition
    # is removed would only fail at `from ... import *` or at first import
    missing = []
    for info in pkgutil.iter_modules(coinwalk.__path__):
        module = importlib.import_module(f"coinwalk.{info.name}")
        names = getattr(module, "__all__", ())
        missing += [f"coinwalk.{info.name}.{name}" for name in names if not hasattr(module, name)]

    tree = ast.parse(Path(coinwalk.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"coinwalk.{node.module}")
        for alias in node.names:
            if not (hasattr(module, alias.name) and hasattr(coinwalk, alias.asname or alias.name)):
                missing.append(f"coinwalk.{node.module}.{alias.name}")
    assert not missing, missing


def test_no_module_imports_a_private_name_of_a_sibling():
    # a private helper another module needs belongs in that module's public API
    private = []
    for path in sorted(Path(coinwalk.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            sibling = isinstance(node, ast.ImportFrom) and (
                node.level == 1 or (node.module or "").split(".")[0] == "coinwalk"
            )
            if sibling:
                private += [
                    f"{path.name}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.endswith("__")  # dunders are public
                ]
    assert not private, private


def test_the_top_level_leaves_out_what_only_tests_and_the_benchmark_call():
    # each stays in its module, where benchmarks/spans.py wraps it or CI calls it by name
    for module, name in (
        ("walk", "evolve"),
        ("asymptotics", "classify_spreading"),
        ("asymptotics", "drift_sign"),
        ("coins", "random_coin_spec"),
    ):
        assert not hasattr(coinwalk, name), name
        assert name in importlib.import_module(f"coinwalk.{module}").__all__
