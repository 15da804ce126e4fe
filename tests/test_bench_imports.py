"""Every kacbath name the benchmark under bench/ uses must still exist.

The benchmark's own self-test would find a deleted name too, but only after
a full run; this parses bench/*.py and resolves the names in seconds.
"""
import ast
import importlib
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _resolve(module: str, name: str):
    """The object `from module import name` binds, or None if there is none."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return None


def _kacbath_uses(path: Path):
    """(line, module, name) for each `from kacbath... import name`, and for each
    attribute read `alias.attr` on a kacbath module bound by an import."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == "kacbath":
            for alias in node.names:
                yield node.lineno, node.module, alias.name
                if isinstance(_resolve(node.module, alias.name), types.ModuleType):
                    modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "kacbath" and alias.asname:
                    modules[alias.asname] = alias.name
                elif alias.name == "kacbath":
                    modules["kacbath"] = "kacbath"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            yield node.lineno, modules[node.value.id], node.attr


def test_bench_kacbath_names_resolve():
    uses = [(path.name, *use) for path in sorted(BENCH.glob("*.py")) for use in _kacbath_uses(path)]
    assert len(uses) >= 10  # the scan sees the benchmark's imports
    missing = [f"{file}:{line}: {module}.{name}" for file, line, module, name in uses
               if _resolve(module, name) is None]
    assert not missing, missing
