"""The benchmark's tracing script still finds every name it wraps."""
import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import nhsta
import nhsta.cli

TRACE_CHILD = Path(__file__).resolve().parents[1] / "bench" / "trace_child.py"
MODULES = [importlib.import_module(f"nhsta.{info.name}")
           for info in pkgutil.iter_modules(nhsta.__path__)]


def load_patches():
    spec = importlib.util.spec_from_file_location("trace_child", TRACE_CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


def test_trace_patches_resolve():
    patches = load_patches()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in patches
               if not callable(getattr(owner, attr, None))]
    assert patches
    assert missing == []


def kept_imports(module):
    """Names a module imports under ``# noqa: F401``."""
    source = Path(module.__file__).read_text()
    lines = source.splitlines()
    return [alias.asname or alias.name
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and "# noqa: F401" in lines[node.end_lineno - 1]
            for alias in node.names]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_unused_imports_are_traced_names(module):
    # a module keeps an unused import only so the tracer can wrap it there;
    # once the tracer stops patching a name, its import must go too
    traced = {attr for owner, attr, _ in load_patches() if owner is module}
    assert [name for name in kept_imports(module) if name not in traced] == []


def test_kept_imports_are_found():
    # the guard above reads the imports it checks
    assert "integrate" in kept_imports(nhsta.cli)
