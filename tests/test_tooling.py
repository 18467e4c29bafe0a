"""The benchmark's tracing script still finds every name it wraps."""
import ast
import importlib.util
from pathlib import Path

import nhsta.experiments as experiments

TRACE_CHILD = Path(__file__).resolve().parents[1] / "bench" / "trace_child.py"


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


def test_unused_experiments_imports_are_traced_names():
    # experiments keeps unused imports only so the tracer can wrap them;
    # once the tracer stops patching a name, its import must go too
    source = Path(experiments.__file__).read_text()
    lines = source.splitlines()
    kept = [alias.asname or alias.name
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and "# noqa: F401" in lines[node.end_lineno - 1]
            for alias in node.names]
    traced = {attr for owner, attr, _ in load_patches()
              if owner is experiments}
    assert kept
    assert [name for name in kept if name not in traced] == []
