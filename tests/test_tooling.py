"""The benchmark's tracing script still finds every name it wraps."""
import importlib.util
from pathlib import Path

TRACE_CHILD = Path(__file__).resolve().parents[1] / "bench" / "trace_child.py"


def test_trace_patches_resolve():
    spec = importlib.util.spec_from_file_location("trace_child", TRACE_CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in module.PATCHES
               if not callable(getattr(owner, attr, None))]
    assert module.PATCHES
    assert missing == []
