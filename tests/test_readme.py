"""The README's library quick start runs as written."""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    """The first Python block after the README's library quick-start
    heading."""
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quick_start_runs_as_written():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quick_start(), str(README), "exec"), {})
    g_minus, p0_renorm, closed_gap = map(float, out.getvalue().split())
    # the magnitudes the block's comments state
    assert g_minus <= 1e-10
    assert 1e-3 <= p0_renorm <= 3e-3
    assert closed_gap <= 1e-5
