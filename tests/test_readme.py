"""The README's library quick start runs as written, its example
configuration file is one the CLI reads, and its table of run checks and
its certified rule are the package's."""
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


def test_example_config_parses_validates_and_names_options(tmp_path):
    from nhsta.config import OPTIONS, ExperimentConfig
    from nhsta.readers import parse_config_file
    text = README.read_text()
    block = re.search(r"```\n(# example\.cfg\n.*?)```", text, re.DOTALL)
    path = tmp_path / "example.cfg"
    path.write_text(block.group(1))
    ExperimentConfig(**parse_config_file(str(path))).validate()
    keys = [line.split("=", 1)[0].strip()
            for line in block.group(1).splitlines()[1:] if line.strip()]
    assert keys and set(keys) <= {name for name, *_ in OPTIONS}


def test_run_checks_table_and_certified_rule_match_the_package():
    from nhsta.experiments import CERTIFIED_BY, RUN_CHECKS
    text = README.read_text()
    table = text[text.index("| check | bound | what it reads |"):]
    rows = re.findall(r"^\| `([a-z0-9-]+)\[gamma=…\]` \| ([^ |]+) \|",
                      table.split("\n\n")[0], re.MULTILINE)
    assert [(name, float(bound)) for name, bound in rows] == [
        (name, bound) for name, (bound, *_) in RUN_CHECKS.items()]
    start = text.index("A run is *certified* when")
    rule = text[start:text.index(";", start)]
    named = re.findall(r"`([a-z0-9-]+)` check.*?is at most (\S+)", rule,
                       re.DOTALL)
    assert [(name, float(bound)) for name, bound in named] == [
        (name, RUN_CHECKS[name][0]) for name in CERTIFIED_BY.values()]
