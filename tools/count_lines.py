#!/usr/bin/env python3
"""Count the source lines of nh-sta's package.

    python3 tools/count_lines.py [TREE]

TREE is a checkout of this repository (the current directory if not
given).  Three counts of ``TREE/src/nhsta/*.py`` are printed:

* ``total``: every line;
* ``code``: the lines left without comments, docstrings and blank lines,
  that is the lines holding a token other than a comment, found with
  :mod:`tokenize`, outside the docstring spans that :mod:`ast` gives;
* ``core``: the total lines of the package modules that a fresh child
  ``import nhsta.cli`` holds, the start-up core every command loads.

Only the stdlib is used.
"""
import ast
import io
import json
import os
import subprocess
import sys
import tokenize
from pathlib import Path

#: token types that hold no code
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set:
    """Line numbers of the docstrings of the module, its classes and its
    functions."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The lines of ``source`` that hold code: a token other than a
    comment, outside every docstring."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def core_modules(tree: Path) -> list:
    """Names of the package modules a fresh ``import nhsta.cli`` child run
    from ``tree``'s source holds, ``nhsta`` itself as ``__init__``."""
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    script = ("import json, sys, nhsta.cli; print(json.dumps(sorted("
              "name for name in sys.modules if name.split('.')[0] == "
              "'nhsta')))")
    names = json.loads(subprocess.run(
        [sys.executable, "-c", script], env=env, check=True,
        capture_output=True, text=True).stdout)
    return [name.partition(".")[2] or "__init__" for name in names]


def counts(tree: Path) -> dict:
    """The ``total``, ``code`` and ``core`` counts of ``tree``."""
    sources = {path.stem: path.read_text()
               for path in sorted((tree / "src" / "nhsta").glob("*.py"))}
    total = {name: len(text.splitlines()) for name, text in sources.items()}
    return {"total": sum(total.values()),
            "code": sum(map(code_lines, sources.values())),
            "core": sum(total[name] for name in core_modules(tree))}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    found = counts(Path(argv[0] if argv else "."))
    print(f"src/nhsta: {found['total']} lines, {found['code']} without "
          f"comments, docstrings and blank lines; start-up core "
          f"{found['core']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
