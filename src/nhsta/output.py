"""What every command writes: tables, manifests, ``uncertified:`` lines,
and the one loop that builds, runs, records and flags the shortcut runs of
``sweep``, ``figure3`` and ``figure4`` (:meth:`OutputSet.record_runs`).
Beside that loop sits the ``sweep`` command it drives, :func:`cmd_sweep`.
This module loads with ``sweep`` or a figure command, never ``verify``.

A table is formatted by one ``%`` per block of rows, and written and hashed
(by the interpreter's built-in SHA-256, so OpenSSL is never loaded) block by
block.  A JSON table and the manifest share one layout, the bytes of
``json.dumps(..., indent=1, default=str)``, so no command imports ``json``.
This module never imports ``cli``, which ``python -m nhsta.cli`` runs as
``__main__``."""
from __future__ import annotations

import sys
import time
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .errors import ConfigError
from .experiments import CERTIFIED_BY, RUN_CHECKS, shortcut_tables

#: ``float.__repr__`` of a non-finite float -> its JSON spelling
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _sha256():
    """A new SHA-256 hasher.

    Taken from the interpreter's built-in module (``_sha2`` on Python
    3.12+, ``_sha256`` before): ``hashlib`` maps OpenSSL's libcrypto, about
    3.5 MB of resident memory, to hash a few kilobytes.  ``hashlib`` serves
    only an interpreter built without either module; the digest is the same.
    """
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256()


def _json_quote():
    """``_json``'s C encoder of text as an ASCII JSON string, else ``json``'s
    Python one, which writes the same; imported where a file is written."""
    try:
        from _json import encode_basestring_ascii as quote
    except ImportError:
        from json.encoder import py_encode_basestring_ascii as quote
    return quote


def _json_text(value, indent: str = "\n", quote=None) -> str:
    """``value`` as ``json.dumps(value, indent=1, default=str)`` writes it,
    its nested lines led by ``indent``: text ASCII-escaped by ``quote``,
    None, bools and ints as JSON spells them, floats by ``float.__repr__``
    (NaN, Infinity and -Infinity when not finite), lists, tuples and dicts
    with text keys one item a line, any other value as its ``str``."""
    quote = quote or _json_quote()
    if isinstance(value, str):
        return quote(value)
    if value is None or isinstance(value, bool):
        return {None: "null", True: "true", False: "false"}[value]
    if isinstance(value, (int, float)):
        spelled = (int if isinstance(value, int) else float).__repr__(value)
        return _NON_FINITE.get(spelled, spelled)
    inner = indent + " "
    if isinstance(value, dict):
        items = [f"{quote(key)}: {_json_text(item, inner, quote)}"
                 for key, item in value.items()]
    elif isinstance(value, (list, tuple)):
        items = [_json_text(item, inner, quote) for item in value]
    else:
        return quote(str(value))
    ends = "{}" if isinstance(value, dict) else "[]"
    if not items:
        return ends
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1]


#: rows of a table formatted, written and hashed at a time
CSV_BLOCK_ROWS = 1024


def _csv_blocks(header: Sequence[str], columns: Sequence) -> Iterator[bytes]:
    """The bytes of a CSV table in blocks of up to CSV_BLOCK_ROWS rows, the
    header line leading the first, so no block is empty.  A block is one
    ``%`` operation; a column's cells share the format of its first: ``%s``
    for text, integers and Python bools, ``%.17g`` for other numbers."""
    line = ",".join("%s" if isinstance(v, (str, int, np.integer)) else "%.17g"
                    for v in next(zip(*columns), ())) + "\n"
    rows, lines = zip(*columns), line * CSV_BLOCK_ROWS
    text = ",".join(header) + "\n"
    while True:
        cells = tuple(chain.from_iterable(islice(rows, CSV_BLOCK_ROWS)))
        text += lines[:len(cells) // len(columns) * len(line)] % cells
        if not text:
            return
        yield text.encode()
        text = ""


def _json_blocks(header: Sequence[str], columns: Sequence) -> Iterator[bytes]:
    """The bytes of the JSON table ``{"columns": header, "rows": rows}`` in
    :func:`_json_text`'s layout, in blocks of up to CSV_BLOCK_ROWS rows,
    each one ``%`` operation.  Text, Python bools and floats are kept; a
    column of other numbers is made float64 first, so an integer reads
    ``5.0``.  A column's cells are spelled by the rule of its first."""
    cells, quote = [], _json_quote()
    for c in columns:
        if len(c) and not isinstance(c[0], (str, bool, float)):
            c = np.asarray(c, dtype=float)
        first = c[0] if len(c) else 0.0
        cells.append(map(quote, c) if isinstance(first, str)
                     else map(("false", "true").__getitem__, c)
                     if isinstance(first, bool) else map(float.__repr__, c))
    rows = zip(*cells)
    line = ",\n  [" + ",".join(["\n   %s"] * len(columns)) + "\n  ]"
    lines, skip = line * CSV_BLOCK_ROWS, 1  # no comma before the first row
    text = ('{\n "columns": ' + _json_text(list(header), "\n ", quote)
            + ',\n "rows": [')
    while block := tuple(chain.from_iterable(islice(rows, CSV_BLOCK_ROWS))):
        text += lines[skip:len(block) // len(columns) * len(line)] % block
        # a float is the only cell whose line does not start with a quote
        for spelled, name in _NON_FINITE.items():
            text = text.replace("\n   " + spelled, "\n   " + name)
        yield text.encode()
        text, skip = "", 0
    yield (text + ("]" if skip else "\n ]") + "\n}\n").encode()


def _write(path: Path, blocks: Iterable[bytes], what: str,
           digest=None) -> None:
    """Write ``blocks`` to ``path`` in order, each also fed to the hasher
    ``digest`` if one is given, raising an OSError as a ConfigError."""
    try:
        with path.open("wb") as f:
            for block in blocks:
                f.write(block)
                if digest is not None:
                    digest.update(block)
    except OSError as exc:
        raise ConfigError(f"cannot write {what} {str(path)!r}: "
                          f"{exc.strerror}") from None


class OutputSet:
    """Collects emitted tables plus run metadata into a manifest, and
    counts the uncertified runs it records."""

    def __init__(self, cfg: ExperimentConfig, command: str):
        self.dir = Path(cfg.out)
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # e.g. --out names an existing file
            raise ConfigError(f"cannot create output directory {cfg.out!r}: "
                              f"{exc.strerror}") from None
        self.fmt = cfg.format
        self.command = command
        self.config_echo = {name: getattr(cfg, name) for name in cfg.FIELDS}
        self.files: list = []
        self.runs: list = []
        self.uncertified = 0

    def emit(self, name: str, header: Sequence[str], columns: Sequence) -> Path:
        """Write one table, streamed in blocks, and record its SHA-256 for
        the manifest.  The cells of a column share one type."""
        path = self.dir / f"{name}.{self.fmt}"
        blocks = (_csv_blocks if self.fmt == "csv" else _json_blocks)(
            header, columns)
        digest = _sha256()
        _write(path, blocks, "table", digest)
        self.files.append({"path": path.name,
                           "sha256": digest.hexdigest()})
        return path

    def record_runs(self, cfg: ExperimentConfig, gamma: float,
                    emit=None) -> None:
        """Run every policy and initial state of one decay rate, passing
        each :class:`~nhsta.experiments.ShortcutRun` to ``emit`` if given,
        then record each run's manifest entry and flag it if uncertified.

        The policies share one angle path and H0, and each policy's table
        is run from every initial state, then freed before the next is
        built.  A run's ``wall_time_s`` is its own run and metrics, plus an
        equal share of its table's build and of the decay rate's shared
        build.  The ``uncertified:`` lines follow every run of the decay
        rate, so a failure in a later table prints none of them."""
        started = time.perf_counter()
        pulse, regime = cfg.pulse_for(gamma), cfg.regime_for(gamma)
        tables = shortcut_tables(pulse, cfg.grid, cfg.policies)
        n_states = len(cfg.initial_states)
        gamma_share = ((time.perf_counter() - started)
                       / (len(cfg.policies) * n_states))
        runs = []
        for policy in cfg.policies:
            started = time.perf_counter()
            table = next(tables)
            share = gamma_share + (time.perf_counter() - started) / n_states
            for initial in cfg.initial_states:
                started = time.perf_counter()
                run = table.run(initial)
                metrics = run.metrics
                runs.append({"gamma": gamma, "policy": policy,
                             "initial_state": initial, "wall_time_s":
                             share + time.perf_counter() - started,
                             "regime": regime, **metrics})
                if emit is not None:
                    emit(run)
                del run  # free it before the next state's run is built
            del table  # free it before the next policy's table is built
        self.runs += runs
        self.uncertified += sum(map(_flag_uncertified, runs))

    def write_manifest(self) -> Path:
        path = self.dir / f"{self.command}_manifest.json"
        payload = {
            "command": self.command,
            "version": __version__,
            "config": self.config_echo,
            "runs": self.runs,
            "files": self.files,
        }
        _write(path, [(_json_text(payload) + "\n").encode()], "manifest")
        return path


def cmd_sweep(cfg: ExperimentConfig) -> int:
    """Cross-product gamma x policy x initial state, one metrics row each:
    a row is its run's manifest entry without ``wall_time_s``.

    Uncertified rows are flagged in the table and on stderr, and make the
    exit status 1 (the table and manifest are still written).
    """
    gammas = cfg.gammas()  # no default decay rates: refuses a missing list
    out = OutputSet(cfg, "sweep")
    for gamma in gammas:
        out.record_runs(cfg, gamma)
    header = [key for key in out.runs[0] if key != "wall_time_s"]
    out.emit("sweep", header, [[run[key] for run in out.runs]
                               for key in header])
    out.write_manifest()
    return 1 if out.uncertified else 0


def _flag_uncertified(run: dict) -> bool:
    """Print one stderr line for an uncertified manifest entry; True if it
    was."""
    if run["certified"]:
        return False
    readings = " ".join(f"{key}={run[key]:.3e} "
                        f"(bound {RUN_CHECKS[name][0]:g})"
                        for key, name in CERTIFIED_BY.items())
    print(f"uncertified: gamma={run['gamma']:g} policy={run['policy']} "
          f"initial_state={run['initial_state']} {readings}", file=sys.stderr)
    return True
