"""ROADMAP's "What the checks miss" table, as a characterization test.

One row per invocation of that table, plus the defaults.  A row pins, for
each decay rate that ``verify`` runs under those flags, what the program
does today: whether the hermitian-realizable eigen-plus run (the run of
``verify`` and ``figure3``) is certified, and which of its ``verify``
checks fail.  A row that is wrong today names the ROADMAP item meant to
flip it; a change that flips a row on purpose edits that row.
"""
import pytest

from nhsta.cli import build_parser
from nhsta.config import build_config
from nhsta.experiments import run_shortcut
from nhsta.verify import VERIFY_DEFAULT_GAMMAS

OK = (True, set())
CLOSED_FORM = {"closed-form-vs-ode"}
FRAME = {"frame-coupling-21", "max-abs-g-minus"}

#: (flags, {gamma: (certified, failing checks)}, item meant to flip it)
ROWS = [
    ("", {0.1: OK, 0.3: OK, 1.0: OK, 3.0: OK}, None),
    ("--gamma 30", {30.0: (True, FRAME)}, "item 8"),
    ("--gamma 25", {25.0: (True, FRAME)}, "item 8"),
    ("--gamma 1.7", {1.7: (True, CLOSED_FORM)}, "item 2"),
    ("--gamma 1.9", {1.9: (True, CLOSED_FORM)}, "item 2"),
    ("--t-final 3", {0.1: OK, 0.3: OK, 1.0: OK, 3.0: (True, CLOSED_FORM)},
     "item 2"),
    ("--t-final 5", {0.1: OK, 0.3: OK, 1.0: (True, CLOSED_FORM),
                     3.0: (True, CLOSED_FORM)}, "item 2"),
    ("--steps 1000", {0.1: OK, 0.3: OK, 1.0: (True, CLOSED_FORM),
                      3.0: (True, CLOSED_FORM)}, "item 2"),
    ("--gamma 0.3 --steps 400", {0.3: (True, CLOSED_FORM)}, "item 2"),
    ("--gamma 2.1", {2.1: (True, CLOSED_FORM)}, "item 2"),
    ("--gamma 2.05",
     {2.05: (False, CLOSED_FORM | {"angle-rate", "convergence"})}, "item 9"),
    ("--gamma 1.99",
     {1.99: (False, CLOSED_FORM | {"angle-rate", "convergence",
                                   "max-abs-g-minus"})}, "item 9"),
    ("--gamma 20", {20.0: OK}, None),
    ("--gamma 18", {18.0: OK}, None),
    ("--gamma 2.5", {2.5: OK}, None),
    ("--t-final 2", {0.1: OK, 0.3: OK, 1.0: OK, 3.0: OK}, None),
    ("--steps 2000", {0.1: OK, 0.3: OK, 1.0: OK, 3.0: OK}, None),
    ("--delta0 20", {0.1: OK, 0.3: OK, 1.0: OK, 3.0: OK}, None),
    ("--delta0 30 --gamma 1", {1.0: OK}, None),
    # the pulse rescaled by lambda: tau and the window times lambda,
    # omega0, delta0 and gamma over it
    ("--tau 1e-2 --t-final 1e-2 --omega0 1e2 --delta0 9e2 --gamma 1e2,3e2",
     {1e2: OK, 3e2: OK}, None),
    ("--tau 1e-3 --t-final 1e-3 --omega0 1e3 --delta0 9e3 --gamma 1e3,3e3",
     {1e3: OK, 3e3: OK}, None),
    ("--tau 1e-4 --t-final 1e-4 --omega0 1e4 --delta0 9e4 --gamma 1e4,3e4",
     {1e4: OK, 3e4: OK}, None),
    ("--tau 1e-5 --t-final 1e-5 --omega0 1e5 --delta0 9e5 --gamma 1e5,3e5",
     {1e5: (False, {"nullification-residual"}), 3e5: OK}, "item 6"),
    ("--tau 1e-6 --t-final 1e-6 --omega0 1e6 --delta0 9e6 --gamma 1e6,3e6",
     {1e6: (False, {"nullification-residual"}),
      3e6: (False, {"nullification-residual"})}, "item 6"),
]


def configured(flags: str):
    """The configuration ``nh-sta verify FLAGS`` runs."""
    overrides = vars(build_parser().parse_args(["verify", *flags.split()]))
    del overrides["command"]
    cfg = build_config(overrides.pop("config"), **overrides)
    cfg.validate()
    return cfg


@pytest.mark.parametrize("flags, expected, item", ROWS,
                         ids=[flags or "defaults" for flags, *_ in ROWS])
def test_gap_table_row(flags, expected, item):
    cfg = configured(flags)
    found = {}
    for gamma in cfg.gammas(VERIFY_DEFAULT_GAMMAS):
        run = run_shortcut(cfg.pulse_for(gamma), cfg.grid)
        found[gamma] = (run.metrics["certified"],
                        {name for name, _, _, ok in run.checks() if not ok})
    assert found == expected, (f"a row meant to flip with ROADMAP {item}"
                               if item else "a row that passes every check")
