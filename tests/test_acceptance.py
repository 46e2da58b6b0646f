"""Acceptance suite: one test per criterion, each printing its verdict line.

The criteria are defined once, in ``privhist.experiments``, and
``privhist repro --suite NAME`` writes the same line to stderr.  Run with
`pytest tests/test_acceptance.py -v -s` to see the lines as they complete.
Every criterion runs at seed 0, with its stated tolerances as-is, and its
report, less the summary line, must keep the sha256 that
``golden_digests.json`` pins (see ``tests/test_golden_digests.py``).
"""

import pytest

from privhist.experiments import SUITES, run_suite, verdict_line
from test_golden_digests import digest, load_fixture

# criterion NN is entry NN; the README and CHANGES.md cite these numbers
NUMBERED = (
    "eq2-sandwich",
    "nested-ball-ratio",
    "lemma21-decay",
    "greedy-split-roundness",
    "lemma24-roundness",
    "thm31-bound",
    "lemma32-slope",
    "thm11-trend",
    "mst-gap",
    "conservation-determinism",
    "lemma33-fit",
)


@pytest.mark.parametrize("name", SUITES)
def test_criterion(name):
    assert set(NUMBERED) == set(SUITES), "every suite needs a criterion number"
    report = run_suite(name, seed=0)
    line = verdict_line(name, report)
    print(line)
    assert line.startswith(f"criterion {NUMBERED.index(name) + 1:02d} [{name}]: ")
    assert report["pass"], line
    assert digest(report, "summary") == load_fixture()["suites"][name], (
        f"{name}'s report changed bytes")
