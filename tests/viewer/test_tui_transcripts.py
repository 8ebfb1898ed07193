"""Transcript tests: the TUI's exact ``filter``/``threshold``/``find`` output.

Each case drives :class:`InteractiveViewer` through a fixed command
script on one view of one workload and compares the whole transcript —
every listing, every message — byte for byte against a recorded file in
``tests/viewer/transcripts/``.  The scripts cover eliding globs (one,
two, everything, a root), thresholds over inclusive and exclusive
columns, their combination, ``nofilter``, the error and usage replies,
and ``find`` with hits, without hits and without an argument.

Regenerate the recordings only for an intended output change::

    PYTHONPATH=src python tests/viewer/test_tui_transcripts.py --write
"""

from __future__ import annotations

import io
import sys
from pathlib import Path

import pytest

from repro.hpcprof.experiment import Experiment
from repro.sim.workloads import fig1, moab, s3d
from repro.viewer.tui import InteractiveViewer

DATA = Path(__file__).with_name("transcripts")

WORKLOADS = {"fig1": fig1, "s3d": s3d, "moab": moab}
VIEWS = ("cct", "callers", "flat")

# Harness step, not a TUI command: expand every row so that a filter's
# splice is visible at every depth of the listing.
EXPAND_ALL = "#expand-all"


def script(workload: str, view: str, metric: str) -> list[str]:
    first, second = {
        "fig1": ("loop at*", "g"),
        "s3d": ("loop at*", "*_m_*"),
        "moab": ("loop at*", "MBCore::*"),
    }[workload]
    steps = [f"view {view}", "top 80", "ls", EXPAND_ALL, "ls"]
    if view == "flat":
        steps += ["flatten"]
    steps += [
        f"filter {first}",
        f"filter {second}",
        "threshold 5",
        "nofilter",
        "threshold 2",
        f"sort {metric} excl",
        "threshold 10",
        f"filter {first}",
        "find *",
        "nofilter",
        "filter *",
        "nofilter",
        f"filter {'m' if workload == 'fig1' else 'main'}",
        "threshold 150",
        "threshold abc",
        "filter",
        "nofilter",
        "find *",
        "find loop*",
        f"find {second}",
        "find zz*",
        "find",
        f"sort {metric}",
        "find *",
        "hot",
    ]
    if view == "flat":
        steps += ["unflatten"]
    return steps


def transcript(workload: str, view: str) -> str:
    exp = Experiment.from_program(WORKLOADS[workload].build())
    out = io.StringIO()
    viewer = InteractiveViewer(exp, stdout=out)
    for step in script(workload, view, exp.metrics.by_id(0).name):
        out.write(f"(hpcviewer) {step}\n")
        if step == EXPAND_ALL:
            viewer.session.state().expand_to_depth(1_000)
        else:
            viewer.onecmd(step)
    return out.getvalue()


CASES = [(w, v) for w in WORKLOADS for v in VIEWS]


@pytest.mark.parametrize("workload,view", CASES,
                         ids=[f"{w}-{v}" for w, v in CASES])
def test_transcript_unchanged(workload, view):
    want = (DATA / f"{workload}.{view}.txt").read_text()
    assert transcript(workload, view) == want


if __name__ == "__main__":  # pragma: no cover - recording helper
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_tui_transcripts.py --write")
    DATA.mkdir(exist_ok=True)
    for w, v in CASES:
        (DATA / f"{w}.{v}.txt").write_text(transcript(w, v))
        print(f"wrote {w}.{v}.txt")
