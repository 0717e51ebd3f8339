"""Inventory of the ``REPRO_*`` environment knobs the package reads.

Every knob is read through a quoted string literal under ``src/repro``.
The committed set below must equal the set found there, so a change that
adds or removes a knob shows it in its own diff, and every knob must be
documented in README.md or ``docs/*.md``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_KNOB = re.compile(r"REPRO_[A-Z0-9_]+")

KNOBS = frozenset({
    "REPRO_CACHE_DIR",
    "REPRO_CACHE_TRACE",
    "REPRO_CYCLE_BUDGET",
    "REPRO_HANG_TIMEOUT_S",
    "REPRO_JOBS",
    "REPRO_MAX_CASE_CRASHES",
    "REPRO_SANITIZE",
    "REPRO_SCALE",
    "REPRO_SCENES",
    "REPRO_SERVICE_DEDUPE",
    "REPRO_SERVICE_DEDUPE_MAX_BYTES",
    "REPRO_SERVICE_DEDUPE_MAX_ENTRIES",
    "REPRO_SERVICE_HEARTBEAT_S",
    "REPRO_SERVICE_NODE_TTL_S",
    "REPRO_SERVICE_RETRY_AFTER_S",
    "REPRO_SERVICE_SOCKET",
    "REPRO_SERVICE_SPOOL",
    "REPRO_SERVICE_TCP",
    "REPRO_SOA_ENGINE",
    "REPRO_SWEEP_JOURNAL",
    "REPRO_TRACE_BUDGET_BYTES",
    "REPRO_TRACE_DIR",
    "REPRO_WALL_BUDGET_S",
})


def _source_knobs():
    """Every string constant under ``src/repro`` that is a knob name.

    The bare ``"REPRO_"`` prefix the run manifest filters on is not a
    knob and does not match.
    """
    found = set()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and _KNOB.fullmatch(node.value)
            ):
                found.add(node.value)
    return found


def test_committed_set_matches_source():
    found = _source_knobs()
    assert sorted(found - KNOBS) == [], "knobs read but not listed in KNOBS"
    assert sorted(KNOBS - found) == [], "knobs listed in KNOBS but never read"


def test_every_knob_is_documented():
    docs = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
    documented = set()
    for path in docs:
        documented.update(_KNOB.findall(path.read_text()))
    assert sorted(KNOBS - documented) == []
