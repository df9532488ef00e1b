"""Every function and class under ``src/`` is reached by code that is not a
test: an identifier match over ``src/``, ``benchmarks/``, ``examples/``
and ``.github/``.

A definition counts as reached when its name is used as an identifier
somewhere in the Python files of that corpus: a ``Name``, an attribute
(``obj.name``), a keyword argument (``f(name=...)``) or an import alias.
Strings, comments and docstrings are not code, so they never count; nor
does a ``def``/``class`` line (an override is not a caller of its
siblings), a parameter of the same name, or the re-exports of an
``__init__.py``.  ``.github/`` holds shell, not Python, so there a word
outside a ``#`` comment counts.

The match is by name only, so it is approximate in one direction: a dead
method that shares its name with a live one (``get``, ``put``, ``run``)
stays hidden.  It never flags live code that names its callee in source,
which is every call in this repo.  Names kept on purpose without a
non-test caller are listed in ``KEEP`` with the reason; everything else
this test reports is code that only its own tests reach — delete it, or
give it a caller.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CODE_DIRS = (SRC, ROOT / "benchmarks", ROOT / "examples")

KEEP = {
    # Independent checks the tests use to assert on other behaviour.
    "is_mapped": "FTL tests check mapping state through it",
    "total_logical_pages": "FTL tests check the region split through it",
    "mapped_pages": "FTL tests check page accounting through it",
    "block_of_entry": "SSTable tests check block layout through it",
    "total_busy": "CPU-model tests check charged time through it",
    "buffered_bytes": "WAL tests check group-commit buffering through it",
    "run_clean": "the crash-state tests' crash-free reference run",
    "flush_all": "LSM tests force every memtable to L0 through it",
    "peek": "the event-queue tests' reference of the next event time",
    "from_json": "the RunResult JSON round-trip test reads results back",
    "read_only": "the background-error tests assert the latch through it",
    "step": "the kernel's one-event reference for run()",
    "schedule_at": "drives tests/sim/test_lockstep.py, run()/step() lockstep",
    "SkipListMemTable": "the memtable property tests' second reference",
    "arm_shard": "cluster chaos tests arm faults on one shard with it",
    "backoff_schedule": "retry property tests check the schedule with it",
    "begin_delete": "the differential oracle's delete half; its tests "
                    "drive it",
    "crash_and_recover": "the LSM's power-loss recovery; the WAL-replay "
                         "and model-based property tests drive it",
    "level_targets": "the version tests check the dynamic level targets "
                     "against an independent recomputation",
    "push_now": "the tested reference of the kernel's inlined now-lane "
                "push in Event.succeed",
    "broken_recovery_skip_reset": "a planted recovery bug the crash-sweep "
                                  "tests must catch",
    "exist": "the NVMe-KV set's EXIST command (PAPER.md's Dev-LSM row "
             "lists PUT/GET/EXIST/DELETE/SEEK/NEXT)",
    # Needed by a planned check or kept as a feature decision.
    "drain_replication": "the replica-consistency oracle needs quiesce",
    "over_quota": "the only reader of KvNamespace.quota_bytes",
    "kv_namespaces": "the namespaced-KV module's only constructor path",
}

_HASH_COMMENT = re.compile(r"(?:^|(?<=\s))#.*$", re.MULTILINE)


def _identifiers(path: Path) -> set[str]:
    """Names the file's code uses: ``Name`` ids, attribute names, keyword
    names and import aliases (an ``__init__.py``'s imports are
    re-exports, not uses)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    init = path.name == "__init__.py"
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg:
            used.add(node.arg)
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and not init:
            for alias in node.names:
                used.update(alias.name.split("."))
    return used


def _definitions() -> list[tuple[str, str]]:
    defs = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if node.name.startswith("__") and node.name.endswith("__"):
                    continue   # invoked by the language, not by name
                where = f"{path.relative_to(ROOT)}:{node.lineno}"
                defs.append((node.name, where))
    return defs


def _corpus_words() -> set[str]:
    words = set()
    for d in CODE_DIRS:
        for path in sorted(d.rglob("*.py")):
            words |= _identifiers(path)
    for path in sorted((ROOT / ".github").rglob("*")):
        if path.is_file():
            text = _HASH_COMMENT.sub("", path.read_text(encoding="utf-8"))
            words.update(re.findall(r"\w+", text))
    return words


def test_every_definition_has_a_non_test_caller():
    words = _corpus_words()
    unreached = [f"{name} ({where})" for name, where in _definitions()
                 if name not in words and name not in KEEP]
    assert not unreached, (
        "reached only by tests (delete, or add to KEEP with a reason):\n  "
        + "\n  ".join(unreached))


def test_keep_names_are_defined():
    """Every KEEP entry still names a definition under ``src/``."""
    defined = {name for name, _ in _definitions()}
    assert sorted(set(KEEP) - defined) == []
