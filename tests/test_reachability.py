"""Every function and class under ``src/`` is reached by code that is not a
test: a word match over ``src/``, ``benchmarks/``, ``examples/`` and
``.github/``.

A definition counts as reached when its name appears as a word anywhere in
that corpus outside of

* its own ``def``/``class`` line (every ``def name``/``class name`` is
  blanked, so an override does not count as a caller of its siblings);
* comments and docstrings, which describe code but do not call it (in
  ``.github/`` files, a ``#`` at the start of a line or after a blank
  starts a comment);
* ``__all__`` lists, and the re-exports of an ``__init__.py`` (its
  imports and the ``_LAZY`` name table).

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
import io
import re
import tokenize
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
    "ClientPopulation": "the open-loop tenant load of the cluster chaos and "
                        "retry-storm tests",
    # Needed by a planned check or kept as a feature decision.
    "drain_replication": "the replica-consistency oracle needs quiesce",
    "over_quota": "the only reader of KvNamespace.quota_bytes",
    "kv_namespaces": "the namespaced-KV module's only constructor path",
}

_HEADER = re.compile(r"\b(?:def|class)\s+\w+")
_HASH_COMMENT = re.compile(r"(?:^|(?<=\s))#.*$", re.MULTILINE)


def _blank_lines(src: str, path: Path) -> set[int]:
    """1-based lines holding docstrings, ``__all__`` and ``__init__``
    re-exports."""
    tree = ast.parse(src)
    drop: set[int] = set()

    def span(node: ast.AST) -> range:
        return range(node.lineno, node.end_lineno + 1)

    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                drop.update(span(first))
    init = path.name == "__init__.py"
    for node in tree.body:
        if init and isinstance(node, (ast.Import, ast.ImportFrom)):
            drop.update(span(node))
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name)
                and (t.id == "__all__" or init and t.id == "_LAZY")
                for t in node.targets):
            drop.update(span(node))
    return drop


def _code_text(path: Path) -> str:
    """The file's code with comments, docstrings, re-exports and
    ``def``/``class`` names removed."""
    src = path.read_text(encoding="utf-8")
    lines = src.splitlines(keepends=True)
    for tok in tokenize.generate_tokens(io.StringIO(src).readline):
        if tok.type == tokenize.COMMENT:
            row, col = tok.start
            lines[row - 1] = lines[row - 1][:col] + "\n"
    drop = _blank_lines(src, path)
    kept = "".join(l for i, l in enumerate(lines, 1) if i not in drop)
    return _HEADER.sub("", kept)


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
    texts = [_code_text(p) for d in CODE_DIRS for p in sorted(d.rglob("*.py"))]
    texts += [_HASH_COMMENT.sub("", p.read_text(encoding="utf-8"))
              for p in sorted((ROOT / ".github").rglob("*")) if p.is_file()]
    return set(re.findall(r"\w+", "\n".join(texts)))


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
