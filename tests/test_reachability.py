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

The same holds for settings: a defaulted field of a dataclass under
``src/`` that only ``tests/`` set is a setting with one value outside the
tests, so it should be a constant.  "Set" means a keyword at a call
(``replace()`` included), a string key of a dict literal, an attribute
store or a ``setattr`` with a literal name.  That match is by name too: a
field that shares its name with a setting code sets elsewhere
(``key_size``, ``batch``) stays hidden; only recording the values each
setting takes over the runs outside the tests finds it.  Fields kept on
purpose sit in ``SETTINGS_KEEP``.

And the same holds for state: an attribute a ``src/`` class stores
through ``self.X`` (``self.n += 1`` included) is work done for no one
unless code outside the tests reads it back.  A ``self.X`` load counts
only in that class or in a ``src/`` class it inherits from or that
inherits from it, so ``ColumnStore`` reading ``_columns`` covers
``Tracer`` and ``Journal`` but an unrelated class's ``self.hits`` covers
no other's; an ``obj.X`` load, a keyword name or a string constant
(``getattr(obj, "X")``; not a docstring, ``__slots__`` or ``__all__``)
counts anywhere, so this match errs the same way the others do.
Attributes kept for a test to read sit in ``STORES_KEEP``, by
``Class.attr``.
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
    "spans": "tests read a tracer's closed spans by category through it "
             "(the analyses read the spans of its Chrome trace)",
    "exist": "the NVMe-KV set's EXIST command (PAPER.md's Dev-LSM row "
             "lists PUT/GET/EXIST/DELETE/SEEK/NEXT)",
    # Needed by a planned check or kept as a feature decision.
    "drain_replication": "the replica-consistency oracle needs quiesce",
    "over_quota": "the only reader of KvNamespace.quota_bytes",
    "kv_namespaces": "the namespaced-KV module's only constructor path",
}

SETTINGS_KEEP = {
    # Safety code: error handling and fault recovery stay tunable.
    "multiplier": "RetryPolicy: retry backoff, error handling",
    "jitter": "RetryPolicy: retry backoff, error handling",
    "deadline": "RetryPolicy: retry deadline, error handling",
    "command_timeout": "RetryPolicy: per-command timeout, error handling",
    "failover_on_degraded": "ReplicationConfig: promotes a backup off a "
                            "DEGRADED primary, fault recovery",
    # Not a setting: a result record's free-form payload.
    "extra": "RunResult: per-run payload the runner fills after "
             "construction",
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


def _ci_words() -> set[str]:
    """Words of ``.github/`` outside ``#`` comments (shell, not Python)."""
    words: set[str] = set()
    for path in sorted((ROOT / ".github").rglob("*")):
        if path.is_file():
            text = _HASH_COMMENT.sub("", path.read_text(encoding="utf-8"))
            words.update(re.findall(r"\w+", text))
    return words


def _corpus_words() -> set[str]:
    words = _ci_words()
    for d in CODE_DIRS:
        for path in sorted(d.rglob("*.py")):
            words |= _identifiers(path)
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        f = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(f, "id", None) == "dataclass" or \
                getattr(f, "attr", None) == "dataclass":
            return True
    return False


def _defaulted_fields() -> list[tuple[str, str]]:
    """``(field, "Class (path:line)")`` for every dataclass field under
    ``src/`` that has a default."""
    out = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ClassDef) and _is_dataclass(node)):
                continue
            for stmt in node.body:
                if (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                        and stmt.value is not None
                        and "ClassVar" not in ast.unparse(stmt.annotation)):
                    out.append((stmt.target.id, f"{node.name} "
                                f"({path.relative_to(ROOT)}:{stmt.lineno})"))
    return out


def _set_names(path: Path) -> set[str]:
    """Names the file sets: call keywords, dict-literal string keys,
    attribute stores and ``setattr(obj, "name", ...)``."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
        elif isinstance(node, ast.Dict):
            names.update(k.value for k in node.keys
                         if isinstance(k, ast.Constant)
                         and isinstance(k.value, str))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Store):
            names.add(node.attr)
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "setattr"
              and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)):
            names.add(node.args[1].value)
    return names


def test_every_setting_is_set_outside_the_tests():
    code = set().union(*(_set_names(p) for d in CODE_DIRS
                         for p in sorted(d.rglob("*.py"))))
    tests = set().union(*(_set_names(p)
                          for p in sorted((ROOT / "tests").rglob("*.py"))))
    test_only = [f"{name} of {where}" for name, where in _defaulted_fields()
                 if name in tests and name not in code
                 and name not in SETTINGS_KEEP]
    assert not test_only, (
        "set only by tests (make it a constant, or add to SETTINGS_KEEP "
        "with a reason):\n  " + "\n  ".join(test_only))


def test_settings_keep_names_are_fields():
    """Every SETTINGS_KEEP entry still names a defaulted dataclass field."""
    fields = {name for name, _ in _defaulted_fields()}
    assert sorted(set(SETTINGS_KEEP) - fields) == []


# Attributes an object stores for a test to read, each with that role.
STORES_KEEP = {
    "Ftl.disaggregation_point": "the paper's region split (Section V-D); "
                                "the FTL tests check both regions against it",
    "Interrupt.cause": "the value an interrupter passes to the interrupted "
                       "process, the kernel's API; kernel tests read it",
    "KvDevice.duplicated_commands": "the fault-injection test proves a "
                                    "DUPLICATE action ran the compound PUT "
                                    "twice",
    "PageCache.hits": "the fs and LSM tests prove a read was or was not "
                      "served from the cache",
    "ShardScopedPlan.foreign_hits": "the chaos tests prove healthy shards "
                                    "reached the armed sites and were spared",
}


def _is_self_attr(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def _base_name(node: ast.expr) -> str:
    return node.attr if isinstance(node, ast.Attribute) else \
        getattr(node, "id", "")


def _own_nodes(cls: ast.ClassDef):
    """The nodes of a class body, without those of classes nested in it."""
    todo = list(ast.iter_child_nodes(cls))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, ast.ClassDef):
            todo.extend(ast.iter_child_nodes(node))


def _src_classes() -> dict[str, list[dict]]:
    """Class name -> one record per ``src/`` class of that name: its
    bases, where it is, and the ``self.X`` it stores and loads in its own
    body (an augmented assignment is a store: ``self.n += 1`` keeps ``n``
    for no one)."""
    classes: dict[str, list[dict]] = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            stored: dict[str, int] = {}
            loaded: set[str] = set()
            for sub in _own_nodes(node):
                if not _is_self_attr(sub):
                    continue
                if isinstance(sub.ctx, ast.Store):
                    stored[sub.attr] = min(sub.lineno,
                                           stored.get(sub.attr, sub.lineno))
                else:
                    loaded.add(sub.attr)
            classes.setdefault(node.name, []).append({
                "bases": {_base_name(b) for b in node.bases},
                "path": path.relative_to(ROOT), "stored": stored,
                "loaded": loaded})
    return classes


def _closure(start: str, step: dict) -> set[str]:
    seen, todo = {start}, [start]
    while todo:
        for nxt in step.get(todo.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


def _families(classes: dict[str, list[dict]]) -> dict[str, set[str]]:
    """Class name -> itself and the ``src/`` classes it inherits from or
    that inherit from it, at any depth (siblings are not related)."""
    up = {name: {b for c in recs for b in c["bases"] if b in classes}
          for name, recs in classes.items()}
    down: dict[str, set[str]] = {}
    for name, bases in up.items():
        for base in bases:
            down.setdefault(base, set()).add(name)
    return {name: _closure(name, up) | _closure(name, down)
            for name in classes}


def _docstring_ids(tree: ast.AST) -> set[int]:
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant):
                ids.add(id(first.value))
    return ids


def _other_loads(path: Path) -> set[str]:
    """Names the file reads as attributes of something other than
    ``self``, plus its keyword names and its string constants (not
    docstrings, nor the names a ``__slots__`` or ``__all__`` lists)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    skip = _docstring_ids(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) in ("__slots__", "__all__")
                for t in node.targets):
            skip.update(id(c) for c in ast.walk(node.value))
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) \
                and not _is_self_attr(node):
            names.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in skip:
            names.add(node.value)
    return names


def test_every_stored_attribute_is_read():
    """Every attribute a ``src/`` class stores through ``self.X`` is
    loaded by code that is not a test: as ``self.X`` in that class or one
    related to it by inheritance, or anywhere in the corpus as ``obj.X``,
    a keyword name or a string constant (``getattr(obj, "X")``)."""
    classes = _src_classes()
    words = _ci_words().union(*(_other_loads(p) for d in CODE_DIRS
                                for p in sorted(d.rglob("*.py"))))
    families = _families(classes)
    unread = []
    for name, recs in sorted(classes.items()):
        loads = words.union(*(c["loaded"] for n in families[name]
                              for c in classes[n]))
        for rec in recs:
            unread.extend(
                f"{name}.{attr} ({rec['path']}:{line})"
                for attr, line in sorted(rec["stored"].items())
                if attr not in loads and f"{name}.{attr}" not in STORES_KEEP)
    assert not unread, (
        "stored and never read outside the tests (delete, or add to "
        "STORES_KEEP with a reason):\n  " + "\n  ".join(unread))


def test_stores_keep_names_are_stored():
    """Every STORES_KEEP entry is still an attribute its ``src/`` class
    stores."""
    stored = {f"{name}.{attr}" for name, recs in _src_classes().items()
              for c in recs for attr in c["stored"]}
    assert sorted(set(STORES_KEEP) - stored) == []
