"""Column storage shared by the journal and the tracer.

Both planes record one row per event of the run and are read after it, so
they keep their rows as parallel columns: ``array`` and ``bytearray``
columns of numbers, and an intern table that stores each repeated value
once — a name (process, event class, site) for the journal, a row's
shape (kind, category, name, actor, depth, args keys) for the tracer —
so that a row holds only its id.  A row costs a couple of dozen bytes (and
a tracer row the tuple of its arg values) instead of a tuple or a record
object with its own strings and args dict, which is what lets a recording
scale with the run.

Readers still see records: :class:`RowView` is a read-only sequence that
builds each row's record when it is indexed or iterated, as
``SSTable.iter_rows`` builds entry tuples from a table's columns.

A bound (the tracer's ``max_events``) keeps only the newest rows: an
evicted row only moves the head, and the columns drop their dead head once
it is as long as the bound, so eviction costs amortised O(1) a row and
memory at most twice the bound.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Callable, Iterator, Optional

__all__ = ["ColumnStore", "RowView"]


class RowView(Sequence):
    """The live rows of a :class:`ColumnStore` as a read-only sequence of
    records, each built on access.  ``row(p)`` builds the record of
    physical row ``p``; ``rows(head)`` iterates the records from physical
    row ``head`` on.  A view shows the rows as they were when it was
    made: read the store's property again after recording more."""

    __slots__ = ("_head", "_len", "_row", "_rows")

    def __init__(self, head: int, length: int, row: Callable,
                 rows: Callable[[int], Iterator]):
        self._head = head
        self._len = length
        self._row = row
        self._rows = rows

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._row(self._head + j)
                    for j in range(*i.indices(self._len))]
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("row index out of range")
        return self._row(self._head + i)

    def __iter__(self) -> Iterator:
        return self._rows(self._head)

    def __repr__(self) -> str:
        return f"RowView({list(self)!r})"


class ColumnStore:
    """Parallel columns, a name table, and an optional bound on the rows.

    Subclasses create their columns and list them in ``_columns``, the
    first of which has one item a row; before appending a row they call
    :meth:`_admit` when bounded.  Rows before ``_head`` are evicted.
    """

    def __init__(self, bound: Optional[int]):
        self._bound = bound
        self._head = 0
        self._columns: tuple = ()
        self.dropped = 0
        # The intern table: each value the rows repeat (a name, a
        # tracer row's shape) stored once, and its id.
        self._table: list = []
        self._ids: dict = {}

    def _intern(self, value) -> int:
        """The id of ``value``, given on first sight."""
        i = self._ids.get(value)
        if i is None:
            i = self._ids[value] = len(self._table)
            self._table.append(value)
        return i

    def _admit(self) -> None:
        """Make room for one row under the bound: evict the oldest live
        row when the store is full, and drop the dead head of every
        column once it is as long as the bound."""
        bound = self._bound
        if len(self._columns[0]) - self._head < bound:
            return
        self.dropped += 1
        self._head += 1
        if self._head >= bound:
            head = self._head
            for col in self._columns:
                del col[:head]
            self._head = 0

    def __len__(self) -> int:
        return len(self._columns[0]) - self._head

    def _view(self, row: Callable, rows: Callable[[int], Iterator]
              ) -> RowView:
        return RowView(self._head, len(self), row, rows)
