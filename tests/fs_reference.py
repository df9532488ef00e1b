"""Reference model of the file layer's extent allocator: first-fit as a
scan of the free list from its start on every request.

``repro.lsm.FileSystem`` resumes each request size's scan where the last
one of that size stopped; the tests drive both with the same operations
and require every extent, the free list and the cursor to agree.
"""

from __future__ import annotations

from repro.lsm import FileSystem, FsError


class ReferenceFileSystem(FileSystem):
    """``FileSystem`` with the whole-list first-fit scan."""

    def _allocate(self, nbytes: int) -> tuple[int, int]:
        for i, (off, n) in enumerate(self._free):
            if n >= nbytes:
                if n == nbytes:
                    self._free.pop(i)
                else:
                    self._free[i] = (off + nbytes, n - nbytes)
                return off, nbytes
        if self._cursor + nbytes > self.capacity:
            raise FsError(
                f"device full: need {nbytes}, cursor {self._cursor}, "
                f"capacity {self.capacity}"
            )
        off = self._cursor
        self._cursor += nbytes
        return off, nbytes
