"""Layer ledger: host self time of one profiled cell, summed by layer.

Read from outside the program: cProfile's per-function self time
(``tottime``) is attributed to the ``src/repro/<layer>/`` package the
function's file lives in.  C builtins (``sum``, ``sorted``, ``heapq``...)
have no file; their self time and calls are charged to the layer of each
*caller*, using the caller table cProfile keeps, so that ``harness`` does
not swallow the time a layer spends inside builtins it chose to call.

cProfile taxes every Python call and no C loop, so shares lean towards
call-heavy layers; ``calls`` is exact and repeats run to run.
"""

from __future__ import annotations

import os
import pstats

from cells import LAYERS


def _layer_of(path: str, pkg_root: str) -> str:
    if not path.startswith(pkg_root):
        return "harness"
    head = path[len(pkg_root):].split(os.sep, 1)[0]
    if head == "types.py":
        return "types"
    return head if head in LAYERS else "harness"


def layer_ledger(profiler) -> dict:
    """``{layer: {"self_s", "wall_share", "calls"}}`` for the ten layers;
    shares sum to 1."""
    import repro

    pkg_root = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
    stats = pstats.Stats(profiler).stats
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for (path, _line, _name), (_cc, nc, tt, _ct, callers) in stats.items():
        if path != "~":
            layer = _layer_of(path, pkg_root)
            self_s[layer] += tt
            calls[layer] += nc
            continue
        charged = 0.0
        for (cpath, _cl, _cn), (cnc, _ccc, ctt, _cct) in callers.items():
            # A builtin called from a builtin stays with the harness.
            layer = ("harness" if cpath == "~"
                     else _layer_of(cpath, pkg_root))
            self_s[layer] += ctt
            calls[layer] += cnc
            charged += ctt
        # What no caller accounts for (the profiler's own enable/disable).
        self_s["harness"] += tt - charged
    total = sum(self_s.values())
    return {layer: {"self_s": self_s[layer],
                    "wall_share": self_s[layer] / total,
                    "calls": calls[layer]}
            for layer in LAYERS}
