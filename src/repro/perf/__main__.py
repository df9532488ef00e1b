"""Performance harness CLI.

Usage::

    python -m repro.perf profile mini --json p.json  # one real cell
    python -m repro.perf profile paper-smoke  # paper-capacity smoke

It prints the cell's events, wall, peak RSS and its seven kernel counters
— a signal to read next to a run of the parent checkout, not a gate (that
is ``benchmarks/e2e``, whose ``--trace 1`` layer ledger says where the
wall goes).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from . import format_kernel_profile, profile_cell

# ``profile`` targets: target -> experiment profile of the cell.
_CELL_TARGETS = {"mini": "mini256", "paper-smoke": "paper-smoke"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Run one kvaccel/A experiment cell and print its "
                    "events, wall, peak RSS and kernel counters.")
    parser.add_argument("command", choices=["profile"])
    parser.add_argument("target", choices=sorted(_CELL_TARGETS),
                        help="'mini' for a mini256 cell, or 'paper-smoke' "
                             "for the truncated paper-constant cell")
    parser.add_argument("--json", metavar="PATH", default=None,
                        dest="json_out",
                        help="write the kernel counters as JSON")
    args = parser.parse_args(argv)

    out = profile_cell(_CELL_TARGETS[args.target])
    prof = out["profile"]
    print(f"kernel profile: cell {out['spec']} "
          f"({out['events']:,d} events in {out['wall_s']:.2f}s, "
          f"peak RSS {out['peak_rss_mb']:.1f} MiB)")
    print(format_kernel_profile(prof))

    if args.json_out:
        path = Path(args.json_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"schema": "repro-kernel-profile", "version": 1,
               "target": args.target, "peak_rss_mb": out["peak_rss_mb"],
               "profile": prof}
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
