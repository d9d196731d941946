"""Write the expected counters of every benchmark cell, from the stepped oracle.

    python3 bench/pin.py [--seed 0] [--workload NAME] [--smoke] [--out PATH]

Each workload's cells are replayed serially on the stepped backend
(the reference every other timing path is checked against), with no
store, and every integer ``Counters`` field is written per cell.
``run.py`` reads ``bench/expected/seed<N>.json`` for full-size runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import EXPECTED, OUT, SRC, in_workload_env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    from replay import Replayer, replay
    from workloads import COUNTER_FIELDS, WORKLOADS

    names = [args.workload] if args.workload else list(WORKLOADS)
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    pinned = {}
    for name in names:
        workload = WORKLOADS[name].sized(args.seed, args.smoke)
        oracle = Replayer(backend="stepped")
        with in_workload_env(workload, None, tmp):
            replay(workload, oracle)
        pinned[name] = {
            cell: [counters[field] for field in COUNTER_FIELDS]
            for cell, counters in sorted(oracle.cells.items())
        }
        print(f"{name}: {len(pinned[name])} cells", file=sys.stderr)
    out = args.out or EXPECTED / f"seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    head = json.dumps({
        "seed": args.seed,
        "size": "smoke" if args.smoke else "full",
        "fields": list(COUNTER_FIELDS),
    })
    out.write_text(head[:-1] + ', "workloads": {\n' + _format(pinned) + "\n}}\n")
    print(out)
    return 0


def _format(pinned) -> str:
    """One cell per line, so a changed counter shows as a one-line diff."""
    blocks = []
    for name, cells in pinned.items():
        rows = ",\n".join(f"  {json.dumps(cell)}: {json.dumps(values)}"
                          for cell, values in cells.items())
        blocks.append(f" {json.dumps(name)}: {{\n{rows}\n }}")
    return ",\n".join(blocks)


if __name__ == "__main__":
    sys.exit(main())
