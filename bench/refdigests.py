"""Write ``digests.json``: the reference digest of every pool entry.

    python3 bench/refdigests.py

Runs each workload's op once on every entry of its pool, checks it against
the oracle, and records the sha256 of its canonical output.  The committed
file pins the outputs of the code it was made from; regenerate it only when
a change to the outputs is intended, and say so.
"""

from __future__ import annotations

import json
import sys

import canon
from run import HERE, import_starbundle
from workloads import WORKLOADS


def main() -> int:
    sb = import_starbundle()
    table = {}
    for name, workload in WORKLOADS.items():
        table[name] = {}
        for index, entry in enumerate(workload.pool()):
            output = workload.op(sb, workload.prepare(sb, entry))
            error = workload.oracle(entry, output)
            if error is not None:
                print(f"{name} pool entry {index}: {error}", file=sys.stderr)
                return 1
            table[name][str(index)] = canon.digest(workload.canon(entry, output))
        print(f"{name}: {len(table[name])} digests")
    with open(HERE / "digests.json", "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
