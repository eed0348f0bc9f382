"""Record the canonical output digest of every instance any seed can draw.

Usage: python3 perfbench/make_digests.py

Each pool instance runs once in a fresh interpreter.  The file is written
only if every instance gives its expected verdict and passes its spot
checks, so the committed digests are those of correct outputs.  Rerun it
only when an output is meant to change, and review the diff.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads


def main() -> int:
    digests, bad = {}, []
    for workload in workloads.WORKLOADS:
        for inst in workloads.pool(workload):
            spec = {"instances": [inst], "trace": False,
                    "out_dir": os.path.join(run.OUT, "digests")}
            rep = run.spawn(["run", json.dumps(spec)])
            for key, dig, ok, note in rep["checks"]:
                if not ok:
                    bad.append(f"{key}: {note}")
                elif dig is not None:
                    digests[key] = dig
            print(f"{workload}: {inst['key']} ({rep['wall_s']:.2f} s)", flush=True)
    if bad:
        print("not written; failed checks:\n  " + "\n  ".join(bad), file=sys.stderr)
        return 1
    with open(os.path.join(run.HERE, "digests.json"), "w") as handle:
        json.dump(dict(sorted(digests.items())), handle, indent=1)
        handle.write("\n")
    print(f"wrote {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
