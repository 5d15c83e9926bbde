"""Record and compare the sha256 digests of the reports a run wrote.

    python3 perfbench/digests.py record
        Rewrite perfbench/digests.json from the seed-0 results in
        .perfbench/results/ (run each workload with --seed 0 first).
    python3 perfbench/digests.py diff A.json B.json
        List the calls whose reports differ between two results files,
        e.g. the same workload and seed run on a parent and a change.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import DEFAULT_SEED, REFERENCE_DIGESTS, STATE  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def record() -> int:
    reference = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            path = os.path.join(
                STATE, "results", f"{workload}-seed{DEFAULT_SEED}-trace{trace}.json"
            )
            if os.path.exists(path):
                reference[workload] = _load(path)["digests"]
                break
        else:
            print(f"no seed-{DEFAULT_SEED} results for {workload}", file=sys.stderr)
            return 1
    with open(REFERENCE_DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE_DIGESTS}")
    return 0


def diff(path_a: str, path_b: str) -> int:
    a, b = _load(path_a), _load(path_b)
    if (a["workload"], a["seed"]) != (b["workload"], b["seed"]):
        print("results are for different workloads or seeds", file=sys.stderr)
        return 2
    differing = [
        label for label in sorted(set(a["digests"]) | set(b["digests"]))
        if a["digests"].get(label) != b["digests"].get(label)
    ]
    if a["input_digests"] != b["input_digests"]:
        differing.insert(0, "<inputs>")
    print("differing: " + (", ".join(differing) if differing else "none"))
    return 1 if differing else 0


def main() -> int:
    if sys.argv[1:2] == ["record"] and len(sys.argv) == 2:
        return record()
    if sys.argv[1:2] == ["diff"] and len(sys.argv) == 4:
        return diff(sys.argv[2], sys.argv[3])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
