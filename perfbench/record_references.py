"""Record the reference answers the benchmark checks every run against.

Usage, from the root of a checkout:

    python3 perfbench/record_references.py

Runs each workload once at seed 0 and writes the answers read from every
command's report.json to ``references.json``.  Record only from a commit
whose answers are trusted; runs at other seeds must then meet the same
references.
"""

from __future__ import annotations

import json
import sys

from run import run_rep
from workloads import REFERENCES, WORKLOADS


def main() -> int:
    refs = {}
    for name in WORKLOADS:
        rep = run_rep(name, 0, False, None)
        for cmd in rep["commands"]:
            if cmd["code"] != 0:
                print(f"error: {name}/{cmd['command']} exited with {cmd['code']}",
                      file=sys.stderr)
                return 1
        refs[name] = [cmd["answers"] for cmd in rep["commands"]]
        print(f"{name}: {refs[name]}")
    REFERENCES.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
