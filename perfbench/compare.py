"""Compare two result files written by run.py (in .bench_out/).

    python3 perfbench/compare.py BASE.json NEW.json

Refuses (exit 2) when the runs used different kernel backends, workloads or
op lists, since their numbers are not comparable. Otherwise prints each
metric of both runs and the relative change.
"""

import json
import sys


def main(base_path, new_path):
    with open(base_path) as fh:
        base = json.load(fh)
    with open(new_path) as fh:
        new = json.load(fh)
    for key in ("backend", "workload", "op_hash", "trace"):
        if base["header"][key] != new["header"][key]:
            print("refused: %s differs (%r vs %r)"
                  % (key, base["header"][key], new["header"][key]))
            return 2
    for name, m in base["metrics"].items():
        b = m["value"]
        n = new["metrics"].get(name, {}).get("value")
        if n is None:
            print("%-48s %14.6g %14s" % (name, b, "missing"))
            continue
        change = (n - b) / b if b else 0.0
        print("%-48s %14.6g %14.6g %+8.1f%% %s" % (name, b, n, 100 * change,
                                                   m["unit"]))
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
