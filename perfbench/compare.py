"""Compare two benchmark records of one workload, metric by metric.

Usage: python3 perfbench/compare.py BASE.json NEW.json

The records are the stamped files ``run.py`` writes to ``.perfbench/``.
Prints NEW/BASE for every metric and flags a metric that got worse by more
than its bound in ``BENCHMARK.json``.  Refuses (exit 2) to compare records
made on different kernel backends or of different workloads; the compiled
kernel alone roughly halves oracle time, so such a ratio says nothing
about a change.
"""

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def main(argv):
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 1
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    for key in ("backend", "workload", "trace"):
        if base["stamp"][key] != new["stamp"][key]:
            sys.stderr.write(
                "error: %s differs: %r vs %r\n" % (key, base["stamp"][key], new["stamp"][key])
            )
            return 2
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worse = 0
    for name, b in base["metrics"].items():
        n = new["metrics"].get(name)
        if n is None:
            print("%-34s missing in NEW" % name)
            continue
        ratio = n["value"] / b["value"] if b["value"] else float("nan")
        flag = ""
        m = bounds.get(name)
        if m is not None:
            change = ratio - 1 if m["better"] == "lower" else 1 - ratio
            if change > m["bound"]:
                flag = "  WORSE than the %.0f%% bound" % (100 * m["bound"])
                worse += 1
        print("%-34s %12.6g -> %12.6g %s  x%.3f%s" % (name, b["value"], n["value"], b["unit"], ratio, flag))
    return 3 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
