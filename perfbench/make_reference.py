"""Record seed-0 reference answers for every rung the checks may meet.

Usage: python3 perfbench/make_reference.py [WORKLOAD ...]

For each workload and rung D in its reference range, runs the seed-0
script in a cold worker and stores the digest of the report (``time_ms``
removed) and its basis-independent summary in ``reference.json``.  The
committed file was made from the engine as of the commit that added the
benchmark; regenerate it only when an answer change is intended.
"""

import json
import sys

from run import HERE, Worker, workloads

RANGES = {"oracle": range(6, 13), "products": range(6, 21), "s3": range(6, 12)}


def main(argv):
    path = HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    bench_dir = HERE.parent / ".perfbench" / "scripts"
    bench_dir.mkdir(parents=True, exist_ok=True)
    worker = Worker(timeout=600)
    for name in argv or sorted(RANGES):
        table = reference.setdefault(name, {})
        for D in RANGES[name]:
            script = bench_dir / ("%s-seed0-D%d.ptx" % (name, D))
            script.write_text(workloads.render(name, 0, D), encoding="utf-8")
            payload = worker("report", script)
            if "error" in payload:
                raise SystemExit("%s D=%d: %s" % (name, D, payload["error"]))
            problems = workloads.check(name, 0, D, payload, {})
            if problems:
                raise SystemExit("%s D=%d fails its closed forms: %s" % (name, D, problems))
            table[str(D)] = {
                "digest": workloads.report_digest(payload["report"]),
                "summary": workloads.summary(payload["report"]),
            }
            print("%s D=%d %.2f s" % (name, D, payload["report_s"]), flush=True)
            path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
