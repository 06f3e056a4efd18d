"""One cold report in a fresh process; the parent reads the last stdout line.

Usage: python3 perfbench/worker.py MODE SCRIPT [TRACE_OUT]

MODE is ``setup`` (import, parse and Session construction, then exit),
``report`` (time ``runner.run`` and check answers after the timed region)
or ``trace`` (as ``report``, with every layer's public functions wrapped in
spans, and the captured rref inputs replayed at the end).  Times are
``time.monotonic()`` readings, which on Linux share one clock across
processes, so the parent can measure set-up from its own spawn time.
"""

import json
import os
import resource
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def _molien(script, report):
    """Character-average invariant dimensions for every invariants task."""
    from pertinax.frontend.runner import Session
    from pertinax.invariantring import trace_average_dims

    tasks = [t for t in script.tasks if t.kind == "invariants"]
    if not tasks:
        return None
    session = Session(script)
    (task,) = tasks
    aname, gname = task.args
    return trace_average_dims(
        session.algebras[aname], session.group(gname, aname), session._task_degree(task)
    )


def main(argv):
    mode, path = argv[0], argv[1]
    tracer = None
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    from pertinax import kernel
    from pertinax.frontend import parser, runner

    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    script = parser.parse(text)
    if mode == "setup":
        runner.Session(script)
        print(json.dumps({"ready": time.monotonic(), "backend": kernel.BACKEND}))
        return 0
    t0 = time.monotonic()
    report, code = runner.run(script)
    t1 = time.monotonic()
    out = {
        "backend": kernel.BACKEND,
        "exit_code": code,
        "report_s": t1 - t0,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.finish(argv[2])
    # answer checks run outside the timed region
    out["molien"] = _molien(script, report)
    out["report"] = report
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
