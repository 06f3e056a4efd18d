"""pertinax benchmark: degree ladders of cold reports, answer checks, traced layers.

Usage:
    python3 perfbench/run.py --workload {oracle,products,s3} --seed N
                             --seconds S --trace {0,1}

Every report runs in a fresh single-threaded worker process, one at a
time, so import, caches, set-up and peak RSS are what ``pertinax run``
pays.  With ``--trace 0`` the run measures, for as long as ``--seconds``
allows:

* ``setup_s``: spawn to a built ``Session`` (import, parse, algebras), the
  median of the set-up-only workers run at the nominal degree before each
  ladder;
* reach ladders: rungs D = start, start+1, ... each a cold worker running
  the workload's script at D, stopping at the first rung slower than the
  budget B but always running through the nominal degree.  ``report_s``
  and ``peak_rss_mb`` are the median over the ladders of the nominal
  rung's ``runner.run`` wall time and worker ``ru_maxrss``; ``reach_deg``
  interpolates where the median rung time t(D) crosses B;
* ``pass_frac``: the share of reports that exited 0, parsed and passed
  every answer check.

With ``--trace 1`` it alternates untraced and traced workers at the
nominal degree and reports the per-layer metrics of ``tracer.py``.

The last stdout line is the JSON result; a stamped copy with the raw
samples is written to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
OUT = REPO / ".perfbench"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_SAMPLES = 4  # per ladder
RUNG_TIMEOUT_S = 60.0  # a rung this slow counts as failed
LADDER_LIMIT_S = 100.0  # a ladder stops climbing after this long and reads saturated


class Worker:
    """Runs one cold worker process; the result is the parsed last stdout line."""

    def __init__(self, timeout=RUNG_TIMEOUT_S):
        self.timeout = timeout

    def __call__(self, mode, script_path, trace_path=None):
        cmd = [sys.executable, str(HERE / "worker.py"), mode, str(script_path)]
        if trace_path is not None:
            cmd.append(str(trace_path))
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=self.timeout, cwd=REPO
            )
        except subprocess.TimeoutExpired:
            return {"error": "timed out after %.0f s" % self.timeout}
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return {"error": "worker exited %d: %s" % (proc.returncode, tail[0])}
        lines = proc.stdout.strip().splitlines()
        try:
            payload = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            return {"error": "worker printed no result"}
        payload["spawned"] = spawned
        return payload


def reach(times: dict, budget: float):
    """Interpolated degree at which the rung time crosses the budget.

    ``times`` maps rung D to seconds.  With D the last rung whose time is
    within the budget, reach is
    D + (ln B - ln t(D)) / (ln t(D+1) - ln t(D)).  When no rung is within
    the budget the first two rungs are extrapolated below the ladder; when
    every rung is (the ladder hit its time limit), the result is the last
    rung and reads saturated.  Returns (reach, saturated).
    """
    rungs = sorted(times)
    if not rungs:
        raise ValueError("no rung finished")
    under = [d for d in rungs if times[d] <= budget]
    if len(under) == len(rungs):
        return float(rungs[-1]), True
    d = under[-1] if under else rungs[0]
    if d + 1 not in times:
        return float(d), False
    lo, hi = math.log(times[d]), math.log(times[d + 1])
    if hi <= lo:
        return float(d), False
    return d + (math.log(budget) - lo) / (hi - lo), False


class Bench:
    def __init__(self, workload, seed, seconds, run_worker=None):
        self.w = workloads.WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.run_worker = run_worker or Worker()
        self.reference = workloads.load_reference()
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.backends: set = set()
        self.nominal_wall = 0.0  # longest wall time of a nominal-rung worker
        self.t0 = time.monotonic()

    def elapsed(self):
        return time.monotonic() - self.t0

    def script(self, D):
        path = OUT / "scripts" / ("%s-seed%d-D%d.ptx" % (self.w.name, self.seed, D))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(workloads.render(self.w.name, self.seed, D), encoding="utf-8")
        return path

    def report(self, D, mode="report", trace_path=None):
        """One checked cold report; returns the payload, or None if it failed."""
        self.attempted += 1
        payload = self.run_worker(mode, self.script(D), trace_path)
        if "error" in payload:
            problems = [payload["error"]]
        else:
            problems = workloads.check(self.w.name, self.seed, D, payload, self.reference)
            if payload.get("exit_code") != 0:
                problems.append("report exit code %s" % payload.get("exit_code"))
            self.backends.add(payload.get("backend"))
        if problems:
            self.failed += 1
            self.problems.append({"D": D, "mode": mode, "problems": problems})
            return None
        return payload

    def setup_samples(self, n):
        path = self.script(self.w.nominal)
        out = []
        for _ in range(n):
            payload = self.run_worker("setup", path)
            if "error" in payload:
                self.problems.append({"mode": "setup", "problems": [payload["error"]]})
                continue
            self.backends.add(payload.get("backend"))
            out.append(payload["ready"] - payload["spawned"])
        return out

    def ladder(self):
        """One reach ladder; returns (times by rung, nominal payload or None).

        A failed rung has time None."""
        w = self.w
        times: dict = {}
        nominal = None
        started = time.monotonic()
        D = w.start
        while True:
            t0 = time.monotonic()
            payload = self.report(D)
            t = None if payload is None else payload["report_s"]
            times[D] = t
            if D == w.nominal:
                nominal = payload
                self.nominal_wall = max(self.nominal_wall, time.monotonic() - t0)
            if D >= w.nominal and (t is None or t > workloads.BUDGET_S):
                return times, nominal
            if D >= w.nominal and time.monotonic() - started > LADDER_LIMIT_S:
                return times, nominal
            D += 1

    def measure(self):
        """End-to-end metrics: ladders, each after a few set-up samples, while
        time remains.  Rung times are the median over the ladders run."""
        setups, ladders, nominals = [], [], []
        longest = 0.0
        while not ladders or self.elapsed() + longest <= self.seconds:
            t = time.monotonic()
            setups.extend(self.setup_samples(SETUP_SAMPLES))
            times, nominal = self.ladder()
            ladders.append(times)
            nominals.append(nominal)
            longest = max(longest, time.monotonic() - t)
        # time too short for another ladder still fits more nominal reports
        while self.nominal_wall and self.elapsed() + self.nominal_wall <= self.seconds:
            payload = self.report(self.w.nominal)
            nominals.append(payload)
            ladders.append({self.w.nominal: None if payload is None else payload["report_s"]})
        report_s = [p["report_s"] for p in nominals if p is not None]
        rss = [p["rss_mb"] for p in nominals if p is not None]
        by_rung: dict = {}
        for times in ladders:
            for d, t in times.items():
                if t is not None:
                    by_rung.setdefault(d, []).append(t)
        samples = {
            "setup_s": setups,
            "report_s": report_s,
            "peak_rss_mb": rss,
            "rungs": [{str(d): t for d, t in times.items()} for times in ladders],
        }
        if not (setups and report_s and by_rung):
            return None, samples, {}
        medians = {d: statistics.median(ts) for d, ts in by_rung.items()}
        reach_deg, saturated = reach(medians, workloads.BUDGET_S)
        metrics = {
            "report_s": (statistics.median(report_s), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
            "pass_frac": ((self.attempted - self.failed) / self.attempted, "ratio"),
            "reach_deg": (reach_deg, "deg"),
        }
        return metrics, samples, {"reach_saturated": saturated}

    def measure_trace(self):
        """Per-layer metrics: untraced and traced nominal reports, alternating."""
        plain, traced, tops = [], [], []
        longest = 0.0
        i = 0
        while not traced or self.elapsed() + longest <= self.seconds:
            t = time.monotonic()
            a = self.report(self.w.nominal)
            trace_path = OUT / ("trace-%s-seed%d-%d.json" % (self.w.name, self.seed, i))
            b = self.report(self.w.nominal, mode="trace", trace_path=trace_path)
            longest = max(longest, time.monotonic() - t)
            i += 1
            if a is not None and b is not None:
                plain.append(a["report_s"])
                traced.append(b)
                tops.append(b["trace"]["top_self"])
            elif not traced and i >= 3:
                break
        if not traced:
            return None, {}, {}
        names = list(traced[0]["trace"]["metrics"])
        metrics = {}
        for name in names:
            value = statistics.median(b["trace"]["metrics"][name] for b in traced)
            metrics[name] = (value, _layer_unit(name))
        overhead = statistics.median(b["report_s"] for b in traced) / statistics.median(plain) - 1
        metrics["trace.overhead_frac"] = (overhead, "ratio")
        samples = {"plain_report_s": plain, "traced_report_s": [b["report_s"] for b in traced]}
        return metrics, samples, {"top_self_layer": tops}


def _layer_unit(name):
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_s") or last == "s":
        return "s"
    if last.endswith("_frac"):
        return "ratio"
    return "count"


def _git_revision():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=REPO, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((REPO / "src" / "pertinax").rglob("*.py")):
        h.update(str(path.relative_to(REPO)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def stamp(bench, trace):
    w = bench.w
    return {
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "backend": sorted(b for b in bench.backends if b),
        "nproc": os.cpu_count(),
        "seed": bench.seed,
        "workload": w.name,
        "trace": trace,
        "degrees": {"ladder_start": w.start, "nominal": w.nominal},
        "reach_budget_s": workloads.BUDGET_S,
        "ladder_limit_s": LADDER_LIMIT_S,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (REPO / "src" / "pertinax" / "__init__.py").exists():
        sys.stderr.write("error: no pertinax source tree at %s\n" % (REPO / "src"))
        return 2
    OUT.mkdir(exist_ok=True)
    bench = Bench(args.workload, args.seed, args.seconds)
    if args.trace:
        metrics, samples, extra = bench.measure_trace()
    else:
        metrics, samples, extra = bench.measure()
    if metrics is None:
        sys.stderr.write("error: no report finished: %s\n" % json.dumps(bench.problems)[:2000])
        return 1
    if len(bench.backends) != 1:
        sys.stderr.write("error: workers used more than one kernel backend\n")
        return 1
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(
        result,
        stamp=stamp(bench, args.trace),
        elapsed_s=bench.elapsed(),
        samples=samples,
        problems=bench.problems,
        **extra,
    )
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    (OUT / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    for p in bench.problems:
        sys.stderr.write("problem: %s\n" % json.dumps(p))
    print("stamp: %s" % json.dumps(record["stamp"]))
    if extra:
        print("extra: %s" % json.dumps(extra))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
