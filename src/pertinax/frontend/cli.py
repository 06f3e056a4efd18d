"""Command line entry point.

``pertinax run SCRIPT`` executes a session script and prints the JSON
report (or a text summary with --text); ``pertinax check SCRIPT`` parses
and validates only.  Exit codes: 0 success, 1 usage or syntax error, 2
mathematical error (including a failed verify task).
"""

from __future__ import annotations

import argparse
import json
import sys

from ..errors import MathError, UsageError
from .parser import parse
from .runner import run


def _build_argparser():
    ap = argparse.ArgumentParser(prog="pertinax")
    sub = ap.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a session script")
    runp.add_argument("script")
    runp.add_argument("--maxdeg", type=int, default=None, help="default truncation degree")
    runp.add_argument("--json", dest="json_path", default=None, help="also write the report here")
    runp.add_argument("--text", action="store_true", help="print a text summary instead of JSON")
    runp.add_argument(
        "--threads",
        type=int,
        default=1,
        help="echoed into the report's flags; no longer affects the computation",
    )
    runp.add_argument("--seed", type=int, default=None)
    checkp = sub.add_parser("check", help="parse and validate a script")
    checkp.add_argument("script")
    checkp.add_argument(
        "--dump-gb",
        action="store_true",
        help="also build each algebra and print its completed rewriting system",
    )
    return ap


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise UsageError("cannot read %s: %s" % (path, e))


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise UsageError("cannot write %s: %s" % (path, e))


def _text_summary(report) -> str:
    lines = ["field: cyclotomic(%d)" % report["field"]["conductor"]]
    for entry in report["tasks"]:
        head = "task %d %s %s" % (entry["index"], entry["task"], " ".join(entry["args"]))
        lines.append(head)
        result = entry["result"]
        for key in sorted(result):
            if key == "table":
                continue
            lines.append("  %s: %s" % (key, result[key]))
        for c in entry["caveats"]:
            lines.append("  note: %s" % c)
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    ap = _build_argparser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code else 0
    try:
        text = _read(args.script)
        script = parse(text)
        if args.command == "check":
            print(
                "OK: %s (%d statements, %d tasks)"
                % (args.script, len(script.statements), len(script.tasks))
            )
            if args.dump_gb:
                from .runner import Session

                session = Session(script)
                for name, algebra in session.algebras.items():
                    print("algebra %s:" % name)
                    dump = algebra.gb.dump()
                    print(dump if dump else "  (free)")
            return 0
        if args.maxdeg is not None and args.maxdeg < 1:
            raise UsageError("--maxdeg must be at least 1")
        if args.threads < 1:
            raise UsageError("--threads must be at least 1")
        report, code = run(
            script, maxdeg=args.maxdeg, threads=args.threads, seed=args.seed
        )
        payload = json.dumps(report, indent=2)
        if args.json_path:
            _write(args.json_path, payload + "\n")
        if args.text:
            sys.stdout.write(_text_summary(report))
        else:
            sys.stdout.write(payload + "\n")
        return code
    except UsageError as e:
        sys.stderr.write("error: %s\n" % e)
        return 1
    except MathError as e:
        context = getattr(e, "task_context", None)
        name = type(e).__name__
        if context:
            sys.stderr.write("%s in %s: %s\n" % (name, context, e))
        else:
            sys.stderr.write("%s: %s\n" % (name, e))
        return 2


if __name__ == "__main__":
    sys.exit(main())
