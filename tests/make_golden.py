"""Regenerate the golden reports and the fixture digests (run from the repository root).

``golden/<name>.json`` holds the full time-stripped report of two fixtures.
``golden/digests.json`` pins every fixture: the sha256 of its time-stripped
report at each of ``DIGEST_MAXDEGS``.  Regenerate only from a commit whose
answers are known to be right; ``test_fixture_digests`` checks the rest
against it.
"""

import hashlib
import json
from pathlib import Path

from pertinax.frontend.parser import parse
from pertinax.frontend.runner import run

HERE = Path(__file__).resolve().parent
FIXTURES = HERE.parent / "fixtures"
DIGESTS = HERE / "golden" / "digests.json"
DIGEST_MAXDEGS = (8, 12)


def report_text(name, maxdeg=None):
    """The report of a fixture with ``time_ms`` stripped, as written to golden files."""
    script = parse((FIXTURES / (name + ".ptx")).read_text())
    report, _ = run(script) if maxdeg is None else run(script, maxdeg=maxdeg)
    for t in report["tasks"]:
        t.pop("time_ms", None)
    return json.dumps(report, indent=2) + "\n"


def report_digest(name, maxdeg):
    return hashlib.sha256(report_text(name, maxdeg).encode()).hexdigest()


def main():
    for name in ("kxy_swap", "km1xyz_omega"):
        out = HERE / "golden" / (name + ".json")
        out.write_text(report_text(name))
        print("wrote", out)
    digests = {
        "%s@%d" % (path.stem, maxdeg): report_digest(path.stem, maxdeg)
        for path in sorted(FIXTURES.glob("*.ptx"))
        for maxdeg in DIGEST_MAXDEGS
    }
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
    print("wrote", DIGESTS)


if __name__ == "__main__":
    main()
