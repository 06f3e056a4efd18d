"""The (algebra, group) pairs that the tasks of the fixture scripts use."""

from pathlib import Path

from pertinax.frontend.parser import parse
from pertinax.frontend.runner import Session

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_pairs(D):
    """(fixture name, algebra, group) for every pair a fixture's tasks name,
    built afresh in a session at default maxdeg D."""
    for path in sorted(FIXTURES.glob("*.ptx")):
        script = parse(path.read_text())
        session = Session(script, default_maxdeg=D)
        for aname, gname in dict.fromkeys(tuple(task.args[-2:]) for task in script.tasks):
            yield path.stem, session.algebras[aname], session.group(gname, aname)
