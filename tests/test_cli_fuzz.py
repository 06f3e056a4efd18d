"""Fuzzing the command line: every input ends in exit code 0, 1 or 2.

Random bytes, soups of script tokens and statements, and mutated fixtures
go through ``cli.main``.  An input either succeeds with output on stdout
and nothing on stderr, or fails with exactly one stderr line and nothing on
stdout (a failed verify task exits 2 with its report on stdout).  Only the
bytes and the soups are run, never the mutated fixtures: every number a
soup can spell is at most 3, beyond a size cap of the parser, or the 20
generators of ``commutative(20)``, whose basis up to the run's degree 3 has
a few thousand words, so no soup asks for a long computation.
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from pertinax.frontend import cli

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
FIXTURE_TEXTS = [p.read_bytes() for p in sorted(FIXTURES.glob("*.ptx"))]

TOKENS = (
    "field", "cyclotomic", "algebra", "group", "pair", "task", "matrices",
    "commutative", "quantum_affine", "downup", "presentation", "quotient",
    "gens", "rels", "radical", "pertinency", "invariants", "cofinality",
    "verify", "semisimple", "maxdeg", "s_max", "n_cap", "strategies",
    "R", "G", "P", "Q", "x", "y", "z", "g", "s",
    "0", "1", "2", "3", "(z2)", "(z3)",
    "(", ")", "[", "]", "{", "}", ",", ";", ":", "=", "^", "*", "+", "-", "/",
    "\n", "#",
)  # fmt: skip
# statements by kind, in the order a script declares them
STATEMENTS = (
    ("field cyclotomic(2);", "field cyclotomic(3);", "field cyclotomic(100000);"),
    (
        "algebra R = commutative(2);",
        "algebra R = quantum_affine([[1, -1], [-1, 1]]);",
        "algebra R = downup(0, 1);",
        "algebra R = presentation { gens: x, y; rels: x*y - y*x; };",
        "algebra R = commutative(0);",
        "algebra R = commutative(100000);",
        "algebra R = commutative(20);",
    ),
    (
        "algebra Q = quotient(R, [x^2]);",
        "algebra Q = quotient(R, [x - y]);",
        "algebra Q = quotient(R, [x + y^2]);",
    ),
    (
        "group G = matrices { g: [[0, 1], [1, 0]]; };",
        "group G = matrices { g: [[-1, 0], [0, 1]]; };",
        "group G = matrices { g: [[1, 1], [0, 1]]; };",
        "group G = matrices { g: [[(z3), 0], [0, 1]]; };",
        "group G = matrices { g: [[1, 0], [0, 1]]; };",
        "group G = matrices { g: [[0, 1, 0], [1, 0, 0], [0, 0, 1]]; };",
    ),
    ("pair P = ([x], [1]);", "pair P = ([x - y, 1], [1, x + y]);"),
    (
        "task radical R G maxdeg=3;",
        "task invariants R G maxdeg=2;",
        "task cofinality R G maxdeg=3 s_max=2 n_cap=3;",
        "task cofinality R G maxdeg=3 s_max=100000000;",
        "task verify P R G maxdeg=3;",
        "task pertinency R G maxdeg=3;",
        "task semisimple Q G maxdeg=3;",
        "task radical R G maxdeg=0;",
        "task radical R G;",
    ),
)
ALL_STATEMENTS = tuple(text for kind in STATEMENTS for text in kind)


@st.composite
def statement_soups(draw):
    """At most one statement of each kind in declaration order, then a few
    statements of any kind; often a script that parses and runs."""
    parts = [draw(st.sampled_from(("",) + kind)) for kind in STATEMENTS]
    parts += draw(st.lists(st.sampled_from(ALL_STATEMENTS), max_size=3))
    return parts


soups = st.one_of(
    st.lists(st.sampled_from(TOKENS + ALL_STATEMENTS), max_size=30), statement_soups()
).map(lambda parts: " ".join(parts).encode("utf-8"))


@st.composite
def mutated_fixtures(draw):
    """A fixture with a few spans deleted, duplicated or overwritten."""
    data = bytearray(draw(st.sampled_from(FIXTURE_TEXTS)))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(data)))
        j = draw(st.integers(i, min(len(data), i + 12)))
        op = draw(st.sampled_from(("delete", "duplicate", "overwrite")))
        if op == "delete":
            del data[i:j]
        elif op == "duplicate":
            data[i:i] = data[i:j]
        else:
            data[i:j] = draw(st.binary(max_size=6))
    return bytes(data)


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue().splitlines()


def _check_boundary(payload, commands):
    fd, path = tempfile.mkstemp(suffix=".ptx")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        for command in commands:
            code, out, err = _main(command + [path])
            assert code in (0, 1, 2), (command, code)
            if code == 0 or out:
                assert err == [], (command, err)
            else:
                assert len(err) == 1, (command, err)
    finally:
        os.unlink(path)


CHECK = [["check"]]
CHECK_AND_RUN = [["check"], ["run", "--maxdeg", "3"]]


@settings(max_examples=40, deadline=None)
@given(st.binary(max_size=200))
def test_random_bytes(payload):
    _check_boundary(payload, CHECK_AND_RUN)


@settings(max_examples=60, deadline=None)
@given(soups)
def test_token_soups(payload):
    _check_boundary(payload, CHECK_AND_RUN)


@settings(max_examples=60, deadline=None)
@given(mutated_fixtures())
def test_mutated_fixtures(payload):
    _check_boundary(payload, CHECK)
