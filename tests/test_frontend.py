"""Script parsing, rendering round trips, the runner and the CLI."""

import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from pertinax import gbasis
from pertinax.errors import BasisTooLarge, ConductorTooSmall, ParseError
from pertinax.frontend import cli
from pertinax.frontend.parser import parse
from pertinax.frontend.runner import run
from pertinax.galgebra import make_commutative, make_downup, make_skew_symmetric
from pertinax.scalars import cyclotomic_field

from make_golden import DIGEST_MAXDEGS, report_digest

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"


def fixture_text(name):
    return (FIXTURES / name).read_text()


def test_parse_structure():
    script = parse(fixture_text("kxy_swap.ptx"))
    assert script.field.m == 2
    assert len(script.algebras) == 1
    assert len(script.groups) == 1
    assert len(script.pairs) == 1
    assert [t.kind for t in script.tasks] == ["verify", "radical", "pertinency"]


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.ptx")))
def test_render_reparse_round_trip(name):
    script = parse(fixture_text(name))
    again = parse(script.render())
    assert again == script
    # stable under a second cycle as well
    assert parse(again.render()) == again


def test_poly_string_round_trip(Q3, QQ):
    """Printing an element and reparsing it reproduces the terms exactly."""
    cases = []
    S = make_skew_symmetric(Q3, 3, 6)
    z = Q3.primitive_root(3)
    x, y, w = S.gens()
    cases.append((S, x * y * 3 - w * w * z))
    cases.append((S, S.one() * z + x))
    cases.append((S, (x + y * z) * (x - y)))
    cases.append((S, S.zero()))
    D = make_downup(QQ, 1, -1, 6)
    dx, dy = D.gens()
    cases.append((D, dx * dx * dy - dy * dx * dx * 2))
    from fractions import Fraction

    cases.append((D, dx * Fraction(-1, 2) + dy * Fraction(3, 7)))
    for algebra, elem in cases:
        text = str(elem)
        script = parse(
            "field cyclotomic(%d);\nalgebra R = commutative(1);\n"
            "group G = matrices { g: [[-1]]; };\npair P = ([%s], [1]);\n"
            % (algebra.field.m, text)
        )
        expr = script.pairs["P"].left[0]
        back = algebra.element(expr.eval(algebra.alphabet, algebra.field))
        assert back == elem, text


def test_scalar_rendering_round_trip(Q12):
    from pertinax import kernel

    import random

    rng = random.Random(4)
    for _ in range(50):
        raw = kernel.q_normalize(
            [rng.randint(-9, 9) for _ in range(Q12.phi)], rng.randint(1, 9)
        )
        s = Q12.from_raw(raw)
        script = parse(
            "field cyclotomic(12);\nalgebra R = commutative(1);\n"
            "group G = matrices { g: [[-1]]; };\npair P = ([(%s)*x], [1]);\n" % s
        )
        expr = script.pairs["P"].left[0]
        val = expr.terms[0].scalar.eval(Q12)
        assert val == s, str(s)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse("algebra R = commutative(2)")  # missing semicolon
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        parse("algebra R = commutative(2);\ntask radical R G;\n")
    assert err.value.line == 2  # undeclared group
    with pytest.raises(ParseError):
        parse("pair P = ([x], [x]);\ntask verify P R G;\n")
    with pytest.raises(ParseError):
        parse("algebra R = commutative(2);\ntask radical R R;\n")
    with pytest.raises(ParseError):
        parse(
            "algebra R = commutative(2);\ngroup G = matrices { g: [[0,1],[1,0]]; };\n"
            "task radical R G strategies=bogus;\n"
        )


def test_undeclared_generator_in_pair():
    text = (
        "field cyclotomic(2);\nalgebra R = commutative(2);\n"
        "group G = matrices { g: [[0,1],[1,0]]; };\n"
        "pair P = ([x, q], [x, y]);\ntask verify P R G;\n"
    )
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "q" in str(err.value)


def test_conductor_validation_at_parse_time():
    text = "field cyclotomic(2);\nalgebra R = commutative(2);\n" "group G = matrices { g: [[(z3), 0], [0, 1]]; };\n"
    with pytest.raises(ConductorTooSmall):
        parse(text)


def test_empty_task_list_is_valid():
    script = parse("field cyclotomic(2);\nalgebra R = commutative(2);\n")
    report, code = run(script)
    assert code == 0
    assert report["tasks"] == []


def _strip_times(report):
    clone = json.loads(json.dumps(report))
    for t in clone["tasks"]:
        t.pop("time_ms", None)
    return clone


def test_report_determinism_and_threads():
    script = parse(fixture_text("kxy_negid.ptx"))
    r1, c1 = run(script, maxdeg=8)
    r2, c2 = run(parse(fixture_text("kxy_negid.ptx")), maxdeg=8)
    assert c1 == c2 == 0
    assert json.dumps(_strip_times(r1)) == json.dumps(_strip_times(r2))
    r3, _ = run(parse(fixture_text("kxy_negid.ptx")), maxdeg=8, threads=3)
    b1 = json.dumps(_strip_times(r1))
    b3 = json.dumps(_strip_times(r3))
    # thread count is echoed in the flags but must not affect results
    assert b1.replace('"threads": 1', '"threads": 3') == b3


@pytest.mark.parametrize("name", ["kxy_swap", "km1xyz_omega"])
def test_golden_reports(name):
    script = parse(fixture_text(name + ".ptx"))
    report, _ = run(script)
    got = json.dumps(_strip_times(report), indent=2) + "\n"
    golden_path = GOLDEN / (name + ".json")
    assert golden_path.exists(), "golden file missing; regenerate with tests/make_golden.py"
    assert got == golden_path.read_text()


_DIGESTS = json.loads((GOLDEN / "digests.json").read_text())


@pytest.mark.parametrize("key", sorted(_DIGESTS))
def test_fixture_digests(key):
    """Every fixture report at each pinned --maxdeg hashes as recorded."""
    name, maxdeg = key.split("@")
    assert report_digest(name, int(maxdeg)) == _DIGESTS[key]


def test_fixture_digests_cover_every_fixture():
    expected = {
        "%s@%d" % (p.stem, m) for p in FIXTURES.glob("*.ptx") for m in DIGEST_MAXDEGS
    }
    assert set(_DIGESTS) == expected


def test_verify_failure_exit_code():
    text = (
        "field cyclotomic(2);\nalgebra R = commutative(2);\n"
        "group G = matrices { s: [[0,1],[1,0]]; };\n"
        "pair BAD = ([x], [x]);\ntask verify BAD R G;\n"
    )
    report, code = run(parse(text))
    assert code == 2
    result = report["tasks"][0]["result"]
    assert result["pertinent"] is False
    assert result["violating_g"] == 1
    assert result["residue"]


def _cli(args):
    env = dict(os.environ)
    return subprocess.run(
        [sys.executable, "-m", "pertinax.frontend.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(FIXTURES.parent),
    )


def test_cli_run_and_check():
    proc = _cli(["check", "fixtures/kxy_swap.ptx"])
    assert proc.returncode == 0 and "OK" in proc.stdout
    proc = _cli(["run", "fixtures/kxy_swap.ptx", "--maxdeg", "6"])
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["schema"] == 1
    assert payload["tasks"][2]["result"]["pertinency"] == {"value": 1, "kind": "estimate"}


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.ptx"
    bad.write_text("algebra R = commutative(2)")
    assert _cli(["run", str(bad)]).returncode == 1
    assert _cli(["run", str(tmp_path / "missing.ptx")]).returncode == 1
    nonpert = tmp_path / "nonpert.ptx"
    nonpert.write_text(
        "field cyclotomic(2);\nalgebra R = commutative(2);\n"
        "group G = matrices { s: [[0,1],[1,0]]; };\n"
        "pair BAD = ([x], [x]);\ntask verify BAD R G;\n"
    )
    proc = _cli(["run", str(nonpert)])
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["tasks"][0]["result"]["pertinent"] is False
    # a mathematical error aborts with task context on stderr
    nonauto = tmp_path / "nonauto.ptx"
    nonauto.write_text(
        "field cyclotomic(2);\nalgebra R = commutative(2);\n"
        "group G = matrices { s: [[1,1],[0,1]]; };\n"
        "task radical R G;\n"
    )
    proc = _cli(["run", str(nonauto)])
    assert proc.returncode == 2
    assert "NotFiniteWithinBound" in proc.stderr or "NotAnAutomorphism" in proc.stderr


NO_MAXDEG = (
    "field cyclotomic(2);\nalgebra R = commutative(2);\n"
    "group G = matrices { s: [[0,1],[1,0]]; };\ntask radical R G;\n"
)


def _main_error(capsys, argv):
    """Run cli.main in process; returns its exit code and stderr lines."""
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err.splitlines()


def test_cli_maxdeg_zero_is_a_usage_error(tmp_path, capsys):
    script = tmp_path / "s.ptx"
    script.write_text(NO_MAXDEG)
    code, err = _main_error(capsys, ["run", str(script), "--maxdeg", "0"])
    assert code == 1 and err == ["error: --maxdeg must be at least 1"]


def test_cli_negative_maxdeg_is_a_usage_error(tmp_path, capsys):
    script = tmp_path / "s.ptx"
    script.write_text(NO_MAXDEG)
    code, err = _main_error(capsys, ["run", str(script), "--maxdeg", "-3"])
    assert code == 1 and err == ["error: --maxdeg must be at least 1"]


def test_cli_non_utf8_script_is_a_usage_error(tmp_path, capsys):
    script = tmp_path / "s.ptx"
    script.write_bytes(b"\xff\xfe" + NO_MAXDEG.encode("utf-8"))
    code, err = _main_error(capsys, ["run", str(script)])
    assert code == 1 and len(err) == 1
    assert err[0].startswith("error: cannot read %s: " % script)


@pytest.mark.parametrize(
    "body, code, message",
    [
        (
            "algebra R = commutative(0);",
            1,
            "error: 2:25: commutative needs at least one generator",
        ),
        (
            "algebra R = commutative(2);\n"
            "group G = matrices { g: [[1, 0, 0], [0, 1, 0], [0, 0, -1]]; };\n"
            "task radical R G;",
            1,
            "error: 4:1: group G acts by 3x3 matrices, but R has 2 generators",
        ),
        (
            "algebra R = commutative(2);\nalgebra Q = quotient(R, [x + y^2]);",
            2,
            "NotGraded: quotient generator x + y^2 is not homogeneous",
        ),
    ],
)
def test_cli_malformed_algebras_and_groups_fail_in_one_line(tmp_path, capsys, body, code, message):
    script = tmp_path / "s.ptx"
    script.write_text("field cyclotomic(2);\n" + body + "\n")
    assert _main_error(capsys, ["run", str(script), "--maxdeg", "3"]) == (code, [message])


def _skew_matrix(n):
    return "[%s]" % ", ".join(
        "[%s]" % ", ".join("1" if i == j else "-1" for j in range(n)) for i in range(n)
    )


def _gens(n):
    return ", ".join("a%d" % i for i in range(n))


_COFINALITY = (
    "field cyclotomic(2);\nalgebra R = commutative(2);\n"
    "group G = matrices { g: [[-1, 0], [0, 1]]; };\n"
)


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "field cyclotomic(100000);\nalgebra R = commutative(2);",
            "error: 1:1: conductor must be at most 1000",
        ),
        (
            "field cyclotomic(2);\nalgebra R = commutative(100000);",
            "error: 2:25: an algebra has at most 64 generators",
        ),
        (
            "field cyclotomic(2);\nalgebra R = quantum_affine(%s);" % _skew_matrix(65),
            "error: 2:13: an algebra has at most 64 generators",
        ),
        (
            "field cyclotomic(2);\nalgebra R = presentation { gens: %s; rels: ; };" % _gens(65),
            "error: 2:13: an algebra has at most 64 generators",
        ),
        (
            _COFINALITY + "task cofinality R G maxdeg=3 s_max=100000000;",
            "error: 4:1: option s_max must be at most 100",
        ),
        (
            _COFINALITY + "task cofinality R G maxdeg=3 n_cap=101;",
            "error: 4:1: option n_cap must be at most 100",
        ),
    ],
    ids=["conductor", "commutative", "quantum_affine", "presentation", "s_max", "n_cap"],
)
@pytest.mark.parametrize("command", [["check"], ["run", "--maxdeg", "3"]])
def test_cli_size_caps_fail_in_one_line(tmp_path, capsys, text, message, command):
    script = tmp_path / "s.ptx"
    script.write_text(text + "\n")
    assert _main_error(capsys, command + [str(script)]) == (1, [message])


def test_size_caps_are_inclusive():
    script = parse(
        "field cyclotomic(1000);\n"
        "algebra R = commutative(45);\n"
        "algebra S = quantum_affine(%s);\n"
        "algebra T = presentation { gens: %s; rels: ; };\n" % (_skew_matrix(45), _gens(64))
    )
    assert script.field.m == 1000 and len(script.algebras) == 3
    (task,) = parse(_COFINALITY + "task cofinality R G s_max=100 n_cap=100;\n").tasks
    assert task.option("s_max") == task.option("n_cap") == 100


def test_cli_basis_size_guard_fails_in_one_line(tmp_path, capsys):
    """commutative(20) passes check, but its basis stops at degree 7, whose
    20 * h_6 candidates exceed the bound (the default truncation 12 would
    stop there too, before h_12 = C(31, 12) words); --maxdeg 3 runs."""
    minus_id = "[%s]" % ", ".join(
        "[%s]" % ", ".join("-1" if i == j else "0" for j in range(20)) for i in range(20)
    )
    script = tmp_path / "s.ptx"
    script.write_text(
        "field cyclotomic(2);\nalgebra R = commutative(20);\n"
        "group G = matrices { g: %s; };\ntask pertinency R G maxdeg=3;\n" % minus_id
    )
    assert cli.main(["check", str(script)]) == 0
    capsys.readouterr()
    message = (
        "BasisTooLarge: degree 7 of the algebra has %d candidate basis words, above %d; "
        "lower the truncation with --maxdeg or a task's maxdeg"
        % (20 * comb(25, 6), gbasis.MAX_BASIS_CANDIDATES)
    )
    assert _main_error(capsys, ["run", str(script), "--maxdeg", "7"]) == (2, [message])
    assert cli.main(["run", str(script), "--maxdeg", "3"]) == 0


def test_basis_size_guard_is_inclusive(QQ, monkeypatch):
    """The bound admits a degree with exactly that many candidates."""
    monkeypatch.setattr(gbasis, "MAX_BASIS_CANDIDATES", 2 * 5)  # 2 * h_4 of k[x, y]
    assert make_commutative(QQ, 2, 5).basis.dims() == [1, 2, 3, 4, 5, 6]
    with pytest.raises(BasisTooLarge, match="degree 6 of the algebra has 12 candidate"):
        make_commutative(QQ, 2, 6)


# cli.main in a process limited to 1 GB of address space
LIMITED_MAIN = (
    "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
    "from pertinax.frontend.cli import main; sys.exit(main(sys.argv[1:]))"
)


def test_cli_extreme_truncation_fails_in_one_line(tmp_path):
    """A truncation degree of 10^9, from --maxdeg or from a task's maxdeg,
    stops with one BasisTooLarge line before a list of its degrees is
    allocated, and before the completion of the braid relation, whose
    Groebner basis gains a rule in every degree.  The runs are subprocesses
    limited to 1 GB of address space and to a minute, so that such an
    allocation or completion ends there, not in the test process."""
    script = tmp_path / "s.ptx"
    script.write_text(fixture_text("kx_sign.ptx").replace("maxdeg=10", "maxdeg=1000000000"))
    braid = tmp_path / "braid.ptx"
    braid.write_text(
        "field cyclotomic(2);\n"
        "algebra R = presentation { gens: x, y; rels: x*y*x - y*x*y; };\n"
        "group G = matrices { g: [[0, 1], [1, 0]]; };\n"
        "task radical R G maxdeg=1000000000;\n"
    )
    message = (
        "BasisTooLarge: truncation degree 1000000000 is above %d; "
        "lower it with --maxdeg or a task's maxdeg" % gbasis.MAX_TRUNCATION_DEGREE
    )
    env = dict(os.environ)
    src = str(FIXTURES.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for args in (
        ["fixtures/kx_sign.ptx", "--maxdeg", "1000000000"],
        [str(script)],
        [str(braid)],
    ):
        proc = subprocess.run(
            [sys.executable, "-c", LIMITED_MAIN, "run", *args],
            capture_output=True,
            text=True,
            env=env,
            cwd=str(FIXTURES.parent),
            timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr.splitlines()) == (2, "", [message])


def test_truncation_guard_is_inclusive(QQ, monkeypatch):
    """The bound admits a truncation at exactly that degree."""
    monkeypatch.setattr(gbasis, "MAX_TRUNCATION_DEGREE", 5)
    assert make_commutative(QQ, 1, 5).basis.dims() == [1] * 6
    with pytest.raises(BasisTooLarge, match="truncation degree 6 is above 5"):
        make_commutative(QQ, 1, 6)


def test_cli_completion_size_guard_fails_in_one_line(tmp_path, capsys, monkeypatch):
    """commutative(46) and the 46 x 46 quantum_affine have 46 * 45 / 2
    commutation rules, more ordered pairs of leading words than the
    completion examines, so check and run both reject them at parse time.
    A presentation's rules are counted only by the completion, which stops
    the run; its bound is lowered here so that k[x, y, z] trips it."""
    rules = 46 * 45 // 2
    script = tmp_path / "s.ptx"
    for algebra, col in (("commutative(46)", 25), ("quantum_affine(%s)" % _skew_matrix(46), 13)):
        script.write_text("field cyclotomic(2);\nalgebra R = %s;\n" % algebra)
        message = (
            "error: 2:%d: 46 generators give %d commutation relations, so %d overlap pairs, "
            "above %d" % (col, rules, rules**2, gbasis.MAX_OVERLAP_PAIRS)
        )
        for command in (["check"], ["run", "--maxdeg", "2"]):
            assert _main_error(capsys, command + [str(script)]) == (1, [message])
    script.write_text(
        "field cyclotomic(2);\n"
        "algebra R = presentation { gens: x, y, z; rels: y*x - x*y, z*x - x*z, z*y - y*z; };\n"
        "group G = matrices { g: [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]; };\n"
        "task pertinency R G maxdeg=2;\n"
    )
    assert cli.main(["check", str(script)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(gbasis, "MAX_OVERLAP_PAIRS", 8)
    message = (
        "BasisTooLarge: Groebner completion has 3 rules, so 9 ordered pairs to search "
        "for overlaps, above 8; present the algebra with fewer relations"
    )
    assert _main_error(capsys, ["run", str(script), "--maxdeg", "2"]) == (2, [message])


def test_completion_size_guard_is_inclusive(QQ, monkeypatch):
    """The bound admits a sweep with exactly that many pairs: k[x, y, z] has
    three commutation rules, so nine ordered pairs."""
    monkeypatch.setattr(gbasis, "MAX_OVERLAP_PAIRS", 9)
    assert make_commutative(QQ, 3, 3).basis.dims() == [1, 3, 6, 10]
    monkeypatch.setattr(gbasis, "MAX_OVERLAP_PAIRS", 8)
    with pytest.raises(BasisTooLarge, match="has 3 rules, so 9 ordered pairs"):
        make_commutative(QQ, 3, 3)


def test_cli_json_output_file(tmp_path):
    out = tmp_path / "report.json"
    proc = _cli(["run", "fixtures/kx_sign.ptx", "--json", str(out), "--text"])
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["tasks"][0]["result"]["semisimple"] is False
    assert "witness" in proc.stdout


@pytest.mark.parametrize("target", ["missing/out.json", "."])
def test_cli_unwritable_json_path_is_a_usage_error(tmp_path, capsys, target):
    """A --json path in a missing directory, or one that is a directory,
    ends with one error line and exit 1, not a traceback."""
    path = str(tmp_path / target)
    script = str(FIXTURES / "kx_sign.ptx")
    code, err = _main_error(capsys, ["run", script, "--json", path])
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: cannot write %s: " % path), err



@pytest.mark.parametrize("command", [["check"], ["run"]])
def test_cli_repeated_task_option_is_a_parse_error(tmp_path, capsys, command):
    """A task option given twice is refused, not silently replaced by the
    last value: ``check`` and ``run`` both end with one error line, exit 1."""
    script = tmp_path / "s.ptx"
    script.write_text(
        "field cyclotomic(2);\nalgebra R = commutative(2);\n"
        "group G = matrices { s: [[0,1],[1,0]]; };\n"
        "task radical R G maxdeg=3 maxdeg=5;\n"
    )
    code, err = _main_error(capsys, command + [str(script)])
    assert code == 1 and err == ["error: 4:27: repeated task option 'maxdeg'"]


@pytest.mark.parametrize("text", ["\u00b2", "x = 2\u00b3;", "(z\u00b2)"])
def test_cli_non_ascii_digits_are_a_parse_error(tmp_path, capsys, text):
    """Superscript digits count as digits for ``str.isdigit`` but not for
    ``int``: a script with them ends with one parse error line, exit 1."""
    script = tmp_path / "s.ptx"
    script.write_text(text, encoding="utf-8")
    code, err = _main_error(capsys, ["check", str(script)])
    assert code == 1 and len(err) == 1 and err[0].startswith("error: 1:"), err

def test_task_maxdeg_overrides_flag():
    text = (
        "field cyclotomic(2);\nalgebra R = commutative(2);\n"
        "group G = matrices { s: [[0,1],[1,0]]; };\n"
        "task radical R G maxdeg=5;\ntask radical R G;\n"
    )
    report, _ = run(parse(text), maxdeg=7)
    assert report["tasks"][0]["result"]["maxdeg"] == 5
    assert report["tasks"][1]["result"]["maxdeg"] == 7
    assert len(report["tasks"][0]["result"]["dims_R"]) == 6
    assert len(report["tasks"][1]["result"]["dims_R"]) == 8


def test_presentation_with_empty_relations_is_free():
    text = (
        "field cyclotomic(2);\n"
        "algebra F = presentation { gens: a, b; rels: ; };\n"
        "group G = matrices { s: [[0,1],[1,0]]; };\n"
        "task semisimple F G maxdeg=4;\n"
    )
    report, code = run(parse(text))
    assert code == 0
    result = report["tasks"][0]["result"]
    assert result["semisimple"] is False  # a - b witnesses in degree 1
    assert result["witness_degree"] == 1
