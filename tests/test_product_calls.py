"""Call counts of the ideal products, and the one multiplication primitive.

Deterministic: the tests count calls and time nothing.  In one cofinality
report (the ``km1xyz_diag11`` fixture's tasks at maxdeg 10), pairwise
``vec_product`` calls in ``skewgroup`` may only form the seeds N_i M_{d-i}
of each product, and the body of ``one_sided_generators`` may run at most
once per table, side and multipliers.  Every product and group action of
the library reads the cached letter images: nothing in ``src/pertinax``
calls ``GradedAlgebra.product_word_vec``, the rule-based reference, and a
benchmark ``products`` report runs with it disabled.  Outside ``galgebra``,
only ``skewgroup`` reads ``letter_images`` directly; the action matrices
and multiplier images read them through ``substitution_images``.  In that report,
almost every row is a unit vector, and closures carry those as column sets
(``linalg.unit_rref``): at most 10,000 one-entry rows reach ``kernel.rref``
(87,258 when every unit was a dict through the kernel).
"""

import ast
import sys
from pathlib import Path

from pertinax import kernel, skewgroup
from pertinax.frontend.parser import parse
from pertinax.frontend.runner import run
from pertinax.galgebra import GradedAlgebra

from fixture_cases import FIXTURES

SRC = Path(__file__).resolve().parent.parent / "src" / "pertinax"
BENCH = Path(__file__).resolve().parent.parent / "perfbench"
REMOVED = {"nf_product", "_act_word", "apply_poly"}


def test_products_call_vec_product_for_seeds_only(monkeypatch):
    calls = {"vec_product": 0}
    bodies: dict = {}
    products = []

    vec_product = skewgroup.vec_product
    body = skewgroup._one_sided_generators
    product = skewgroup.GradedIdealTable.product

    def counted_vec_product(*args):
        calls["vec_product"] += 1
        return vec_product(*args)

    def counted_body(table, left, multipliers):
        key = (id(table), left, repr(multipliers))
        bodies[key] = bodies.get(key, 0) + 1
        return body(table, left, multipliers)

    def recorded_product(self, other, tag=None, multipliers=None):
        products.append((self, other, multipliers))
        return product(self, other, tag=tag, multipliers=multipliers)

    monkeypatch.setattr(skewgroup, "vec_product", counted_vec_product)
    monkeypatch.setattr(skewgroup, "_one_sided_generators", counted_body)
    monkeypatch.setattr(skewgroup.GradedIdealTable, "product", recorded_product)

    text = (FIXTURES / "km1xyz_diag11.ptx").read_text().replace("maxdeg=8", "maxdeg=10")
    report, code = run(parse(text))
    assert code == 0
    assert products, "the cofinality task multiplies ideals"

    seeds = 0
    for I, J, multipliers in products:
        # memoised: these lookups do not run the body again
        N = skewgroup.one_sided_generators(I, True, multipliers) or I.rows
        M = skewgroup.one_sided_generators(J, False, multipliers) or J.rows
        seeds += sum(len(N[i]) * len(M[d - i]) for d in range(I.D + 1) for i in range(d + 1))
    assert calls["vec_product"] <= seeds
    assert max(bodies.values()) == 1


def _second_paths(tree):
    """Calls of ``product_word_vec`` and definitions of the removed
    multiplication paths in a module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name == "product_word_vec":
                found.append("call product_word_vec")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in REMOVED:
            found.append("def " + node.name)
    return found


def test_library_multiplies_through_letter_images_only():
    files = sorted(SRC.rglob("*.py"))
    assert len(files) >= 10
    for path in files:
        assert _second_paths(ast.parse(path.read_text())) == [], path.name
    bad = "R.product_word_vec(u, v)\nproduct_word_vec(u, v)\ndef apply_poly(self, f):\n    pass\n"
    assert sorted(_second_paths(ast.parse(bad))) == [
        "call product_word_vec",
        "call product_word_vec",
        "def apply_poly",
    ]



def _letter_image_references(tree):
    """Imports, names and attributes ``letter_images`` in a module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += ["import" for a in node.names if a.name == "letter_images"]
        elif isinstance(node, ast.Name) and node.id == "letter_images":
            found.append("name")
        elif isinstance(node, ast.Attribute) and node.attr == "letter_images":
            found.append("attribute")
    return found


def test_letter_images_are_read_by_galgebra_and_skewgroup_only():
    """The action matrices and the multiplier images read the letter images
    through ``galgebra.substitution_images``; only the closures and
    ``vec_product`` in ``skewgroup`` read them directly."""
    users = {
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if _letter_image_references(ast.parse(path.read_text()))
    }
    assert users == {"galgebra.py", "skewgroup.py"}
    bad = "from .galgebra import letter_images\ngalgebra.letter_images(R, 0, 1, True)\n"
    assert sorted(_letter_image_references(ast.parse(bad))) == ["attribute", "import"]

def _products_script(D):
    """The seed-0 benchmark ``products`` script at degree D (radical,
    invariants, cofinality and a quotient)."""
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads.render("products", 0, D)


def test_products_report_never_calls_product_word_vec(monkeypatch):
    """The ``products`` report at D = 16 with the reference disabled."""

    def disabled(self, u, v):
        raise AssertionError("product_word_vec called")

    monkeypatch.setattr(GradedAlgebra, "product_word_vec", disabled)
    report, code = run(parse(_products_script(16)))
    assert code == 0
    assert [t["task"] for t in report["tasks"]] == [
        "radical",
        "invariants",
        "cofinality",
        "semisimple",
    ]


def test_products_report_sends_few_unit_rows_to_rref(monkeypatch):
    """The ``products`` report at D = 16: one-entry rows reaching
    ``kernel.rref`` are counted, at most 10,000."""
    counts = {"rows": 0, "units": 0}
    rref = kernel.rref

    def counted(rows, red, minpoly):
        rows = list(rows)
        counts["rows"] += len(rows)
        counts["units"] += sum(len(row) == 1 for row in rows)
        return rref(rows, red, minpoly)

    monkeypatch.setattr(kernel, "rref", counted)
    report, code = run(parse(_products_script(16)))
    assert code == 0
    assert counts["rows"] > 0
    assert counts["units"] <= 10_000, counts
