"""Call counts of the ideal products in one cofinality report.

Deterministic: it counts calls and times nothing.  The ``km1xyz_diag11``
fixture's tasks run at maxdeg 10.  Pairwise ``vec_product`` calls in
``skewgroup`` may only form the seeds N_i M_{d-i} of each product, and the
body of ``one_sided_generators`` may run at most once per table, side and
multipliers.
"""

from pertinax import skewgroup
from pertinax.frontend.parser import parse
from pertinax.frontend.runner import run

from fixture_cases import FIXTURES


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
