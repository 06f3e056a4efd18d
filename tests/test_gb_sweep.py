"""The overlap sweep of ``gb_complete`` against the full-restart reference.

After a new rule of degree delta, ``gb_complete`` looks again only at the
ambiguities of degree >= delta.  These tests check that it finds the same
rules, in the same order, as the sweep that restarts from degree 0
(``tests/gb_reference.py``), and cap its reductions on the braid relation.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from pertinax import gbasis
from pertinax.freealgebra import Alphabet, FreePoly
from pertinax.gbasis import gb_complete
from pertinax.scalars import cyclotomic_field

from fixture_cases import fixture_pairs
from gb_reference import complete_by_restart


def test_every_fixture_algebra_completes_like_the_restart():
    algebras = {}  # holding each algebra keeps its id unique
    for name, R, _ in fixture_pairs(8):
        if R.relations:
            algebras.setdefault(id(R), (name, R))
    assert len(algebras) == 10
    for name, R in algebras.values():
        rels = list(R.relations)
        got = list(gb_complete(rels, 8, allow_linear=True).relations)
        assert got == complete_by_restart(rels, 8), name


def _words(ab, d):
    """The words of degree d over an alphabet of letters of degree 1 or 2."""
    if d == 0:
        return [()]
    out = []
    for x, dx in enumerate(ab.degrees):
        if dx <= d:
            out += [(x,) + w for w in _words(ab, d - dx)]
    return out


@st.composite
def relation_sets(draw):
    """Homogeneous relations over two or three letters, one of them
    possibly of degree 2, with small integer coefficients."""
    QQ = cyclotomic_field(2)
    degrees = draw(st.sampled_from([[1, 1], [1, 1, 1], [1, 1, 2]]))
    ab = Alphabet(["x", "y", "w"][: len(degrees)], degrees)
    rels = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(2, 3))
        words = _words(ab, d)
        chosen = draw(st.lists(st.sampled_from(words), min_size=1, max_size=4, unique=True))
        coeffs = draw(
            st.lists(st.sampled_from([-2, -1, 1, 3]), min_size=len(chosen), max_size=len(chosen))
        )
        rels.append(FreePoly(ab, QQ, {w: QQ.scalar(c) for w, c in zip(chosen, coeffs)}))
    return rels


@settings(max_examples=80, deadline=None)
@given(relation_sets(), st.integers(3, 6))
def test_random_relations_complete_like_the_restart(rels, D):
    assert list(gb_complete(rels, D).relations) == complete_by_restart(rels, D)


def test_braid_relation_reductions_are_capped(QQ, monkeypatch):
    """xyx = yxy up to degree 40: 37 rules, the same as the restart, within
    2,100 reductions (9,248 when every new rule restarted the sweep)."""
    ab = Alphabet(["x", "y"])
    x, y = FreePoly.gen(ab, QQ, 0), FreePoly.gen(ab, QQ, 1)
    rels = [x * y * x - y * x * y]
    calls = [0]
    reduce_full = gbasis._reduce_full

    def counted(*args):
        calls[0] += 1
        return reduce_full(*args)

    monkeypatch.setattr(gbasis, "_reduce_full", counted)
    got = list(gb_complete(rels, 40).relations)
    assert calls[0] <= 2100
    monkeypatch.undo()
    assert len(got) == 37
    assert got == complete_by_restart(rels, 40)
