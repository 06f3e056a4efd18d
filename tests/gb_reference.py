"""Groebner completion that restarts its whole overlap sweep after every
new rule: the reference for the sweep of ``gbasis.gb_complete``, which
restarts at the degree of the new rule.

It shares the rewriting steps (``_interreduce``, ``_reduce_full``,
``_overlap_words``) with the library; only the sweep differs.  The input
is taken as valid: homogeneous, nonzero relations of positive degree.
"""

from pertinax.gbasis import _interreduce, _overlap_words, _reduce_full


def complete_by_restart(relations, D):
    """The rules of the completion of ``relations`` up to degree D."""
    basis = _interreduce(relations)
    alphabet = relations[0].alphabet
    while True:
        lead_map = {f.leading_word(): f for f in basis}
        lengths = sorted({len(w) for w in lead_map})
        pending = []
        for u in lead_map:
            for v in lead_map:
                for s in _overlap_words(u, v):
                    deg = alphabet.word_degree(u + v[s:])
                    if deg <= D:
                        pending.append((deg, u, v, s))
        pending.sort()
        for _, u, v, s in pending:
            spoly = lead_map[u].rshift(v[s:]) - lead_map[v].lshift(u[: len(u) - s])
            spoly = _reduce_full(spoly, lead_map, lengths)
            if not spoly.is_zero():
                basis = _interreduce(basis + [spoly])
                break
        else:
            return basis
