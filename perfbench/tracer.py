"""Spans around the calls into each pertinax layer, recorded from outside.

``Tracer.install`` wraps the public functions of each module and replaces
every binding of them that a caller looks up: a function imported by name
into another module (``runner`` and ``invariantring`` import
``oracle_radical`` and ``vec_product`` that way) is replaced there too.
Methods are wrapped once on their class.

Spans are kept in memory as ``[id, parent, name, start, end, child_s,
attrs, leaves]`` and written out by ``finish``.  Functions called hundreds
of thousands of times (``vec_product``, ``matrix_on_degree``,
``row_reduce``) are recorded as leaves: calls and seconds summed into the
enclosing span rather than one span each.  ``product_word_vec`` is only
counted.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name); a dotted attribute is a method
SPANS = (
    ("pertinax.frontend.parser", "parse", "frontend.parse"),
    ("pertinax.frontend.runner", "run", "frontend.run"),
    ("pertinax.galgebra", "make_commutative", "galgebra.build"),
    ("pertinax.galgebra", "make_quantum_affine", "galgebra.build"),
    ("pertinax.galgebra", "make_skew_symmetric", "galgebra.build"),
    ("pertinax.galgebra", "make_downup", "galgebra.build"),
    ("pertinax.galgebra", "make_presentation", "galgebra.build"),
    ("pertinax.galgebra", "make_free", "galgebra.build"),
    ("pertinax.galgebra", "quotient_by_ideal", "galgebra.build"),
    ("pertinax.gbasis", "gb_complete", "gbasis.gb_complete"),
    ("pertinax.gbasis", "QuotientBasis.__init__", "gbasis.QuotientBasis"),
    ("pertinax.action", "group_generate", "action.group_generate"),
    ("pertinax.skewgroup", "oracle_radical", "skewgroup.oracle_radical"),
    ("pertinax.skewgroup", "GradedIdealTable.product", "skewgroup.product"),
    ("pertinax.skewgroup", "intersect_with_invariants", "skewgroup.intersect_with_invariants"),
    ("pertinax.radical", "radical_constructive", "radical.radical_constructive"),
    ("pertinax.radical", "verify_pertinent", "radical.verify_pertinent"),
    ("pertinax.dimension", "pertinency", "dimension.pertinency"),
    ("pertinax.invariantring", "invariants_basis", "invariantring.invariants_basis"),
    ("pertinax.invariantring", "cofinality_check", "invariantring.cofinality_check"),
    ("pertinax.invariantring", "invariant_radical_table", "invariantring.invariant_radical_table"),
    ("pertinax.invariantring", "normality_check", "invariantring.normality_check"),
)
LEAVES = (
    ("pertinax.skewgroup", "vec_product", "skewgroup.vec_product"),
    ("pertinax.kernel", "row_reduce", "kernel.row_reduce"),
)
RREF = ("pertinax.kernel", "rref", "kernel.rref")
ORACLE = "skewgroup.oracle_radical"

ID, PARENT, NAME, START, END, CHILD, ATTRS, LEAF = range(8)


class Tracer:
    def __init__(self):
        root = [-1, None, "<root>", 0.0, 0.0, 0.0, None, {}]
        self.spans: list = []
        self.stack = [root]
        self.rref_inputs: list = []  # (rows, red, minpoly, output) per call
        self.word_products = itertools.count()
        self.matrix_hits = 0
        self._undo: list = []
        self._rref = None

    # -- wrappers -------------------------------------------------------------

    def _open(self, name):
        parent = self.stack[-1]
        rec = [len(self.spans), parent[ID], name, 0.0, 0.0, 0.0, None, {}]
        self.spans.append(rec)
        self.stack.append(rec)
        return parent, rec

    def _close(self, parent, rec, t0):
        t1 = time.perf_counter()
        self.stack.pop()
        rec[START], rec[END] = t0, t1
        parent[CHILD] += t1 - t0

    def span(self, fn, name):
        def traced(*args, **kwargs):
            parent, rec = self._open(name)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(parent, rec, t0)

        return traced

    def leaf(self, fn, name):
        stack = self.stack

        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                parent = stack[-1]
                parent[CHILD] += dt
                entry = parent[LEAF].get(name)
                if entry is None:
                    parent[LEAF][name] = [1, dt]
                else:
                    entry[0] += 1
                    entry[1] += dt

        return traced

    def traced_rref(self, fn):
        # rref copies each input row before reducing it and no caller reuses
        # its rows afterwards, so the inputs are kept by reference and copied
        # only for the replay
        def traced(rows, red, minpoly):
            rows = list(rows)
            parent, rec = self._open(RREF[2])
            t0 = time.perf_counter()
            try:
                out = fn(rows, red, minpoly)
            finally:
                self._close(parent, rec, t0)
            rec[ATTRS] = {"rows": len(rows), "rank": len(out)}
            if parent[NAME] == ORACLE:
                rec[ATTRS]["cols"] = 1 + max((max(r) for r in rows if r), default=-1)
            self.rref_inputs.append((rows, red, minpoly, out))
            return out

        return traced

    def matrix_on_degree(self, fn):
        leaf = self.leaf(fn, "action.matrix_on_degree")

        def traced(auto, d):
            cache = auto.algebra._act_cache.get(("act", auto.matrix))
            if cache is not None and d in cache:
                self.matrix_hits += 1
            return leaf(auto, d)

        return traced

    def product_word_vec(self, fn):
        tick = self.word_products.__next__

        def counted(algebra, u, v):
            tick()
            return fn(algebra, u, v)

        return counted

    # -- patching -------------------------------------------------------------

    def _replace(self, module_name, attr, make):
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, make(original))
            self._undo.append((cls, meth, original))
            return original
        original = getattr(module, attr)
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "pertinax" or name.startswith("pertinax.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, original))
        return original

    def install(self):
        import pertinax  # noqa: F401  (loads every module whose bindings are patched)
        import pertinax.frontend.runner  # noqa: F401

        for module, attr, name in SPANS:
            self._replace(module, attr, lambda fn, name=name: self.span(fn, name))
        for module, attr, name in LEAVES:
            self._replace(module, attr, lambda fn, name=name: self.leaf(fn, name))
        self._replace("pertinax.action", "LinearAuto.matrix_on_degree", self.matrix_on_degree)
        self._replace("pertinax.galgebra", "GradedAlgebra.product_word_vec", self.product_word_vec)
        self._rref = self._replace(RREF[0], RREF[1], self.traced_rref)

    def uninstall(self):
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    # -- results ----------------------------------------------------------------

    def replay_rref(self) -> float:
        """Seconds to re-run the captured rref inputs on their own."""
        total = 0.0
        for rows, red, minpoly, out in self.rref_inputs:
            rows = [dict(r) for r in rows]
            t0 = time.perf_counter()
            again = self._rref(rows, red, minpoly)
            total += time.perf_counter() - t0
            if again != out:
                raise RuntimeError("rref replay differs from the traced call")
        return total

    def finish(self, path) -> dict:
        """Per-layer metrics; the spans and oracle shapes go to ``path``."""
        replay_s = self.replay_rref()
        by_id = {s[ID]: s for s in self.spans}
        self_s: dict = defaultdict(float)
        totals: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        for s in self.spans:
            dur = s[END] - s[START]
            name = s[NAME]
            calls[name] += 1
            self_s[name] += dur - s[CHILD]
            if not self._inside(by_id, s[PARENT], name):  # recursion counts once
                totals[name] += dur
            for leaf, (n, t) in s[LEAF].items():
                calls[leaf] += n
                totals[leaf] += t
                self_s[leaf] += t

        rrefs = [s for s in self.spans if s[NAME] == RREF[2]]
        rows_in = sum(s[ATTRS]["rows"] for s in rrefs)
        rank_out = sum(s[ATTRS]["rank"] for s in rrefs)
        oracle_ids = {s[ID] for s in self.spans if s[NAME] == ORACLE}
        shapes = []
        degree_of: dict = defaultdict(int)
        for s in rrefs:
            if s[PARENT] in oracle_ids:
                # the oracle makes one rref call per degree, in degree order
                shapes.append(dict(s[ATTRS], degree=degree_of[s[PARENT]], s=s[END] - s[START]))
                degree_of[s[PARENT]] += 1

        # everything the run does outside a named layer is frontend.run self time
        wall = sum(s[END] - s[START] for s in self.spans if s[PARENT] == -1)
        coverage = 1.0 - self_s["frontend.run"] / wall if wall else 0.0
        mod_calls = calls["action.matrix_on_degree"]

        metrics = {
            "kernel.rref.calls": calls["kernel.rref"],
            "kernel.rref.s": totals["kernel.rref"],
            "kernel.rref.rows_in": rows_in,
            "kernel.rref.rank_out": rank_out,
            "kernel.rref.zero_row_frac": (1.0 - rank_out / rows_in) if rows_in else 0.0,
            "kernel.rref.replay_s": replay_s,
            "kernel.row_reduce.calls": calls["kernel.row_reduce"],
            "kernel.row_reduce.s": totals["kernel.row_reduce"],
            "skewgroup.oracle_radical.s": totals["skewgroup.oracle_radical"],
            "skewgroup.oracle_radical.self_s": self_s["skewgroup.oracle_radical"],
            "skewgroup.oracle.rows": sum(x["rows"] for x in shapes),
            "skewgroup.oracle.cols_max": max((x["cols"] for x in shapes), default=0),
            "skewgroup.oracle.rank": sum(x["rank"] for x in shapes),
            "skewgroup.product.calls": calls["skewgroup.product"],
            "skewgroup.product.self_s": self_s["skewgroup.product"],
            "skewgroup.vec_product.calls": calls["skewgroup.vec_product"],
            "skewgroup.vec_product.s": totals["skewgroup.vec_product"],
            "action.group_generate.s": totals["action.group_generate"],
            "action.matrix_on_degree.calls": mod_calls,
            "action.matrix_on_degree.s": totals["action.matrix_on_degree"],
            "action.matrix_on_degree.hit_frac": (self.matrix_hits / mod_calls) if mod_calls else 0.0,
            "invariantring.invariants_basis.s": totals["invariantring.invariants_basis"],
            "invariantring.cofinality_check.s": totals["invariantring.cofinality_check"],
            "invariantring.normality_check.s": totals["invariantring.normality_check"],
            "radical.radical_constructive.s": totals["radical.radical_constructive"],
            "radical.verify_pertinent.s": totals["radical.verify_pertinent"],
            "dimension.pertinency.s": totals["dimension.pertinency"],
            "frontend.parse.s": totals["frontend.parse"],
            "galgebra.build.s": totals["galgebra.build"],
            "gbasis.gb_complete.s": totals["gbasis.gb_complete"],
            "gbasis.QuotientBasis.s": totals["gbasis.QuotientBasis"],
            "galgebra.product_word_vec.calls": next(self.word_products),
            "trace.coverage_frac": coverage,
        }
        ranked = sorted(self_s.items(), key=lambda kv: -kv[1])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "metrics": metrics,
                    "self_s": dict(ranked),
                    "oracle_shapes": shapes,
                    "spans": [
                        {
                            "id": s[ID],
                            "parent": s[PARENT],
                            "name": s[NAME],
                            "start": s[START],
                            "dur": s[END] - s[START],
                            "self": s[END] - s[START] - s[CHILD],
                            "attrs": s[ATTRS],
                            "leaves": s[LEAF],
                        }
                        for s in self.spans
                    ],
                },
                fh,
            )
        return {"metrics": metrics, "top_self": ranked[0][0] if ranked else None}

    @staticmethod
    def _inside(by_id, parent_id, name):
        while parent_id in by_id:
            parent = by_id[parent_id]
            if parent[NAME] == name:
                return True
            parent_id = parent[PARENT]
        return False
