"""Task runner: builds session objects from the AST and executes tasks.

Reports are deterministic for a fixed script, flags and version: every
payload is assembled in a fixed key order and the only nondeterministic
field is the per-task timing, which consumers exclude when comparing.
"""

from __future__ import annotations

import time

from .. import __version__
from ..action import LinearAuto, group_generate
from ..dimension import pertinency
from ..errors import MathError, NotPertinent
from ..freealgebra import Alphabet
from ..galgebra import (
    DEFAULT_TRUNCATION,
    make_commutative,
    make_downup,
    make_presentation,
    make_quantum_affine,
    quotient_by_ideal,
)
from ..invariantring import (
    cofinality_check,
    invariants_basis,
    normality_check,
)
from ..radical import radical_constructive, verify_pertinent
from ..scalars import cyclotomic_field
from ..skewgroup import oracle_radical
from .parser import (
    AlgebraDecl,
    CommutativeExpr,
    DownupExpr,
    PresentationExpr,
    QuantumAffineExpr,
    QuotientExpr,
    SessionScript,
    STRATEGY_NAMES,
    TaskDecl,
)


class Session:
    """Built objects for one script run."""

    def __init__(self, script: SessionScript, default_maxdeg=None):
        self.script = script
        self.field = cyclotomic_field(script.field.m)
        self.default_maxdeg = DEFAULT_TRUNCATION if default_maxdeg is None else default_maxdeg
        self.algebras: dict = {}
        self._groups: dict = {}
        self._radicals: dict = {}
        self._invariants: dict = {}
        self._build_algebras()

    # -- construction -----------------------------------------------------------

    def _task_degree(self, task: TaskDecl) -> int:
        return task.option("maxdeg", self.default_maxdeg)

    def _algebra_degrees(self):
        need = {name: self.default_maxdeg for name in self.script.algebras}
        for task in self.script.tasks:
            d = self._task_degree(task)
            for arg in task.args:
                if arg in need:
                    need[arg] = max(need[arg], d)
        # a quotient can only be truncated at most as far as its base
        decls = [s for s in self.script.statements if isinstance(s, AlgebraDecl)]
        for decl in reversed(decls):
            if isinstance(decl.expr, QuotientExpr):
                need[decl.expr.base] = max(need[decl.expr.base], need[decl.name])
        return need

    def _build_algebras(self):
        need = self._algebra_degrees()
        field = self.field
        for decl in self.script.statements:
            if not isinstance(decl, AlgebraDecl):
                continue
            D = need[decl.name]
            e = decl.expr
            if isinstance(e, CommutativeExpr):
                algebra = make_commutative(field, e.n, D)
            elif isinstance(e, QuantumAffineExpr):
                q = [[entry.eval(field) for entry in row] for row in e.matrix]
                algebra = make_quantum_affine(field, q, D)
            elif isinstance(e, DownupExpr):
                algebra = make_downup(field, e.alpha.eval(field), e.beta.eval(field), D)
            elif isinstance(e, PresentationExpr):
                alphabet = Alphabet(e.gens)
                rels = [r.eval(alphabet, field) for r in e.rels]
                algebra = make_presentation(field, e.gens, rels, D)
            elif isinstance(e, QuotientExpr):
                base = self.algebras[e.base]
                gens = [
                    base.element(r.eval(base.alphabet, field)) for r in e.elems
                ]
                algebra = quotient_by_ideal(base, gens, D)
            else:
                raise AssertionError("unhandled algebra expression")
            self.algebras[decl.name] = algebra

    def group(self, gname: str, aname: str):
        key = (gname, aname)
        if key not in self._groups:
            decl = self.script.groups[gname]
            algebra = self.algebras[aname]
            gens = [
                LinearAuto(algebra, [[e.eval(self.field) for e in row] for row in matrix])
                for _, matrix in decl.items
            ]
            self._groups[key] = group_generate(gens)
        return self._groups[key]

    def radical_table(self, aname: str, gname: str, D: int):
        key = (aname, gname, D)
        if key not in self._radicals:
            self._radicals[key] = oracle_radical(
                self.algebras[aname], self.group(gname, aname), D
            )
        return self._radicals[key]

    def invariants(self, aname: str, gname: str, D: int):
        key = (aname, gname, D)
        if key not in self._invariants:
            self._invariants[key] = invariants_basis(
                self.algebras[aname], self.group(gname, aname), D
            )
        return self._invariants[key]

    def bound_pair(self, pname: str, aname: str):
        decl = self.script.pairs[pname]
        algebra = self.algebras[aname]
        left = [algebra.element(p.eval(algebra.alphabet, self.field)) for p in decl.left]
        right = [algebra.element(p.eval(algebra.alphabet, self.field)) for p in decl.right]
        return left, right


def run(script: SessionScript, maxdeg=None, threads=1, seed=None):
    """Execute all tasks; returns (report dict, exit code).

    ``threads`` and ``seed`` only echo into the report's flags block; they
    do not affect the computation.
    """
    session = Session(script, default_maxdeg=maxdeg)
    report = {
        "schema": 1,
        "generator": "pertinax %s" % __version__,
        "field": {"conductor": script.field.m},
        "flags": {"maxdeg": maxdeg, "threads": threads, "seed": seed},
        "tasks": [],
    }
    exit_code = 0
    for index, task in enumerate(script.tasks):
        start = time.perf_counter()
        try:
            result, caveats, code = _execute(session, task)
        except MathError as e:
            e.task_context = "task %d (%s)" % (index, task.kind)
            raise
        entry = {
            "index": index,
            "task": task.kind,
            "args": list(task.args),
            "options": {k: (list(v) if isinstance(v, tuple) else v) for k, v in task.options},
            "result": result,
            "caveats": caveats,
            "time_ms": round((time.perf_counter() - start) * 1000.0, 3),
        }
        report["tasks"].append(entry)
        exit_code = max(exit_code, code)
    return report, exit_code


def _execute(session: Session, task: TaskDecl):
    handler = _HANDLERS[task.kind]
    return handler(session, task)


def _task_radical(session, task):
    aname, gname = task.args
    D = session._task_degree(task)
    R = session.algebras[aname]
    G = session.group(gname, aname)
    table = session.radical_table(aname, gname, D)
    result = {
        "maxdeg": D,
        "dims_R": [R.dim(d) for d in range(D + 1)],
        "dims_radical": table.dims(),
        "hilbert_quotient": [R.dim(d) - table.dim(d) for d in range(D + 1)],
        "table": {str(d): rows for d, rows in table.dump().items()},
    }
    caveats = ["components above degree %d are not computed" % D]
    strategies = task.option("strategies")
    pair_names = task.option("pairs")
    if strategies is not None or pair_names is not None:
        chosen = ()
        if strategies is not None:
            values = strategies if isinstance(strategies, tuple) else (strategies,)
            chosen = tuple(STRATEGY_NAMES[v] for v in values)
        extra = []
        if pair_names is not None:
            values = pair_names if isinstance(pair_names, tuple) else (pair_names,)
            for pname in values:
                left, right = session.bound_pair(pname, aname)
                extra.append(verify_pertinent(left, right, G))
        constructive = radical_constructive(
            R, G, D, strategies=chosen, extra_pairs=extra
        )
        matches = constructive.equal_upto(table)
        result["constructive"] = {
            "strategies": list(chosen),
            "pairs": list(values) if pair_names is not None else [],
            "dims": constructive.dims(),
            "matches_oracle": matches,
        }
        if not all(matches):
            first_gap = matches.index(False)
            caveats.append(
                "constructive generators miss the oracle from degree %d on" % first_gap
            )
    return result, caveats, 0


def _task_pertinency(session, task):
    aname, gname = task.args
    D = session._task_degree(task)
    window = task.option("window", 4)
    R = session.algebras[aname]
    table = session.radical_table(aname, gname, D)
    res = pertinency(R, None, D, window=window, table=table)
    payload = res.as_json()
    payload["maxdeg"] = D
    payload["window"] = window
    caveats = []
    if res.kind == "estimate":
        caveats.append(
            "the quotient growth is a finite-difference estimate at degree %d, "
            "not a certificate" % D
        )
    return payload, caveats, 0


def _task_invariants(session, task):
    aname, gname = task.args
    D = session._task_degree(task)
    inv = session.invariants(aname, gname, D)
    result = {
        "maxdeg": D,
        "dims_A": inv.dims(),
        "invariant_generators": [
            {"poly": str(g), "degree": d} for g, d in inv.generators
        ],
    }
    return result, ["generator list is minimal up to degree %d" % D], 0


def _task_cofinality(session, task):
    aname, gname = task.args
    D = session._task_degree(task)
    s_max = task.option("s_max", 3)
    n_cap = task.option("n_cap", 8)
    R = session.algebras[aname]
    G = session.group(gname, aname)
    table = session.radical_table(aname, gname, D)
    inv = session.invariants(aname, gname, D)
    cert = cofinality_check(R, G, D, s_max=s_max, n_cap=n_cap, radical=table, inv=inv)
    aa = cert.invariant_radical
    aa_gens = [(g, d) for g, d in inv.generators if aa.member(g)]
    normality = normality_check([g for g, _ in aa_gens], R, D, inv=inv)
    result = {
        "maxdeg": D,
        "cofinality": cert.as_json(),
        "aa_dims": aa.dims(),
        "normality": [
            {"poly": str(r["element"]), "in_R": r["in_R"], "in_A": r["in_A"]}
            for r in normality
        ],
    }
    caveats = ["containments are exact for degrees <= %d only" % D]
    if any(e["n"] is None for e in cert.entries):
        caveats.append("no exponent within n_cap=%d for some s" % n_cap)
    if any(e["vacuous"] for e in cert.entries):
        caveats.append(
            "some containments hold vacuously: the radical power vanishes below "
            "degree %d" % D
        )
    return result, caveats, 0


def _task_semisimple(session, task):
    aname, gname = task.args
    D = session._task_degree(task)
    table = session.radical_table(aname, gname, D)
    R = session.algebras[aname]
    if table.is_zero():
        result = {
            "semisimple": True,
            "checked_upto": D,
            "witness": None,
            "witness_degree": None,
        }
    else:
        d, witness = table.first_nonzero()
        result = {
            "semisimple": False,
            "checked_upto": D,
            "witness": str(witness),
            "witness_degree": d,
        }
    return result, ["semisimplicity checked up to degree %d" % D], 0


def _task_verify(session, task):
    pname, aname, gname = task.args
    D = session._task_degree(task)
    G = session.group(gname, aname)
    left, right = session.bound_pair(pname, aname)
    try:
        pair = verify_pertinent(left, right, G)
    except NotPertinent as e:
        result = {
            "pertinent": False,
            "length": len(left),
            "violating_g": e.g_index,
            "residue": str(e.residue),
        }
        return result, [], 2
    value = pair.value()
    result = {
        "pertinent": True,
        "length": len(pair),
        "value": str(value),
        "value_degree": value.degree(),
    }
    caveats = []
    vdeg = value.degree()
    if vdeg is not None and vdeg <= D:
        table = session.radical_table(aname, gname, D)
        result["value_in_radical"] = table.member(value)
    else:
        caveats.append("value degree exceeds maxdeg; radical membership not checked")
    return result, caveats, 0


_HANDLERS = {
    "radical": _task_radical,
    "pertinency": _task_pertinency,
    "invariants": _task_invariants,
    "cofinality": _task_cofinality,
    "semisimple": _task_semisimple,
    "verify": _task_verify,
}
