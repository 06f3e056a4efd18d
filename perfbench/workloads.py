"""Workload definitions: script rendering per seed and degree, and answer checks.

Each workload is a DSL script written from a template in ``templates/``
with the degree ladder's D substituted into every task.  A seed conjugates
the group by a change of basis that is an automorphism of the algebra, so
every dimension-level answer is the same for every seed:

* the skew 3-space admits signed permutations of its generators;
* k[x,y,z] admits any invertible matrix.

Seeds use signed permutations, the small-entry unimodular matrices that
keep the action matrices as sparse as in the fixture basis, so every seed
does the same amount of work.  (An elementary shear would keep the answers
too, but it makes the S3 action matrices dense and the s3 report about 7x
slower, which would make the seed choose the cost.)  Seed 0 is the fixture
basis.  The checks here use only closed forms and the
reference answers recorded in ``reference.json``; none of them reads
anything the benchmarked run computed besides its report.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from string import Template

HERE = Path(__file__).resolve().parent
NAMES = ("x", "y", "z")
PHI_3 = 2  # Euler's totient of the order of the cyclic-3 action


@dataclass(frozen=True)
class Workload:
    name: str
    start: int  # first rung of the reach ladder
    nominal: int  # rung whose report gives report_s and peak_rss_mb


BUDGET_S = 3.0  # reach: the largest D whose report finishes within this
WORKLOADS = {
    w.name: w
    for w in (
        Workload("oracle", start=8, nominal=9),
        Workload("products", start=15, nominal=16),
        Workload("s3", start=7, nominal=8),
    )
}


# -- change of basis ------------------------------------------------------------


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)] for i in range(3)]


def _signed_permutation(rng):
    perm = list(range(3))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(3)]
    u = [[0] * 3 for _ in range(3)]
    for j in range(3):
        u[perm[j]][j] = signs[j]
    return u


def _inverse(u):
    """Inverse of a 3x3 integer matrix of determinant +-1, by the adjugate."""
    det = (
        u[0][0] * (u[1][1] * u[2][2] - u[1][2] * u[2][1])
        - u[0][1] * (u[1][0] * u[2][2] - u[1][2] * u[2][0])
        + u[0][2] * (u[1][0] * u[2][1] - u[1][1] * u[2][0])
    )
    if det not in (1, -1):
        raise ValueError("change of basis is not unimodular")
    adj = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            rows = [r for r in range(3) if r != j]
            cols = [c for c in range(3) if c != i]
            minor = (
                u[rows[0]][cols[0]] * u[rows[1]][cols[1]]
                - u[rows[0]][cols[1]] * u[rows[1]][cols[0]]
            )
            adj[i][j] = (-1) ** (i + j) * minor
    return [[det * adj[i][j] for j in range(3)] for i in range(3)]


def change_of_basis(workload: str, seed: int):
    """Integer matrix U for the seed: the group is conjugated to U g U^-1."""
    if seed == 0:
        return [[int(i == j) for j in range(3)] for i in range(3)]
    return _signed_permutation(random.Random("%s:%d" % (workload, seed)))


def _conjugate(u, g):
    return _matmul(_matmul(u, g), _inverse(u))


def _dsl_matrix(m):
    return "[%s]" % ", ".join("[%s]" % ", ".join(str(e) for e in row) for row in m)


def _image_names(u, cols):
    """Generator names spanning the image of the generators ``cols`` under a
    signed permutation U."""
    out = []
    for j in cols:
        (i,) = [i for i in range(3) if u[i][j]]
        out.append(NAMES[i])
    return out


# -- scripts --------------------------------------------------------------------

CYCLE = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
SIGN_YZ = [[1, 0, 0], [0, -1, 0], [0, 0, -1]]
SWAP_XY = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]


def render(workload: str, seed: int, D: int) -> str:
    """The DSL script of a workload at rung D for a seed."""
    u = change_of_basis(workload, seed)
    text = (HERE / "templates" / (workload + ".ptx")).read_text()
    if workload == "oracle":
        subs = {"S": _dsl_matrix(_conjugate(u, CYCLE)), "D": D}
    elif workload == "products":
        subs = {
            "G": _dsl_matrix(_conjugate(u, SIGN_YZ)),
            "RAD": ", ".join(_image_names(u, (1, 2))),
            "D": D,
        }
    elif workload == "s3":
        subs = {
            "T": _dsl_matrix(_conjugate(u, SWAP_XY)),
            "C": _dsl_matrix(_conjugate(u, CYCLE)),
            "D": D,
            "DINV": D + 8,
        }
    else:
        raise KeyError(workload)
    return Template(text).substitute(subs)


# -- answers --------------------------------------------------------------------


def strip_report(report: dict) -> dict:
    """The report with per-task timings removed, as determinism checks use it."""
    out = dict(report)
    out["tasks"] = [{k: v for k, v in t.items() if k != "time_ms"} for t in report["tasks"]]
    return out


def report_digest(report: dict) -> str:
    text = json.dumps(strip_report(report), indent=2)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def summary(report: dict) -> dict:
    """Basis-independent answers of a report: dimensions, exponents, flags."""
    out = {}
    for t in report["tasks"]:
        r = t["result"]
        kind = t["task"]
        if kind == "radical":
            s = {"dims_radical": r["dims_radical"], "hilbert_quotient": r["hilbert_quotient"]}
            if "constructive" in r:
                s["constructive_dims"] = r["constructive"]["dims"]
                s["matches_oracle"] = r["constructive"]["matches_oracle"]
        elif kind == "pertinency":
            s = {"pertinency": r["pertinency"], "gk_quotient": r["gk_quotient"]["value"]}
        elif kind == "invariants":
            s = {
                "dims_A": r["dims_A"],
                "generator_degrees": [g["degree"] for g in r["invariant_generators"]],
            }
        elif kind == "cofinality":
            s = {
                "aR_eq_Ra": r["cofinality"]["aR_eq_Ra"],
                "exponents": [e["n"] for e in r["cofinality"]["table"]],
                "aa_dims": r["aa_dims"],
            }
        else:
            s = {"semisimple": r["semisimple"], "witness_degree": r["witness_degree"]}
        out["%d:%s" % (t["index"], kind)] = s
    return out


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def _partitions_parts_le_3(d: int) -> int:
    return sum(1 for a in range(d // 3 + 1) for b in range((d - 3 * a) // 2 + 1))


def _tasks(report, kind):
    return [t["result"] for t in report["tasks"] if t["task"] == kind]


def check(workload: str, seed: int, D: int, payload: dict, reference: dict) -> list[str]:
    """Problems found in one worker's payload; an empty list means it passed.

    ``payload`` holds the report and the Molien dimensions the worker
    computed after its timed region.
    """
    problems: list[str] = []
    try:
        report = payload["report"]
        _check_closed_forms(workload, seed, D, report, payload.get("molien"), problems)
        ref = reference.get(workload, {}).get(str(D))
        if ref is not None:
            if seed == 0 and report_digest(report) != ref["digest"]:
                problems.append("report differs from the seed-commit digest")
            if summary(report) != ref["summary"]:
                problems.append("dimension-level answers differ from the reference")
    except (KeyError, TypeError, ValueError, IndexError) as e:
        problems.append("malformed report: %s: %s" % (type(e).__name__, e))
    return problems


def _check_closed_forms(workload, seed, D, report, molien, problems):
    if workload == "oracle":
        (rad,) = _tasks(report, "radical")
        matches = rad["constructive"]["matches_oracle"]
        if len(matches) != D + 1 or not all(matches[5:]):
            problems.append("eigen table misses the oracle in a degree >= 5")
        (pert,) = _tasks(report, "pertinency")
        if not pert["pertinency"]["value"] >= PHI_3:
            problems.append("pertinency below phi(3)")
    elif workload == "products":
        (rad,) = _tasks(report, "radical")
        if rad["hilbert_quotient"] != [1] * (D + 1):
            problems.append("quotient Hilbert function is not all ones")
        (inv,) = _tasks(report, "invariants")
        u = change_of_basis(workload, seed)
        a = _image_names(u, (0,))[0]
        b, c = sorted(_image_names(u, (1, 2)))
        expected = sorted([a, b + "^2", b + "*" + c, c + "^2"])
        if sorted(g["poly"] for g in inv["invariant_generators"]) != expected:
            problems.append("invariant generators are not %s" % expected)
        if inv["dims_A"] != [(d // 2 + 1) ** 2 for d in range(D + 1)]:
            problems.append("invariant dimensions differ from (floor(d/2)+1)^2")
        if inv["dims_A"] != molien:
            problems.append("invariant dimensions differ from the Molien count")
        (cof,) = _tasks(report, "cofinality")
        if not cof["cofinality"]["aR_eq_Ra"]:
            problems.append("aR != Ra")
        if [e["n"] for e in cof["cofinality"]["table"]] != [2, 4, 6]:
            problems.append("cofinality exponents are not [2, 4, 6]")
        (ss,) = _tasks(report, "semisimple")
        if ss["semisimple"] is not True:
            problems.append("quotient by the radical is not semisimple")
    elif workload == "s3":
        (inv,) = _tasks(report, "invariants")
        dinv = D + 8
        if inv["dims_A"] != [_partitions_parts_le_3(d) for d in range(dinv + 1)]:
            problems.append("invariant dimensions are not partition counts")
        if inv["dims_A"] != molien:
            problems.append("invariant dimensions differ from the Molien count")
        if sorted(g["degree"] for g in inv["invariant_generators"]) != [1, 2, 3]:
            problems.append("invariant generator degrees are not 1, 2, 3")
        (rad,) = _tasks(report, "radical")
        if rad["maxdeg"] != D or len(rad["dims_radical"]) != D + 1:
            problems.append("radical task ran at the wrong degree")
