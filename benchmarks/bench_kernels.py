"""Benchmark the compiled kernel against the pure Python kernel.

Runs four workloads through both backends: raw scalar arithmetic in
Q(zeta_12), the sparse echelon reduction of a random matrix over Q(zeta_12),
the sparse echelon reduction of a tall rational matrix shaped like the
radical oracle's degree-d rows (which the pure kernel eliminates over the
integers), and an end-to-end radical oracle on the skew 3-space with the
cube-root diagonal action.  The end-to-end runs happen in subprocesses so that each one picks
its backend at import time, exactly as a user install would.
"""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_backends():
    from pertinax import _pure

    backends = [("python", _pure)]
    try:
        from pertinax import _speedups

        backends.append(("c", _speedups))
    except ImportError:
        print("note: compiled kernel not built; benchmarking the pure kernel only")
    return backends


def bench_scalars(impl, field, reps=20000):
    rng = random.Random(1)
    raws = [
        impl.q_normalize([rng.randint(-50, 50) for _ in range(field.phi)], rng.randint(1, 20))
        for _ in range(64)
    ]
    t0 = time.perf_counter()
    acc = raws[0]
    for i in range(reps):
        a = raws[i % 64]
        b = raws[(i * 7 + 3) % 64]
        acc = impl.q_add(impl.q_mul(a, b, field.red), acc)
    return time.perf_counter() - t0


def bench_rref(impl, field, nrows=160, width=60, fill=0.10, reps=2):
    rng = random.Random(2)
    rows = []
    for _ in range(nrows):
        row = {}
        for col in range(width):
            if rng.random() < fill:
                raw = impl.q_normalize(
                    [rng.randint(-9, 9) for _ in range(field.phi)], rng.randint(1, 6)
                )
                if not impl.q_is_zero(raw):
                    row[col] = raw
        rows.append(row)
    t0 = time.perf_counter()
    for _ in range(reps):
        impl.rref([dict(r) for r in rows], field.red, field.minpoly)
    return (time.perf_counter() - t0) / reps


def bench_rational_rref(impl, field, nrows=3000, width=200, band=12, reps=3):
    """Tall sparse rows like the oracle's W_d: 2 to 5 entries of small
    rationals (numerators +-1, +-2, denominators 1 or 2) within a band."""
    rng = random.Random(3)
    zeros = (0,) * (field.phi - 1)
    rows = []
    for _ in range(nrows):
        base = rng.randrange(width - band + 1)
        row = {}
        for col in rng.sample(range(base, base + band), rng.randint(2, 5)):
            row[col] = impl.q_normalize(
                (rng.choice((-2, -1, 1, 2)),) + zeros, rng.choice((1, 1, 2))
            )
        rows.append(row)
    t0 = time.perf_counter()
    for _ in range(reps):
        impl.rref([dict(r) for r in rows], field.red, field.minpoly)
    return (time.perf_counter() - t0) / reps


def bench_oracle_subprocess(pure: bool) -> float:
    code = (
        "import time\n"
        "from pertinax import cyclotomic_field, make_skew_symmetric, LinearAuto, "
        "group_generate, oracle_radical\n"
        "import pertinax.kernel as k\n"
        "F = cyclotomic_field(3)\n"
        "S = make_skew_symmetric(F, 3, 8)\n"
        "w = F.primitive_root(3)\n"
        "G = group_generate([LinearAuto(S, [[1,0,0],[0,w,0],[0,0,w*w]])])\n"
        "t0 = time.perf_counter()\n"
        "T = oracle_radical(S, G, 8)\n"
        "print(k.BACKEND, time.perf_counter() - t0, T.dims())\n"
    )
    env = dict(os.environ)
    if pure:
        env["PERTINAX_PURE"] = "1"
    else:
        env.pop("PERTINAX_PURE", None)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    backend, seconds, dims = out.stdout.split(None, 2)
    return backend, float(seconds), dims.strip()


def main():
    from pertinax.scalars import cyclotomic_field

    field = cyclotomic_field(12)
    print("workload timings (seconds, lower is better)\n")
    rows = []
    for name, impl in load_backends():
        t_scalar = bench_scalars(impl, field)
        t_rref = bench_rref(impl, field)
        t_rational = bench_rational_rref(impl, cyclotomic_field(3))
        rows.append((name, t_scalar, t_rref, t_rational))
    print("%-8s  %14s  %14s  %14s" % ("kernel", "scalar ops", "sparse rref", "rational rref"))
    for name, *times in rows:
        print("%-8s  %14.3f  %14.3f  %14.3f" % (name, *times))
    if len(rows) == 2:
        print("speedup:  " + "  ".join("%13.2fx" % (p / c) for p, c in zip(rows[0][1:], rows[1][1:])))

    print("\nend-to-end radical oracle (skew 3-space, cube roots, degree 8)")
    results = {}
    for pure in (True, False):
        try:
            backend, seconds, dims = bench_oracle_subprocess(pure)
        except subprocess.CalledProcessError as e:
            print("subprocess failed:", e.stderr)
            return
        results[backend] = seconds
        print("%-8s  %14.3f   dims=%s" % (backend, seconds, dims))
    if "c" in results and "python" in results:
        print("speedup:  %13.2fx" % (results["python"] / results["c"]))


if __name__ == "__main__":
    main()
