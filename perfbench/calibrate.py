"""Time the single calls of the ROADMAP baseline table, once each.

    python3 perfbench/calibrate.py

Run from the root of a checkout.  The workloads keep their jobs small
enough for many jobs per run; this script times the large reference calls
(theta rank at n = 32, span rank at n = 11, a k = 4 lens table at n = 63,
audit terms, single multiplies) so that the workloads' per-call times can be
read against them.  Prints one JSON object of seconds per call.
"""

from __future__ import annotations

import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import etarho  # noqa: E402
from etarho import chars  # noqa: E402
from etarho.cyclotomic import CyclotomicValue  # noqa: E402


def timed(fn, repeat: int = 1) -> float:
    start = time.perf_counter()
    for _ in range(repeat):
        fn()
    return (time.perf_counter() - start) / repeat


def dense(n: int, rng: random.Random) -> CyclotomicValue:
    return CyclotomicValue(n, [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                               for _ in range(n)])


def main() -> int:
    rng = random.Random(0)
    out = {}
    for n in (24, 32):
        out[f"theta_exact_rank_n{n}"] = timed(lambda: etarho.exact_rank(
            [list(rep.character.values) for rep in chars.r_plus_test_reps(n)]))
    for n in (7, 11):
        out[f"span_rank_plus4_n{n}"] = timed(lambda: etarho.span_rank(n, "plus", 4))
    for n in (31, 63):
        out[f"lens_table_k4_n{n}"] = timed(lambda: etarho.lens_delocalized_rho(
            etarho.LensSpace(n, (1, 1, 1, 2))))
    for n in (1, 50):
        out[f"audit_term_n{n}"] = timed(lambda: etarho.eta_term(n, audit=True))
    for n in (24, 61):
        a, b = dense(n, rng), dense(n, rng)
        out[f"cyclotomic_mul_n{n}"] = timed(lambda: a * b, repeat=20)
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
