"""Runnable verification suites behind the ``verify`` subcommand.

Each suite re-derives its expected values from first principles where it
can (closed forms, exact identities, brute-force re-assembly) and reports a
deterministic pass/fail payload.  Randomized checks use fixed seeds so the
emitted JSON is byte-identical across runs.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

from .chars import (ClassFunction, FiniteGroup, RhoVector, VirtualRep,
                    class_space_basis, cyclic_irreducible_character,
                    fourier_eta, l2_twist, pair_phi, r_plus_test_reps,
                    rank_plus)
from .circle import (SubsetFamily, classify_convergence, eta_partial, eta_term)
from .cyclotomic import CyclotomicValue, _zeta_powers
from .exactlinalg import exact_rank
from .lens import (LensSpace, lens_delocalized_rho, lens_twisted_rho,
                   search_nonvanishing, span_rank, weight_family)
from .rho import (SubgroupInclusion, induce_rho, rho2_from_delocalized,
                  ring_from_orders)
from .zoo import (HnnShift, Lamplighter, QSemidirect, class_ball,
                  class_ball_rationals, class_intersect_integers,
                  growth_classify, normalize)
from .zoo import q_in_A, q_in_kernel


def _random_rho(group: FiniteGroup, rng: random.Random,
                order: int | None = None) -> RhoVector:
    vals = []
    for _ in range(group.n_classes()):
        if order and rng.random() < 0.5:
            coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                      for _ in range(rng.randint(1, 3))]
            vals.append(CyclotomicValue(order, coeffs + [Fraction(0)]))
        else:
            vals.append(CyclotomicValue.from_rational(
                Fraction(rng.randint(-9, 9), rng.randint(1, 9))))
    return RhoVector(group, tuple(vals))


def _random_virtual_rep(n: int, rng: random.Random) -> VirtualRep:
    """sum_j c_j chi_j on cyclic:n, c_j drawn in [-3, 3] for j = 0..n-1;
    its value at h is sum_j c_j zeta^(j h), summed on integer rows."""
    powers = _zeta_powers(n)
    coeffs = [rng.randint(-3, 3) for _ in range(n)]
    vals = []
    for h in range(n):
        row = [0] * len(powers[0])
        for j, c in enumerate(coeffs):
            if c:
                row = [a + c * b for a, b in zip(row, powers[j * h % n])]
        vals.append(CyclotomicValue(n, row))
    group = FiniteGroup.cyclic(n)
    return VirtualRep(group, ClassFunction(group, tuple(vals)))


def suite_01_quadrature_vs_closed_form() -> dict:
    start = time.time()
    worst = 0.0
    for n in range(1, 33):
        value = eta_term(n)
        target = 1.0 / (math.pi * n)
        rel = abs(value - 1j * target) / target
        worst = max(worst, rel)
    elapsed = time.time() - start
    return {
        "criterion": 1,
        "name": "circle quadrature matches i/(pi n) for n in 1..32",
        "passed": bool(worst < 1e-8 and elapsed < 30.0),
        "details": {"max_relative_error": f"{worst:.3e}",
                    "tolerance": "1e-8", "runtime_budget_s": 30},
    }


def suite_02_finite_sum_exact() -> dict:
    report = eta_partial(SubsetFamily.finite([1, 2, 3]), 10)
    ok = (report.exact is not None and report.exact.coeff == Fraction(11, 6)
          and report.exact.pi_power == -1 and report.exact.i_power == 1)
    return {
        "criterion": 2,
        "name": "eta over {1,2,3} equals 11/6 * i/pi exactly",
        "passed": bool(ok),
        "details": {"exact": str(report.exact)},
    }


def suite_03_divergence() -> dict:
    naturals = SubsetFamily.arithmetic(1, 1)
    verdict = classify_convergence(naturals)
    report = eta_partial(naturals, 10_000)
    floor = (0.9 / math.pi) * math.log(10_000)
    tail = report.partial_sums[-1][1].imag
    ok = verdict.kind == "divergent" and tail > floor
    return {
        "criterion": 3,
        "name": "naturals classified divergent; 10^4-term partial sum above (0.9/pi) ln(10^4)",
        "passed": bool(ok),
        "details": {"verdict": verdict.kind,
                    "partial_sum_imag": f"{tail:.6f}",
                    "floor": f"{floor:.6f}"},
    }


def suite_04_fourier_machinery() -> dict:
    rng = random.Random(20240)
    failures = []
    for trial in range(100):
        n = rng.randint(2, 24)
        rep = _random_virtual_rep(n, rng)
        rho = _random_rho(FiniteGroup.cyclic(n), rng, order=n)
        if fourier_eta(rep, rho) != pair_phi(rep.character, rho):
            failures.append({"trial": trial, "n": n})
    rank_results = {}
    ranks_ok = True
    for n in range(2, 25):
        mat = [list(rep.character.values) for rep in r_plus_test_reps(n)]
        r = exact_rank(mat)
        expected = n // 2
        rank_results[str(n)] = r
        if r != expected or rank_plus(FiniteGroup.cyclic(n)) != expected:
            ranks_ok = False
    return {
        "criterion": 4,
        "name": "fourier_eta == pair_phi(theta, .) on 100 random pairs; theta-matrix rank == floor(n/2), n <= 24",
        "passed": bool(not failures and ranks_ok),
        "details": {"pair_failures": failures, "theta_ranks": rank_results},
    }


def suite_05_rho2_identity() -> dict:
    rng = random.Random(20241)
    failures = []
    for n in range(2, 13):
        group = FiniteGroup.cyclic(n)
        twist = l2_twist(group)
        for trial in range(10):
            rho = _random_rho(group, rng, order=n)
            if rho2_from_delocalized(rho) != fourier_eta(twist, rho):
                failures.append({"n": n, "trial": trial})
    return {
        "criterion": 5,
        "name": "rho2_from_delocalized equals the -triv + (1/n) regular twist, n <= 12",
        "passed": bool(not failures),
        "details": {"failures": failures, "trials_per_n": 10},
    }


def suite_06_lens_tables() -> dict:
    table = lens_delocalized_rho(LensSpace(3, (1, 1)))
    rho2 = rho2_from_delocalized(table)
    rho2_ok = rho2 == Fraction(2, 9)
    parity_failures = []
    n_spaces = 0
    for n in (3, 5, 7, 9):
        for k in (1, 2, 3, 4):
            for weights in weight_family(n, k):
                space = LensSpace(n, weights)
                rho = lens_delocalized_rho(space)
                n_spaces += 1
                plus = space.parity == "plus"
                good = ((rho.is_tau_symmetric() if plus else rho.is_tau_antisymmetric())
                        and all(v.is_real() if plus else v.is_imaginary() for v in rho.values))
                if not good:
                    parity_failures.append(str(space))
    return {
        "criterion": 6,
        "name": "rho2(L(3;1,1)) == 2/9; parity/reality law on all tables, n in {3,5,7,9}, k <= 4",
        "passed": bool(rho2_ok and not parity_failures),
        "details": {"rho2": str(rho2), "tables_checked": n_spaces,
                    "parity_failures": parity_failures},
    }


def suite_07_nonvanishing_and_rank() -> dict:
    rank_rows = {}
    ranks_ok = True
    search_failures = []
    for n in (3, 5, 7):
        group = FiniteGroup.cyclic(n)
        basis = class_space_basis(group, "plus")
        # library route
        lib_rank = span_rank(n, "plus", 4)
        # brute-force route: assemble the full pairing matrix directly
        rows = []
        for weights in weight_family(n, 4):
            rho = lens_delocalized_rho(LensSpace(n, weights))
            rows.append([pair_phi(f, rho) for f in basis])
        brute = exact_rank(rows)
        rank_rows[str(n)] = {"span_rank": lib_rank, "brute_force": brute,
                             "rank_plus": rank_plus(group)}
        if not (lib_rank == brute == rank_plus(group)):
            ranks_ok = False
        for idx, f in enumerate(basis):
            hit = search_nonvanishing(n, "plus", f, [2, 4], 4 ** n)
            if not hit:
                search_failures.append(
                    {"n": n, "basis_index": idx,
                     "candidates_tried": hit.candidates_tried})
    return {
        "criterion": 7,
        "name": "span ranks over dim-7 lens spaces match brute force; searches land for every kappa",
        "passed": bool(ranks_ok and not search_failures),
        "details": {"ranks": rank_rows, "search_failures": search_failures},
    }


def suite_08_induction() -> dict:
    rng = random.Random(20242)
    problems = []
    # explicit Z/2 -> Z/4 example
    inc24 = SubgroupInclusion.cyclic_into_cyclic(2, 4, 2)
    rho2v = _random_rho(FiniteGroup.cyclic(2), rng)
    induced = induce_rho(inc24, rho2v)
    expect = [rho2v(0), CyclotomicValue.zero(), rho2v(1), CyclotomicValue.zero()]
    if list(induced.values) != expect:
        problems.append("Z/2 -> Z/4 value placement")
    # explicit Z/3 -> S3 example
    s3 = FiniteGroup.symmetric(3)
    c3 = FiniteGroup.cyclic(3)
    three_cycle = next(g for g in range(len(s3)) if s3.element_order(g) == 3)
    mapping = [s3.identity, three_cycle, s3.mul(three_cycle, three_cycle)]
    inc3s3 = SubgroupInclusion(c3, s3, mapping)
    rho3 = _random_rho(c3, rng, order=3)
    ind3 = induce_rho(inc3s3, rho3)
    cycle_class = s3.class_of[three_cycle]
    transposition = next(g for g in range(len(s3)) if s3.element_order(g) == 2)
    if ind3(cycle_class) != rho3(1) + rho3(2):
        problems.append("Z/3 -> S3 three-cycle class")
    if not ind3(s3.class_of[transposition]).is_zero():
        problems.append("Z/3 -> S3 transposition class not zero")
    if ind3(s3.identity_class()) != rho3(0):
        problems.append("Z/3 -> S3 identity slot")
    # functoriality along Z/2 -> Z/4 -> Z/8
    inc48 = SubgroupInclusion.cyclic_into_cyclic(4, 8, 2)
    composed = inc24.compose(inc48)
    for trial in range(10):
        rho = _random_rho(FiniteGroup.cyclic(2), rng, order=4)
        two_step = induce_rho(inc48, induce_rho(inc24, rho))
        one_step = induce_rho(composed, rho)
        if list(two_step.values) != list(one_step.values):
            problems.append(f"functoriality trial {trial}")
    return {
        "criterion": 8,
        "name": "induction examples (Z/4, S3) and functoriality Z/2 -> Z/4 -> Z/8 hold exactly",
        "passed": bool(not problems),
        "details": {"problems": problems},
    }


def _integer_character_test_reps(n: int) -> list[VirtualRep]:
    """Z-basis of {integer-valued virtual characters with chi(1) = 0}.

    Galois orbit sums psi_O are integer valued and span the integer-valued
    characters; since the trivial orbit has size 1, the chi(1) = 0 sublattice
    has basis psi_O - |O| chi_0 over the nontrivial orbits.
    """
    group = FiniteGroup.cyclic(n)
    orbits: dict[int, list[int]] = {}
    for j in range(n):
        orbits.setdefault(math.gcd(j, n), []).append(j)
    chi0 = cyclic_irreducible_character(n, 0)
    reps = []
    for g, members in sorted(orbits.items()):
        if g == n:  # the trivial character's orbit
            continue
        char = None
        for j in members:
            term = cyclic_irreducible_character(n, j)
            char = term if char is None else char + term
        char = char - chi0.scale(len(members))
        reps.append(VirtualRep(group, char))
    return reps


def suite_09_rationality() -> dict:
    failures = []
    checked = 0
    for n in (3, 5, 7, 9):
        ring = ring_from_orders([n])
        reps = _integer_character_test_reps(n)
        for k in (1, 2, 3, 4):
            for weights in weight_family(n, k):
                space = LensSpace(n, weights)
                for idx, rep in enumerate(reps):
                    value = lens_twisted_rho(space, rep)
                    checked += 1
                    if not value.is_rational():
                        failures.append({"space": str(space), "rep": idx,
                                         "why": "not rational"})
                    elif not ring.contains(value.as_rational()):
                        failures.append({"space": str(space), "rep": idx,
                                         "why": f"{value.as_rational()} outside {ring}"})
    return {
        "criterion": 9,
        "name": "integer-character twists of every lens table lie in Z[1/n], n in {3,5,7,9}",
        "passed": bool(not failures),
        "details": {"values_checked": checked, "failures": failures},
    }


def suite_10_group_zoo() -> dict:
    problems = []
    base = QSemidirect()
    hnn = HnnShift()
    # rational conjugates of 1 at radius 12: all in Q_{>0}, for both groups
    ball = class_ball(base, base.rational(1), 12)
    if not all(q_in_kernel(el) and el[0] > 0 for el in ball):
        problems.append("base-group class ball leaves Q_{>0}")
    rationals = class_ball_rationals(hnn, 1, 12)
    if not all(q > 0 for q in rationals):
        problems.append("hnn rational conjugates leave Q_{>0}")
    ints = class_intersect_integers(hnn, 12)
    if not ({1, 2} <= set(ints)):
        problems.append("integers 1, 2 not found at radius 12")
    if any(i <= 0 for i in ints):
        problems.append("nonpositive integer in the class")
    # lamplighter growth degree
    lamp_group = Lamplighter(2)
    report = growth_classify(lamp_group, lamp_group.lamp(0, 1), 10)
    degree = report.degree_estimate
    if report.kind != "polynomial" or degree is None or not (0.75 <= degree <= 1.25):
        problems.append(f"lamp growth degree {degree} outside [0.75, 1.25]")
    # Britton reduction terminates pinch-free on 10^4 random words
    rng = random.Random(20243)
    letters = [g for _, g in hnn.generators()]
    bad_words = 0
    for _ in range(10_000):
        word = [rng.choice(letters) for _ in range(rng.randint(0, 12))]
        head, tail = normalize(hnn, word)
        eps = [e for e, _ in tail]
        syll = [head] + [g for _, g in tail]
        for i in range(len(eps) - 1):
            if eps[i + 1] == -eps[i] and q_in_A(syll[i + 1]):
                bad_words += 1
                break
    if bad_words:
        problems.append(f"{bad_words} normal forms kept a pinch")
    return {
        "criterion": 10,
        "name": "zoo: class of 1 stays in Q_{>0} at radius 12; lamp degree ~ 1; Britton pinch-free on 10^4 words",
        "passed": bool(not problems),
        "details": {"problems": problems,
                    "rational_conjugates": len(rationals),
                    "integers_found": len(ints),
                    "lamp_degree": round(degree, 4) if degree is not None else None},
    }


SUITES = (
    suite_01_quadrature_vs_closed_form,
    suite_02_finite_sum_exact,
    suite_03_divergence,
    suite_04_fourier_machinery,
    suite_05_rho2_identity,
    suite_06_lens_tables,
    suite_07_nonvanishing_and_rank,
    suite_08_induction,
    suite_09_rationality,
    suite_10_group_zoo,
)


def run_suite(number: int) -> dict:
    if not (1 <= number <= len(SUITES)):
        raise ValueError(f"no suite {number}")
    return SUITES[number - 1]()


def verify_all(only: list[int] | None = None) -> dict:
    """Run the suites numbered in ``only`` (all of them when None)."""
    numbers = list(range(1, len(SUITES) + 1)) if only is None else sorted(set(only))
    if not numbers:
        raise ValueError("no suites selected")
    results = [run_suite(k) for k in numbers]
    return {
        "suites": results,
        "all_passed": all(r["passed"] for r in results),
    }
