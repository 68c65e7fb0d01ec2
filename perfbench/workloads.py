"""The four seeded job mixes and the checks applied to every job.

A workload hands out *rounds*: lists of jobs that are the same in every
round up to their concrete inputs.  Each job carries a *slot*, a label for
its kind and size class (``theta:16``, ``cli:23,2``); a round holds the
same slots every time, and the seed picks only inputs that leave a slot's
cost alike (permutations, weights, coefficients, words).  The timing
statistics are taken per slot over the whole run (see ``run.py``), so every
run and every seed measures the same mix.

Each job is ``call`` (the program's work, timed and traced) plus ``check``
(run afterwards with tracing off), which raises ``CheckFailed`` or returns
a JSON-able record of the job's output for the run's digest.  Inputs are
built when the round is made, before any timing, and only through names
the package keeps public.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mpmath
import sympy

import etarho
from etarho import chars, cli, zoo
from etarho.cyclotomic import CyclotomicValue


class CheckFailed(AssertionError):
    """A job's output contradicts an independent expectation."""


def expect(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Job:
    kind: str
    params: dict
    call: Callable[[], object]
    check: Callable[[object], object]
    slot: str


class Deck:
    """Draws every item once, in seeded order, before reshuffling."""

    def __init__(self, rng: random.Random, items):
        self.rng = rng
        self.items = list(items)
        self.pool: list = []

    def draw(self):
        if not self.pool:
            self.pool = list(self.items)
            self.rng.shuffle(self.pool)
        return self.pool.pop()


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``etarho ARGV`` in-process, with its stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def cli_json(result) -> dict:
    code, out = result
    expect(code == 0, f"exit code {code}")
    return json.loads(out)


def units(n: int) -> list[int]:
    return [a for a in range(1, n) if math.gcd(a, n) == 1]


def exact_of(entry: dict) -> CyclotomicValue:
    """The exact value of one ``value_json`` entry of the CLI output."""
    exact = entry["exact"]
    if isinstance(exact, dict):
        return CyclotomicValue.from_json(exact)
    return CyclotomicValue.from_rational(Fraction(exact))


# ---------------------------------------------------------------------------
# rank-elim: elimination over Q(zeta_n)
# ---------------------------------------------------------------------------

class RankElim:
    """Theta-matrix ranks, span ranks and the Fourier identity."""

    # theta cost follows phi(n), not n: n = 17, 19, 21-23 cost 1-5 s each
    # and would leave a few jobs deciding a whole run, so they stay out
    THETA_N = (10, 12, 14, 16, 18, 20)
    SPAN_NK = ((3, 4), (5, 2), (5, 4), (7, 2), (7, 4), (9, 4))
    FOURIER_N = tuple(range(9, 25))

    def __init__(self, rng: random.Random):
        self.rng = rng

    def round(self, index: int) -> list[Job]:
        jobs = [self.theta_job(n) for n in self.THETA_N]
        jobs += [self.span_job(n, k) for n, k in self.SPAN_NK]
        jobs += [self.fourier_job(n) for n in self.FOURIER_N]
        self.rng.shuffle(jobs)
        return jobs

    def theta_job(self, n: int) -> Job:
        # the matrix is fixed: permuting its rows or columns moves the cost
        # of elimination by 30-40%, which would swamp the program's own
        def call():
            reps = chars.r_plus_test_reps(n)
            return etarho.exact_rank([list(rep.character.values) for rep in reps])

        def check(rank):
            expect(rank == n // 2, f"theta rank {rank} != {n // 2}")
            expect(etarho.rank_plus(chars.FiniteGroup.cyclic(n)) == n // 2,
                   "rank_plus != floor(n/2)")
            return {"rank": rank}

        return Job("theta_rank", {"n": n}, call, check, f"theta:{n}")

    def span_job(self, n: int, k: int) -> Job:
        def check(rank):
            full = etarho.rank_plus(chars.FiniteGroup.cyclic(n))
            if k == 4:
                expect(rank == full, f"span_rank({n}, plus, 4) = {rank} != {full}")
            else:
                expect(0 < rank <= full, f"span_rank({n}, plus, 2) = {rank} > {full}")
            return {"rank": rank}

        return Job("span_rank", {"n": n, "k": k},
                   lambda: etarho.span_rank(n, "plus", k), check, f"span:{n},{k}")

    def fourier_job(self, n: int) -> Job:
        rng = self.rng
        group = chars.FiniteGroup.cyclic(n)
        coeffs = [rng.randint(-3, 3) for _ in range(n)]
        if not any(coeffs):
            coeffs[rng.randrange(n)] = 1
        character = None
        for j, c in enumerate(coeffs):
            if c:
                term = chars.cyclic_irreducible_character(n, j).scale(c)
                character = term if character is None else character + term
        rep = etarho.VirtualRep(group, character)
        values = []
        for _ in range(n):
            if rng.random() < 0.5:
                poly = [Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                        for _ in range(rng.randint(1, 3))]
                values.append(CyclotomicValue(n, poly + [Fraction(0)]))
            else:
                values.append(CyclotomicValue.from_rational(
                    Fraction(rng.randint(-9, 9), rng.randint(1, 9))))
        rho = etarho.RhoVector(group, tuple(values))

        def call():
            eta = etarho.fourier_eta(rep, rho)
            return eta, eta == etarho.pair_phi(rep.character, rho)

        def check(result):
            eta, same = result
            expect(same, "fourier_eta != pair_phi(rep.character, .)")
            return {"eta": eta.to_json()}

        return Job("fourier", {"n": n, "coeffs": coeffs}, call, check, f"fourier:{n}")


# ---------------------------------------------------------------------------
# lens-tables: lens-space tables through the CLI and the library
# ---------------------------------------------------------------------------

def _law_holds(dim: int, values) -> bool:
    """Reality half of the law: real values when dim = 3 mod 4, else imaginary."""
    if dim % 4 == 3:
        return all(v.is_real() for v in values)
    return all(v.is_imaginary() for v in values)


def _integer_character(n: int, gcds: list[int]) -> "etarho.VirtualRep":
    """Sum over the chosen Galois orbits {j : gcd(j, n) = g} of psi_O - |O| chi_0."""
    group = chars.FiniteGroup.cyclic(n)
    chi0 = chars.cyclic_irreducible_character(n, 0)
    character = None
    for g in gcds:
        members = [j for j in range(1, n) if math.gcd(j, n) == g]
        for j in members:
            term = chars.cyclic_irreducible_character(n, j)
            character = term if character is None else character + term
        character = character - chi0.scale(len(members))
    return etarho.VirtualRep(group, character)


class LensTables:
    """CLI lens tables plus parity, twist, search and rho2 checks."""

    # (n, k) per slot.  A table costs more with k and phi(n): from about
    # 0.03 s at (7, 4) to 0.3 s at (23, 2) on the reference machine; tables
    # at n = 29, 31 with k >= 3 (1-1.5 s) stay out.  Searches own n = 9 and
    # 13, so no other slot meets the tables they cache.
    CLI_NK = ((7, 4), (11, 3), (17, 3), (19, 2), (21, 3), (23, 2))
    PARITY_NK = ((11, 2), (11, 4), (15, 2), (15, 3), (15, 4))
    TWIST_NK = ((5, 4), (7, 3))
    SEARCH_N = (9, 13)

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set = set()

    def weights(self, n: int, k: int) -> tuple[int, ...]:
        """Weights of a table this run has not built yet, so no slot but the
        searches is served from the table cache."""
        while True:
            weights = tuple(self.rng.choice(units(n)) for _ in range(k))
            if (n, weights) not in self.used:
                self.used.add((n, weights))
                return weights

    def round(self, index: int) -> list[Job]:
        jobs = [self.cli_job(n, k) for n, k in self.CLI_NK]
        jobs += [self.parity_job(n, k) for n, k in self.PARITY_NK]
        jobs += [self.twist_job(n, k) for n, k in self.TWIST_NK]
        jobs += [self.search_job(n) for n in self.SEARCH_N]
        jobs.append(self.rho2_job())
        self.rng.shuffle(jobs)
        return jobs

    def cli_job(self, n: int, k: int) -> Job:
        weights = self.weights(n, k)
        argv = ["lens", "--n", str(n), "--weights", ",".join(map(str, weights))]

        def check(result):
            data = cli_json(result)["results"]
            dim = 2 * k - 1
            expect(data["dim"] == dim, "dim")
            expect(data["expected_parity"]
                   == ("symmetric" if dim % 4 == 3 else "antisymmetric"), "parity label")
            expect(data["parity_holds"] is True, "parity law reported violated")
            expect(data["rho2_in_ring"] is True, f"rho2 outside {data['ring']}")
            table = [exact_of(row["value"]) for row in data["table"]]
            expect(len(table) == n and table[0].is_zero(), "table shape")
            expect(_law_holds(dim, table), "reality law fails on the printed table")
            return {"stdout": result[1]}

        return Job("cli_lens", {"argv": argv}, lambda: run_cli(argv), check,
                   f"cli:{n},{k}")

    def parity_job(self, n: int, k: int) -> Job:
        space = etarho.LensSpace(n, self.weights(n, k))

        def call():
            rho = etarho.lens_delocalized_rho(space)
            sym = (rho.is_tau_symmetric() if space.dim % 4 == 3
                   else rho.is_tau_antisymmetric())
            return rho, sym, _law_holds(space.dim, rho.values)

        def check(result):
            rho, sym, law = result
            expect(sym and law, f"parity/reality law fails on {space}")
            return {"table": rho.to_json()}

        return Job("parity", {"space": str(space)}, call, check, f"parity:{n},{k}")

    def twist_job(self, n: int, k: int) -> Job:
        space = etarho.LensSpace(n, self.weights(n, k))
        divisors = [g for g in range(1, n) if n % g == 0]
        gcds = sorted(self.rng.sample(divisors, self.rng.randint(1, len(divisors))))
        rep = _integer_character(n, gcds)
        ring = etarho.ring_from_orders([n])

        def check(value):
            expect(value.is_rational(), f"twist of {space} not rational")
            q = value.as_rational()
            expect(ring.contains(q), f"twist {q} of {space} outside {ring}")
            return {"value": str(q)}

        return Job("twist", {"space": str(space), "orbits": gcds},
                   lambda: etarho.lens_twisted_rho(space, rep), check, f"twist:{n},{k}")

    def search_job(self, n: int) -> Job:
        basis = etarho.class_space_basis(chars.FiniteGroup.cyclic(n), "plus")
        index = self.rng.randrange(len(basis))
        f = basis[index]

        def check(hit):
            expect(bool(hit), f"no witness for basis function {index} at n={n}")
            space, value = hit
            expect(space.k % 2 == 0 and not value.is_zero(), "bad witness")
            return {"space": str(space), "value": value.to_json()}

        return Job("search", {"n": n, "basis_index": index},
                   lambda: etarho.search_nonvanishing(n, "plus", f, [2, 4], 4 ** n),
                   check, f"search:{n}")

    def rho2_job(self) -> Job:
        space = etarho.LensSpace(3, (1, 1))

        def check(value):
            expect(value == Fraction(2, 9), f"rho2(L(3;1,1)) = {value}")
            return {"rho2": str(value)}

        return Job("rho2", {"space": str(space)},
                   lambda: etarho.rho2_from_delocalized(
                       etarho.lens_delocalized_rho(space)), check, "rho2")


# ---------------------------------------------------------------------------
# circle-audit: quadrature and partial sums, no exact field
# ---------------------------------------------------------------------------

def _check_term(n: int, value: complex, what: str) -> None:
    err = abs(value - 1j / (math.pi * n)) * math.pi * n
    expect(err < 1e-8, f"{what}(n={n}) relative error {err:.3e}")


class CircleAudit:
    """Audit sums, Fubini checks, fast-path partial sums and cheap terms."""

    # fast terms cost about the same at every n >= 11 and a little more
    # below; each n is its own slot
    TERM_N = (1, 2, 3, 5, 8, 13, 21, 34)
    OTHER = ("primes", "geo", "finite")

    def __init__(self, rng: random.Random):
        self.rng = rng
        # audit terms at n in 41..56 cost alike, so the audit slot can switch
        # between finite and arithmetic families; Fubini checks cost alike
        # at these n
        self.fubini_n = Deck(rng, (32, 35, 41, 44, 47, 50, 56))

    def round(self, index: int) -> list[Job]:
        jobs = [self.audit_job(("finite", "ap")[index % 2]), self.fubini_job(),
                self.cli_ap_job()]
        jobs += [self.cli_other_job(kind) for kind in self.OTHER]
        jobs += [self.term_job(n) for n in self.TERM_N]
        self.rng.shuffle(jobs)
        return jobs

    def audit_job(self, kind: str) -> Job:
        rng = self.rng
        if kind == "finite":
            elements = sorted(rng.sample(range(41, 57), 2))
            family = etarho.SubsetFamily.finite(elements)
            expected = "convergent"
        else:
            a, d = rng.randint(41, 50), rng.randint(1, 6)
            family = etarho.SubsetFamily.arithmetic(a, d)
            elements = [a, a + d]
            expected = "divergent"

        def check(report):
            expect(report.terms_used == 2, "terms_used")
            expect(report.verdict.kind == expected, f"verdict {report.verdict.kind}")
            if expected == "convergent":
                total = sum(Fraction(1, x) for x in elements)
                expect(report.verdict.exact.coeff == total, "finite exact sum")
            for n, err in zip(elements, report.per_term_errors):
                expect(err * math.pi * n < 1e-8, f"audit term n={n} error {err:.3e}")
            return {"partial": [(m, repr(v)) for m, v in report.partial_sums],
                    "errors": [repr(e) for e in report.per_term_errors],
                    "verdict": report.verdict.to_json()}

        return Job("audit", {"family": family.describe()},
                   lambda: etarho.eta_partial(family, 2, audit=True), check, "audit")

    def fubini_job(self) -> Job:
        n = self.fubini_n.draw()

        def check(value):
            _check_term(n, value, "eta_term x_then_t")
            return {"value": repr(value)}

        return Job("fubini", {"n": n},
                   lambda: etarho.eta_term(n, order="x_then_t"), check, "fubini")

    def term_job(self, n: int) -> Job:
        def check(value):
            _check_term(n, value, "eta_term")
            return {"value": repr(value)}

        return Job("term", {"n": n}, lambda: etarho.eta_term(n), check, f"term:{n}")

    def cli_ap_job(self) -> Job:
        a, d = self.rng.randint(1, 20), self.rng.randint(1, 9)
        terms = 100_000
        argv = ["circle", "--subset", f"ap:{a},{d}", "--terms", str(terms)]

        def check(result):
            data = cli_json(result)["results"]
            expect(data["verdict"]["kind"] == "divergent", "ap verdict")
            expect(data["terms_used"] == terms, "terms_used")
            last = data["partial_sums"][-1]
            expect(last["terms"] == terms, "last partial sum")
            with mpmath.workdps(30):
                x = mpmath.mpf(a) / d
                target = (mpmath.digamma(x + terms) - mpmath.digamma(x)) / (d * mpmath.pi)
            got = float(last["value"]["float"]["im"])
            expect(abs(got - float(target)) / float(target) < 1e-9,
                   f"ap partial sum {got} vs {target}")
            return {"stdout": result[1]}

        return Job("cli_circle_ap", {"argv": argv}, lambda: run_cli(argv), check,
                   "cli:ap")

    def cli_other_job(self, kind: str) -> Job:
        rng = self.rng
        if kind == "primes":
            terms = rng.randint(1000, 3000)
            subset, expected = "primes", "divergent"
            elements = list(sympy.primerange(2, sympy.prime(terms) + 1))
        elif kind == "geo":
            base, terms = rng.randint(2, 9), rng.randint(20, 60)
            subset, expected = f"geo:{base}", "convergent"
            elements = [base ** k for k in range(terms)]
        else:
            elements = sorted(rng.sample(range(1, 10_001), rng.randint(5, 30)))
            terms = len(elements) + rng.randint(0, 5)
            subset, expected = "finite:" + ",".join(map(str, elements)), "convergent"
        argv = ["circle", "--subset", subset, "--terms", str(terms)]

        def check(result):
            data = cli_json(result)["results"]
            expect(data["verdict"]["kind"] == expected, f"{kind} verdict")
            expect(data["terms_used"] == len(elements), "terms_used")
            total = sum(Fraction(1, x) for x in elements)
            if kind != "primes":
                expect(Fraction(data["exact"]["rational_coeff"]) == total,
                       f"{kind} exact partial sum")
            got = float(data["partial_sums"][-1]["value"]["float"]["im"])
            expect(abs(got * math.pi - float(total)) < 1e-9 * float(total),
                   f"{kind} float partial sum")
            return {"stdout": result[1]}

        return Job("cli_circle_" + kind, {"argv": argv}, lambda: run_cli(argv), check,
                   f"cli:{kind}")


# ---------------------------------------------------------------------------
# zoo-bfs: normal forms, balls and growth in the group zoo
# ---------------------------------------------------------------------------

# HNN class balls at radius 5, by slot: the elements of a slot cost alike
HNN_BALLS = {"t": ("t", "t^-1"), "e": ("e:0", "e:1", "t e:0 t^-1"), "qt": ("q:1/2 t",)}
ZOO_WORD_LETTERS = ("t", "t^-1", "e:0", "e:1", "e:-1", "e:0^-1", "q:1", "q:-1", "q:1/2")


class ZooBfs:
    """Britton normal forms, conjugacy and word balls, growth, zoo CLI."""

    WORD_BALLS = (("hnn", 4), ("lamplighter:2", 8), ("lamplighter:3", 5))
    CLI_KINDS = ("normalize", "class_of", "intersect", "ball", "growth")

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.hnn = etarho.HnnShift()
        self.qsemi = etarho.QSemidirect()

    def group(self, name: str):
        if name == "hnn":
            return self.hnn
        kind, _, n = name.partition(":")
        return etarho.Lamplighter(int(n)) if kind == "lamplighter" else etarho.Cyclic(int(n))

    def round(self, index: int) -> list[Job]:
        jobs = [self.normalize_job() for _ in range(10)]
        jobs += [self.hnn_ball_job(slot) for slot in HNN_BALLS]
        jobs += [self.q_ball_job(self.rng.choice(("e:0", "e:1", "e:0 e:1")), 5, "e"),
                 self.q_ball_job(self.rational(), 7, "q")]
        jobs += [self.word_ball_job(*ball) for ball in self.WORD_BALLS]
        jobs += [self.intersect_job(9), self.growth_job()]
        jobs += [self.cli_job(kind) for kind in self.CLI_KINDS]
        self.rng.shuffle(jobs)
        return jobs

    def rational(self) -> str:
        """q:a/b with a != b: the class ball of 1 is far larger than the rest."""
        a, b = self.rng.sample(range(1, 10), 2)
        return f"q:{a}/{b}"

    def random_word(self, max_len: int = 12) -> str:
        return " ".join(self.rng.choice(ZOO_WORD_LETTERS)
                        for _ in range(self.rng.randint(0, max_len)))

    def normalize_job(self) -> Job:
        hnn = self.hnn
        letters = [g for _, g in hnn.generators()]
        picks = [[self.rng.randrange(len(letters))
                  for _ in range(self.rng.randint(0, 12))] for _ in range(100)]
        words = [[letters[i] for i in word] for word in picks]

        def call():
            return [zoo.normalize(hnn, word) for word in words]

        def check(forms):
            for form in forms:
                head, tail = form
                eps = [e for e, _ in tail]
                syll = [head] + [g for _, g in tail]
                expect(not any(eps[i + 1] == -eps[i] and zoo.q_in_A(syll[i + 1])
                               for i in range(len(eps) - 1)), "normal form keeps a pinch")
                expect(hnn.mul(form, hnn.inv(form)) == hnn.identity, "u u^-1 != 1")
            return {"forms": [hnn.format_element(f) for f in forms]}

        return Job("normalize", {"words": picks}, call, check, "normalize")

    def hnn_ball_job(self, slot: str) -> Job:
        word, radius = self.rng.choice(HNN_BALLS[slot]), 5
        hnn = self.hnn
        h = zoo.normalize(hnn, word)

        def check(ball):
            expect(h in ball, "class ball misses h")
            expect(all(hnn.t_exponent_sum(u) == hnn.t_exponent_sum(h) for u in ball),
                   "t-exponent sum not conjugation invariant")
            return {"size": len(ball),
                    "elements": sorted(hnn.format_element(u) for u in ball)}

        return Job("class_ball_hnn", {"h": word, "radius": radius},
                   lambda: etarho.class_ball(hnn, h, radius), check, f"hnn-ball:{slot}")

    def q_ball_job(self, word: str, radius: int, slot: str) -> Job:
        qsemi = self.qsemi
        h = zoo.normalize(qsemi, word)

        def check(ball):
            expect(h in ball, "class ball misses h")
            if zoo.q_in_kernel(h):
                expect(all(etarho.conjugate_of_one_test(u) is True for u in ball),
                       "conjugates of a positive rational leave Q_{>0}")
            return {"size": len(ball),
                    "elements": sorted(qsemi.format_element(u) for u in ball)}

        return Job("class_ball_qsemi", {"h": word, "radius": radius},
                   lambda: etarho.class_ball(qsemi, h, radius), check, f"q-ball:{slot}")

    def word_ball_job(self, name: str, radius: int) -> Job:
        group = self.group(name)

        def check(ball):
            sizes = [int(s) for s in ball.sizes_by_radius()]
            gens = {g for _, g in group.generators()} - {group.identity}
            expect(sizes[0] == 1 and sizes[-1] == len(ball), "ball size")
            expect(radius == 0 or sizes[1] == 1 + len(gens), "radius-1 sphere")
            expect(all(a <= b for a, b in zip(sizes, sizes[1:])), "sizes not monotone")
            return {"sizes": sizes}

        return Job("word_ball", {"group": name, "radius": radius},
                   lambda: etarho.word_ball(group, radius), check, f"word-ball:{name}")

    def intersect_job(self, radius: int) -> Job:
        def check(ints):
            expect({1, 2} <= set(ints), "1, 2 not in the class of 1")
            expect(all(i > 0 for i in ints) and ints == sorted(ints), "integers")
            return {"integers": ints}

        return Job("intersect", {"radius": radius},
                   lambda: etarho.class_intersect_integers(self.hnn, radius), check,
                   f"intersect:{radius}")

    def growth_job(self) -> Job:
        radius = self.rng.randint(8, 12)
        lamp = etarho.Lamplighter(2)
        h = lamp.lamp(0, 1)

        def check(report):
            expect(report.kind == "polynomial", f"growth kind {report.kind}")
            expect(0.75 <= report.degree_estimate <= 1.25,
                   f"lamplighter degree {report.degree_estimate}")
            return report.to_json()

        return Job("growth", {"max_radius": radius},
                   lambda: etarho.growth_classify(lamp, h, radius), check, "growth")

    def cli_job(self, kind: str) -> Job:
        rng = self.rng
        if kind == "normalize":
            argv = ["zoo", "--group", rng.choice(("hnn", "qsemi")),
                    "--normalize", self.random_word()]
            if argv[2] == "qsemi":
                argv[4] = " ".join(t for t in argv[4].split() if not t.startswith("t"))
        elif kind == "class_of":
            argv = ["zoo", "--group", "qsemi", "--class-of",
                    self.rational(), "--radius", str(rng.randint(5, 8))]
        elif kind == "intersect":
            argv = ["zoo", "--group", "qsemi", "--intersect-integers",
                    "--radius", str(rng.randint(6, 11))]
        elif kind == "ball":
            argv = ["zoo", "--group", "lamplighter:2", "--ball", "6", "--format", "tsv"]
        else:
            argv = ["growth", "--group", "lamplighter:2", "--element", "lamp:0",
                    "--max-radius", str(rng.randint(8, 12))]

        def check(result):
            code, out = result
            expect(code == 0, f"exit code {code}")
            if kind == "ball":
                rows = dict(line.split("\t", 1) for line in out.splitlines())
                sizes = [int(rows[f"word_ball.sizes_by_radius[{i}]"])
                         for i in range(int(argv[4]) + 1)]
                count = sum(1 for key in rows if key.endswith(".normal_form"))
                expect(sizes[-1] == count and sizes[0] == 1, "tsv ball sizes")
                return {"stdout": out}
            data = json.loads(out)["results"]
            if kind == "class_of":
                expect(data["class_ball"]["all_in_positive_rationals"] is True,
                       "conjugates of a positive rational leave Q_{>0}")
            elif kind == "intersect":
                info = data["class_integers"]
                expect(info["all_positive"] is True and {1, 2} <= set(info["integers"]),
                       "class of 1")
            elif kind == "growth":
                expect(data["kind"] == "polynomial"
                       and 0.75 <= data["degree_estimate"] <= 1.25, "growth degree")
            return {"stdout": out}

        return Job("cli_" + kind, {"argv": argv}, lambda: run_cli(argv), check,
                   f"cli:{kind}")


def ball_json_probe() -> tuple[str, str]:
    """Run the default-JSON word ball, which the package cannot serialize yet.

    ``WordBall.sizes_by_radius`` returns numpy integers, so ``etarho zoo
    --ball N`` raises ``TypeError`` inside ``json.dumps``.  Returns
    ("known_defect", message) while that holds, ("ok", "") once the output
    parses and agrees with the TSV rendering, and raises CheckFailed on any
    other outcome.
    """
    argv = ["zoo", "--group", "lamplighter:2", "--ball", "3"]
    try:
        result = run_cli(argv)
    except TypeError as exc:
        if "JSON serializable" in str(exc):
            return "known_defect", f"etarho {' '.join(argv)}: TypeError: {exc}"
        raise
    data = cli_json(result)["results"]["word_ball"]
    code, out = run_cli(argv + ["--format", "tsv"])
    expect(code == 0, "tsv exit code")
    rows = dict(line.split("\t", 1) for line in out.splitlines())
    sizes = [int(rows[f"word_ball.sizes_by_radius[{i}]"]) for i in range(4)]
    expect(data["sizes_by_radius"] == sizes, "JSON and TSV ball sizes differ")
    return "ok", ""


WORKLOADS = {
    "rank-elim": RankElim,
    "lens-tables": LensTables,
    "circle-audit": CircleAudit,
    "zoo-bfs": ZooBfs,
}
