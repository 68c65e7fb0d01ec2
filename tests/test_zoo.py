import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate

import pytest

import zoo_oracle
from etarho import zoo
from etarho.zoo import (DESK_RADIUS_CAP, T_POWER_CAP, CapExceededError, Cyclic,
                        HnnShift, Lamplighter, Product, QSemidirect, ZooError,
                        _class_dist, _lambda_levels, class_ball, class_ball_counts,
                        class_ball_rationals, class_intersect_integers,
                        conjugate_of_one_test, growth_classify, multiplier_levels,
                        normalize, q_in_A, q_in_kernel, q_mul, word_ball)


@pytest.fixture(scope="module")
def hnn():
    return HnnShift()


@pytest.fixture(scope="module")
def gamma():
    return QSemidirect()


@pytest.fixture(scope="module")
def wreath_levels():
    """Zero-shift levels of the Z wr Z ball at the radius cap, by BFS in
    Lamplighter(25): lamp values never wrap within 12 steps, so v > 12
    reads as v - 25."""
    n, radius = 25, DESK_RADIUS_CAP
    levels = [set() for _ in range(radius + 1)]
    for (lamps, shift), r in zoo_oracle.word_ball(Lamplighter(n), radius).items():
        if shift == 0:
            levels[r].add(tuple((pos, v - n if v > radius else v) for pos, v in lamps))
    return tuple(frozenset(level) for level in levels)


def rand_word(group, rng, max_len):
    letters = [g for _, g in group.generators()]
    return [rng.choice(letters) for _ in range(rng.randint(0, max_len))]


class TestQSemidirectAlgebra:
    def test_prime_indexing(self, gamma):
        # p(0)=2, p(+-1)=3, p(+-2)=5: conjugation of the kernel multiplies
        for i, p in ((0, 2), (1, 3), (-1, 3), (2, 5), (-2, 5)):
            e = gamma.summand_generator(i)
            conj = gamma.mul(gamma.mul(e, gamma.rational(1)), gamma.inv(e))
            assert conj == gamma.rational(p)

    def test_kernel_conjugation_by_summand(self, gamma):
        # (0, e0) (1, 0) (0, -e0) = (2, 0)
        word = [gamma.summand_generator(0), gamma.rational(1),
                gamma.summand_generator(0, -1)]
        assert normalize(gamma, word) == gamma.rational(2)

    def test_empty_word_is_identity(self, gamma):
        assert normalize(gamma, []) == gamma.identity
        assert normalize(gamma, "") == gamma.identity

    def test_inverses(self, gamma):
        rng = random.Random(2)
        for _ in range(200):
            g = normalize(gamma, rand_word(gamma, rng, 8))
            assert gamma.mul(g, gamma.inv(g)) == gamma.identity


class TestHnnNormalForm:
    def test_shift_relation(self, hnn):
        # t e_0 t^-1 = e_1
        assert normalize(hnn, "t e:0 t^-1") == normalize(hnn, "e:1")
        assert normalize(hnn, "t^-1 e:0 t") == normalize(hnn, "e:-1")

    def test_powers_of_t(self, hnn):
        assert hnn.mul(hnn.t(3), hnn.t(-3)) == hnn.identity
        assert hnn.mul(hnn.t(2), hnn.t(1)) == hnn.t(3)

    def test_non_pinch_survives(self, hnn):
        w = normalize(hnn, "t q:1 t^-1")
        assert len(w[1]) == 2  # two t letters remain

    def test_soundness_10k_random_pairs(self, hnn):
        rng = random.Random(101)
        for _ in range(10_000):
            u = rand_word(hnn, rng, 6)
            v = rand_word(hnn, rng, 6)
            assert normalize(hnn, u + v) == hnn.mul(normalize(hnn, u),
                                                    normalize(hnn, v))

    def test_associativity_random(self, hnn):
        rng = random.Random(103)
        for _ in range(500):
            a, b, c = (normalize(hnn, rand_word(hnn, rng, 5)) for _ in range(3))
            assert hnn.mul(hnn.mul(a, b), c) == hnn.mul(a, hnn.mul(b, c))

    def test_britton_reduction_leaves_no_pinch(self, hnn):
        rng = random.Random(107)
        for _ in range(10_000):
            head, tail = normalize(hnn, rand_word(hnn, rng, 10))
            eps = [e for e, _ in tail]
            syll = [head] + [g for _, g in tail]
            for i in range(len(eps) - 1):
                assert not (eps[i + 1] == -eps[i] and q_in_A(syll[i + 1]))

    def test_inverse_roundtrip(self, hnn):
        rng = random.Random(109)
        for _ in range(2000):
            w = normalize(hnn, rand_word(hnn, rng, 8))
            assert hnn.mul(w, hnn.inv(w)) == hnn.identity
            assert hnn.inv(hnn.inv(w)) == w

    def test_relation_rewrites_preserve_normal_form(self, hnn):
        # replacing a letter a in A by t^-1 alpha(a) t (or t alpha^-1(a) t^-1)
        # or padding with g g^-1 rewrites the word without changing the
        # element, so the canonical form must be identical
        from etarho.zoo import q_alpha
        rng = random.Random(137)
        letters = [g for _, g in hnn.generators()]
        for _ in range(2000):
            word = [rng.choice(letters) for _ in range(rng.randint(1, 8))]
            rewritten = []
            for letter in word:
                roll = rng.random()
                if letter[1] == () and q_in_A(letter[0]) and roll < 0.4:
                    shifted = hnn.from_base(q_alpha(letter[0], 1))
                    rewritten += [hnn.t(-1), shifted, hnn.t(1)]
                elif roll < 0.55:
                    pad = rng.choice(letters)
                    rewritten += [pad, hnn.inv(pad), letter]
                else:
                    rewritten.append(letter)
            assert normalize(hnn, word) == normalize(hnn, rewritten)

    def test_transversal_canonical_form(self, hnn):
        # all syllables except the last must lie in the rational kernel
        rng = random.Random(113)
        for _ in range(2000):
            head, tail = normalize(hnn, rand_word(hnn, rng, 8))
            interior = [head] + [g for _, g in tail][:-1] if tail else []
            for g in interior:
                assert not g[1]  # lambda part pushed out


class TestJunctionProducts:
    """HnnShift.mul and inv against whole-word Britton normalization."""

    # multi-index A-parts, non-integer q, and t-runs that cancel
    EXTRA_WORDS = ("q:1/2", "q:-3/4 e:1", "e:3^2 e:-1", "e:0 e:2^-1 q:5/7",
                   "t^2", "t^-2", "t e:0 t^-1", "t^-1 q:1/3 t")

    def test_mul_and_inv_match_oracle(self, hnn):
        oracle = zoo_oracle.OracleHnn()
        letters = [g for _, g in hnn.generators()]
        letters += [normalize(oracle, w) for w in self.EXTRA_WORDS]
        rng = random.Random(149)

        def word():
            return normalize(oracle, [rng.choice(letters) for _ in range(rng.randint(0, 10))])

        for _ in range(10_000):
            u, v = word(), word()
            for got, want in ((hnn.mul(u, v), oracle.mul(u, v)), (hnn.inv(u), oracle.inv(u))):
                assert got == want
                assert hnn.format_element(got) == hnn.format_element(want)
                assert repr(got) == repr(want)

    @pytest.mark.parametrize("group, word", [
        (HnnShift(), "q:1/2 t"), (HnnShift(), "t"), (HnnShift(), "t^-1"),
        (HnnShift(), "e:0"), (HnnShift(), "e:1"), (HnnShift(), "t e:0 t^-1"),
        (QSemidirect(), "e:0 e:1")], ids=lambda v: getattr(v, "name", v))
    def test_class_levels_match_oracle(self, group, word):
        oracle_group = zoo_oracle.OracleHnn() if isinstance(group, HnnShift) else group
        h = normalize(group, word)
        got = [set() for _ in range(7)]
        for c, r in _class_dist(group, h, 6).items():
            got[r].add(c)
        want = zoo_oracle.class_levels(oracle_group, h, 6)
        for r in range(7):
            assert got[r] == want[r], f"radius {r}"

    def test_word_ball_matches_oracle_in_order(self, hnn):
        got = word_ball(hnn, 5).elements
        want = zoo_oracle.word_ball(zoo_oracle.OracleHnn(), 5)
        assert list(got.items()) == list(want.items())

    def test_q_mul_is_the_plain_formula(self):
        rng = random.Random(151)

        def element():
            q = Fraction(rng.randint(-6, 6), rng.randint(1, 6)) if rng.random() < 0.6 else 0
            lam = {rng.randint(-3, 3): rng.choice((-2, -1, 1, 2))
                   for _ in range(rng.randint(0, 3))}
            return (Fraction(q), tuple(sorted(lam.items())))

        for _ in range(5000):
            a, b = element(), element()
            got, want = q_mul(a, b), zoo_oracle.plain_q_mul(a, b)
            assert got == want and repr(got) == repr(want)
            assert type(got[0]) is Fraction

    def test_t_power_cap(self, hnn):
        assert hnn.t(-T_POWER_CAP) == hnn.inv(hnn.t(T_POWER_CAP))
        with pytest.raises(ZooError, match="above the cap of"):
            hnn.t(T_POWER_CAP + 1)
        with pytest.raises(ZooError, match="above the cap of"):
            normalize(hnn, "t^-99999999")

    def test_e_letter_cap(self, gamma):
        # p(|i|)^k is computed exactly, so index and power are capped like t
        assert normalize(gamma, "e:0^10000 q:1") == (2 ** T_POWER_CAP, ((0, T_POWER_CAP),))
        assert normalize(gamma, "e:-10000") == (Fraction(0), ((-10000, 1),))
        assert normalize(gamma, "e:10000 q:1")[0] == 104743  # the 10001st prime
        for word in ("e:0^10001", "e:0^-99999999", "e:10001", "e:-99999999^2", "e^10001"):
            with pytest.raises(ZooError, match="above the cap of"):
                normalize(gamma, word)


class TestFusedConjugation:
    """HnnShift.conjugators and the parent-skipping BFS against plain products."""

    def test_conjugators_match_products_and_oracle(self, hnn):
        oracle = zoo_oracle.OracleHnn()
        gens = [g for _, g in hnn.generators()]
        pairs = list(zip(gens, [hnn.inv(g) for g in gens], hnn.conjugators()))
        assert len(pairs) == 6
        letters = gens + [normalize(oracle, w) for w in TestJunctionProducts.EXTRA_WORDS]
        rng = random.Random(157)
        for _ in range(10_000):
            u = normalize(hnn, [rng.choice(letters) for _ in range(rng.randint(0, 8))])
            for g, g_inv, conjugate in pairs:
                got = conjugate(u)
                assert repr(got) == repr(hnn.mul(g, hnn.mul(u, g_inv))), (u, g)
                assert got == zoo_oracle.conjugate(oracle, g, u), (u, g)

    # HnnShift's word ball order is checked in TestJunctionProducts
    @pytest.mark.parametrize("group, radius", [
        (Lamplighter(2), 7), (Lamplighter(3), 5), (Cyclic(1), 3), (Cyclic(2), 3),
        (Cyclic(5), 4), (Product(Cyclic(3), Lamplighter(2)), 4)],
        ids=lambda v: getattr(v, "name", v))
    def test_word_ball_matches_oracle_in_order(self, group, radius):
        got = word_ball(group, radius).elements
        assert list(got.items()) == list(zoo_oracle.word_ball(group, radius).items())

    @pytest.fixture(scope="class")
    def oracle_balls(self, hnn):
        """(h, its radius-4 conjugate ball, the radius-4 word ball) by the oracle."""
        oracle = zoo_oracle.OracleHnn()
        h = normalize(hnn, "q:1/2 t")
        conjugates = zoo_oracle.ball(oracle, h,
                                     lambda c, g: zoo_oracle.conjugate(oracle, g, c), 4)
        return h, conjugates, zoo_oracle.word_ball(oracle, 4)

    @pytest.mark.parametrize("budget", [1, 6, 36, 50, 400])
    def test_node_budget_fires_at_the_same_radius(self, hnn, oracle_balls, budget,
                                                  monkeypatch):
        h, conjugates, words = oracle_balls
        monkeypatch.setattr(zoo, "DEFAULT_NODE_BUDGET", budget)
        for search, full in ((lambda: class_ball(hnn, h, 4), conjugates),
                             (lambda: word_ball(hnn, 4), words)):
            sizes = accumulate(Counter(full.values())[r] for r in range(5))
            radius = next(r for r, size in enumerate(sizes) if size > budget)
            with pytest.raises(CapExceededError) as caught:
                search()
            assert str(caught.value) == f"ball exceeded node budget {budget} at radius {radius}"


class TestLamplighter:
    def test_conjugation_translates_lamps(self):
        L = Lamplighter(2)
        t = L.shift(1)
        moved = L.mul(L.mul(t, L.lamp(0, 1)), L.inv(t))
        assert moved == L.lamp(1, 1)

    def test_torsion(self):
        L = Lamplighter(3)
        g = L.lamp(2, 1)
        assert L.mul(L.mul(g, g), g) == L.identity

    def test_soundness_10k(self):
        L = Lamplighter(3)
        rng = random.Random(127)
        for _ in range(10_000):
            u, v = rand_word(L, rng, 8), rand_word(L, rng, 8)
            assert normalize(L, u + v) == L.mul(normalize(L, u), normalize(L, v))

    def test_class_keys_translate_invariant(self):
        L = Lamplighter(2)
        assert L.class_key(L.lamp(0, 1)) == L.class_key(L.lamp(9, 1))
        with pytest.raises(ZooError):
            L.class_key(L.shift(1))


class TestProductAndCyclic:
    def test_cyclic_ops(self):
        c = Cyclic(6)
        assert c.mul(4, 5) == 3
        assert c.inv(2) == 4
        assert normalize(c, "g^7") == 1

    def test_product_componentwise(self):
        c3, c4 = Cyclic(3), Cyclic(4)
        p = Product(c3, c4)
        a, b = (1, 2), (2, 3)
        assert p.mul(a, b) == (0, 1)
        assert p.inv((1, 1)) == (2, 3)
        assert p.mul(p.inv(a), a) == p.identity

    def test_soundness_10k_each(self):
        rng = random.Random(131)
        for group in (Cyclic(5), Product(Cyclic(2), Cyclic(3)),
                      QSemidirect()):
            for _ in range(10_000):
                u, v = rand_word(group, rng, 6), rand_word(group, rng, 6)
                assert normalize(group, u + v) == group.mul(
                    normalize(group, u), normalize(group, v))


class TestConjugateOfOne:
    def test_positive_rationals_in(self, gamma):
        assert conjugate_of_one_test(gamma.rational(Fraction(5, 6))) is True

    def test_negative_out(self, gamma):
        assert conjugate_of_one_test(gamma.rational(-1)) is False

    def test_identity_not_in(self, gamma):
        assert conjugate_of_one_test(gamma.rational(0)) is False

    def test_outside_kernel_not_applicable(self, gamma):
        assert conjugate_of_one_test(gamma.summand_generator(0)) is None


class TestClassBalls:
    def test_cyclic_singleton(self):
        assert class_ball(Cyclic(7), 3, 5) == {3}

    def test_lamplighter_lamp_ball_size(self):
        L = Lamplighter(2)
        for r in (0, 1, 3, 6):
            ball = class_ball(L, L.lamp(0, 1), r)
            assert ball == {L.lamp(k, 1) for k in range(-r, r + 1)}

    def test_radius_cap_enforced(self):
        with pytest.raises(CapExceededError):
            class_ball(Cyclic(3), 1, 13)

    def test_qsemidirect_ball_all_positive_kernel(self, gamma):
        ball = class_ball(gamma, gamma.rational(1), 8)
        assert all(q_in_kernel(el) for el in ball)
        assert all(conjugate_of_one_test(el) for el in ball)

    def test_hnn_class_ball_radius6_contains_small_integers(self, hnn):
        one = hnn.from_base((Fraction(1), ()))
        ball = class_ball(hnn, one, 6)
        for q in (1, 2, 3):
            assert hnn.from_base((Fraction(q), ())) in ball

    def test_hnn_rationals_match_bfs(self, hnn):
        # the multiplier reduction against the brute-force conjugate BFS
        one = hnn.from_base((Fraction(1), ()))
        for r in range(0, 6):
            full = class_ball(hnn, one, r)
            bfs_rationals = {hnn.kernel_rational(u) for u in full} - {None}
            assert bfs_rationals == class_ball_rationals(hnn, 1, r)

    def test_qsemidirect_matches_hnn_rationals(self, gamma, hnn):
        got = {el[0] for el in class_ball(gamma, gamma.rational(1), 9)}
        assert got == class_ball_rationals(hnn, 1, 9)

    def test_node_budget_guard(self, hnn, monkeypatch):
        monkeypatch.setattr(zoo, "DEFAULT_NODE_BUDGET", 1000)
        one = hnn.from_base((Fraction(1), ()))
        with pytest.raises(CapExceededError):
            class_ball(hnn, one, 8)

    def test_monotone_in_radius(self, gamma):
        balls = [class_ball(gamma, gamma.rational(1), r) for r in range(6)]
        for small, big in zip(balls, balls[1:]):
            assert small <= big

    @pytest.mark.parametrize("group, word", [
        (Cyclic(5), "g^2"), (Cyclic(5), ""),
        (Lamplighter(2), "lamp:0"), (Lamplighter(3), "lamp:0 shift"), (Lamplighter(2), ""),
        (QSemidirect(), "q:1"), (QSemidirect(), "e:0"), (QSemidirect(), "q:0"),
        (HnnShift(), "t"), (HnnShift(), ""),
        (Product(Cyclic(3), Lamplighter(2)), [(1, ((), 1))]),
        (Product(Cyclic(3), Lamplighter(2)), []),
    ], ids=lambda v: getattr(v, "name", None) or str(v or "identity"))
    def test_ball_size_matches_counts(self, group, word):
        h = normalize(group, word)
        for r in range(5):
            assert len(class_ball(group, h, r)) == class_ball_counts(group, h, r)[-1]


class TestClassIntegers:
    def test_radius0(self, hnn):
        assert class_intersect_integers(hnn, 0) == [1]

    def test_radius6_superset(self, hnn):
        ints = class_intersect_integers(hnn, 6)
        assert {1, 2}.issubset(ints)
        assert all(i > 0 for i in ints)

    def test_radius12_no_nonpositive(self, hnn):
        ints = class_intersect_integers(hnn, 12)
        assert {1, 2}.issubset(ints)
        assert all(i > 0 for i in ints)
        assert sorted(ints) == ints

    def test_multiplier_levels_radius_cap_first(self):
        # raised before the Z wr Z levels are enumerated
        with pytest.raises(CapExceededError, match="desk-scale cap"):
            multiplier_levels(DESK_RADIUS_CAP + 1)
        with pytest.raises(ZooError, match=">= 0"):
            multiplier_levels(-1)

    def test_lambda_levels_match_lamplighter_ball(self, wreath_levels):
        # first-reach levels are prefix-stable, so radius r is a prefix
        for r in range(DESK_RADIUS_CAP + 1):
            assert _lambda_levels(r) == wreath_levels[:r + 1]

    def test_multiplier_levels_all_positive(self):
        for level in multiplier_levels(12):
            assert all(m > 0 for m in level)

    def test_rejects_other_groups(self):
        with pytest.raises(ZooError):
            class_intersect_integers(Cyclic(3), 3)

    def test_rejects_negative_radius(self, hnn):
        with pytest.raises(ZooError):
            class_intersect_integers(hnn, -1)
        with pytest.raises(ZooError):
            class_ball_counts(Lamplighter(2), Lamplighter(2).lamp(0, 1), -1)


class TestGrowth:
    def test_lamp_generator_degree_one(self):
        L = Lamplighter(2)
        report = growth_classify(L, L.lamp(0, 1), 10)
        assert report.kind == "polynomial"
        assert 0.75 <= report.degree_estimate <= 1.25
        assert report.counts == tuple(2 * r + 1 for r in range(11))

    def test_shift_generator_exponential(self):
        L = Lamplighter(2)
        report = growth_classify(L, L.shift(1), 10)
        assert report.kind == "exponential"

    @pytest.mark.parametrize("radius", [0, -1])
    def test_rejects_radius_below_one(self, radius):
        # radius 0 would report the window [1, 0] and degree 0 from no data
        with pytest.raises(ZooError, match="max_radius must be >= 1"):
            growth_classify(Lamplighter(2), Lamplighter(2).lamp(0, 1), radius)

    def test_cyclic_degree_zero(self):
        report = growth_classify(Cyclic(5), 2, 8)
        assert report.kind == "polynomial"
        assert report.degree_estimate == 0.0

    def test_kernel_class_in_base_group_not_polynomial(self, gamma):
        report = growth_classify(gamma, gamma.rational(1), 12)
        assert report.kind == "exponential"

    def test_counts_reproducible(self, gamma):
        a = class_ball_counts(gamma, gamma.rational(1), 10)
        b = class_ball_counts(gamma, gamma.rational(1), 10)
        assert a == b


def _growth_sweep():
    """(group, element, largest radius within the node budget), with ids."""
    L2, Q, H = Lamplighter(2), QSemidirect(), HnnShift()
    cases = [(f"cyclic:{n}-g^{h}", Cyclic(n), h, DESK_RADIUS_CAP)
             for n in (1, 2, 5, 12) for h in range(n)]
    for n in (2, 3, 4):
        L = Lamplighter(n)
        cases += [(f"{L.name}-lamp", L, L.lamp(0, 1), DESK_RADIUS_CAP),
                  (f"{L.name}-shift", L, L.shift(1), DESK_RADIUS_CAP),
                  (f"{L.name}-two-lamps", L, L.mul(L.lamp(0, 1), L.lamp(1, 1)), DESK_RADIUS_CAP)]
    cases += [("lamplighter:2-shift^2", L2, L2.shift(2), DESK_RADIUS_CAP),
              ("qsemi-q1", Q, Q.rational(1), DESK_RADIUS_CAP),
              ("qsemi-q1/2", Q, Q.rational(Fraction(1, 2)), DESK_RADIUS_CAP),
              ("qsemi-e0", Q, Q.summand_generator(0), 7),
              ("hnn-q1", H, H.from_base(Q.rational(1)), 7),
              ("hnn-e0", H, H.from_base(Q.summand_generator(0)), 7),
              ("hnn-t", H, H.t(1), 6),
              ("hnn-q1/2", H, H.from_base(Q.rational(Fraction(1, 2))), 6)]
    return [pytest.param(group, h, radius, id=label) for label, group, h, radius in cases]


class TestGrowthOracle:
    @pytest.mark.parametrize("group, h, radius", _growth_sweep())
    def test_matches_numpy_fit_at_every_radius(self, monkeypatch, group, h, radius):
        # the counts up to radius r are the first r + 1 of the largest ball's
        counts = class_ball_counts(group, h, radius)
        prefix = (lambda group, h, r: counts[:r + 1])
        monkeypatch.setattr(zoo, "class_ball_counts", prefix)
        monkeypatch.setattr(zoo_oracle, "class_ball_counts", prefix)
        for r in range(1, radius + 1):
            got = growth_classify(group, h, r)
            want = zoo_oracle.growth_classify(group, h, r)
            assert (got.kind, got.counts, got.window, got.ratios) == (
                want.kind, want.counts, want.window, want.ratios)
            if want.degree_estimate is None:
                assert got.degree_estimate is None
            else:
                assert abs(got.degree_estimate - want.degree_estimate) <= 2e-15

    def test_lamplighter_degree_bytes(self):
        # the exact slope differs from np.polyfit in the last bits only
        report = growth_classify(Lamplighter(2), Lamplighter(2).lamp(0, 1), 10)
        assert report.degree_estimate == 0.9331433206733007


class TestWordBalls:
    def test_lamplighter_ball(self):
        L = Lamplighter(2)
        ball = word_ball(L, 3)
        assert ball.elements[L.identity] == 0
        assert ball.elements[L.lamp(0, 1)] == 1
        sizes = ball.sizes_by_radius()
        assert sizes[0] == 1 and sizes == sorted(sizes)

    def test_hnn_small_ball(self, hnn):
        ball = word_ball(hnn, 3)
        assert ball.elements[hnn.t(1)] == 1
        assert ball.elements[normalize(hnn, "e:1")] == 3  # t e0 t^-1

    def test_budget(self, hnn, monkeypatch):
        monkeypatch.setattr(zoo, "DEFAULT_NODE_BUDGET", 50)
        with pytest.raises(CapExceededError):
            word_ball(hnn, 8)

    def test_radius_cap(self, hnn):
        # raised before the search: the node budget would stop it only at radius 8
        with pytest.raises(CapExceededError, match="desk-scale cap"):
            word_ball(hnn, DESK_RADIUS_CAP + 1)


class TestParsing:
    def test_letters(self, hnn):
        assert normalize(hnn, "q:3/4") == hnn.from_base((Fraction(3, 4), ()))
        assert normalize(hnn, "e:2^-3") == hnn.from_base((Fraction(0), ((2, -3),)))
        assert normalize(hnn, "t^2") == hnn.t(2)

    def test_star_separator(self, hnn):
        assert normalize(hnn, "t * e:0 * t^-1") == normalize(hnn, "e:1")

    def test_unknown_letter(self, hnn):
        with pytest.raises(ZooError):
            normalize(hnn, "w:1")

    def test_format_roundtrip_readable(self, hnn):
        w = normalize(hnn, "q:1 t e:0")
        text = hnn.format_element(w)
        assert "t" in text and "q=1" in text
