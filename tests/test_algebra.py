import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncupper.algebra import (AlgebraSpec, GeneratorSpec, Letter, NCPolynomial,
                             Word, canonicalize, charge, evaluate, multiply,
                             star, star_word, words_up_to)
from ncupper.errors import InputError
from conftest import random_word


def w(*pairs):
    return Word(tuple(Letter(g, s) for g, s in pairs))


class TestCanonicalize:
    def test_herm_square_is_unit(self, herm_algebra):
        assert canonicalize(w(("b1", False), ("b1", False)), herm_algebra) == Word()

    def test_unitary_cancel(self, unitary_algebra):
        assert canonicalize(w(("u1", False), ("u1", True)), unitary_algebra) == Word()
        assert canonicalize(w(("u1", True), ("u1", False)), unitary_algebra) == Word()

    def test_factor_stable_sort(self, bipartite_algebra):
        word = w(("b1", False), ("c1", False), ("b2", False))
        assert canonicalize(word, bipartite_algebra) == \
            w(("b1", False), ("b2", False), ("c1", False))

    def test_herm_star_normalized(self, herm_algebra):
        assert canonicalize(w(("b1", True)), herm_algebra) == w(("b1", False))

    def test_unknown_generator(self, herm_algebra):
        with pytest.raises(InputError):
            canonicalize(w(("zz", False)), herm_algebra)

    def test_idempotent_and_never_longer_random(self, bipartite_algebra):
        rng = random.Random(7)
        for _ in range(300):
            word = random_word(rng, bipartite_algebra, 10)
            c = canonicalize(word, bipartite_algebra)
            assert canonicalize(c, bipartite_algebra) == c
            assert len(c) <= len(word)


class TestStar:
    def test_unit(self, herm_algebra):
        assert star(NCPolynomial.one(), herm_algebra) == NCPolynomial.one()

    def test_antihomomorphism_example(self, unitary_algebra):
        p = NCPolynomial.from_word(w(("u1", False), ("u2", False)))
        sp = star(p, unitary_algebra)
        assert sp == NCPolynomial.from_word(w(("u2", True), ("u1", True)))

    def test_herm_letters_self_adjoint(self, herm_algebra):
        p = NCPolynomial.from_word(w(("b1", False))) + \
            NCPolynomial.from_word(w(("b1", False), ("b2", False)), 2)
        sp = star(p, herm_algebra)
        expected = NCPolynomial.from_word(w(("b1", False))) + \
            NCPolynomial.from_word(w(("b2", False), ("b1", False)), 2)
        assert sp == expected

    def test_involution_random(self, bipartite_algebra):
        rng = random.Random(3)
        for _ in range(100):
            p = NCPolynomial.from_word(
                canonicalize(random_word(rng, bipartite_algebra, 6),
                             bipartite_algebra),
                Fraction(rng.randrange(-5, 6) or 1))
            assert star(star(p, bipartite_algebra), bipartite_algebra) == p


class TestMultiply:
    def test_relation(self, herm_algebra):
        b = NCPolynomial.from_word(w(("b1", False)))
        assert multiply(b, b, herm_algebra) == NCPolynomial.one()

    def test_unit(self, herm_algebra):
        p = NCPolynomial.from_word(w(("b1", False), ("b2", False)), Fraction(3, 7))
        assert multiply(NCPolynomial.one(), p, herm_algebra) == p

    def test_difference_product(self, herm_algebra):
        # (b1 - b2)(b1 + b2) = 1 + b1 b2 - b2 b1 - 1 = b1 b2 - b2 b1
        b1 = NCPolynomial.from_word(w(("b1", False)))
        b2 = NCPolynomial.from_word(w(("b2", False)))
        got = multiply(b1 - b2, b1 + b2, herm_algebra)
        expected = NCPolynomial.from_word(w(("b1", False), ("b2", False))) - \
            NCPolynomial.from_word(w(("b2", False), ("b1", False)))
        assert got == expected

    def test_associative_random(self, bipartite_algebra):
        rng = random.Random(11)
        for _ in range(40):
            polys = []
            for _ in range(3):
                p = NCPolynomial.zero()
                for _ in range(rng.randrange(1, 5)):
                    word = canonicalize(random_word(rng, bipartite_algebra, 4),
                                        bipartite_algebra)
                    p = p + NCPolynomial.from_word(word, rng.randrange(-3, 4) or 1)
                polys.append(p)
            p, q, r = polys
            lhs = multiply(multiply(p, q, bipartite_algebra), r, bipartite_algebra)
            rhs = multiply(p, multiply(q, r, bipartite_algebra), bipartite_algebra)
            assert lhs == rhs

    def test_star_antihomomorphism_random(self, unitary_algebra):
        rng = random.Random(5)
        for _ in range(50):
            p = NCPolynomial.from_word(
                canonicalize(random_word(rng, unitary_algebra, 4), unitary_algebra),
                rng.randrange(1, 5))
            q = NCPolynomial.from_word(
                canonicalize(random_word(rng, unitary_algebra, 4), unitary_algebra),
                rng.randrange(-4, 0))
            lhs = star(multiply(p, q, unitary_algebra), unitary_algebra)
            rhs = multiply(star(q, unitary_algebra), star(p, unitary_algebra),
                           unitary_algebra)
            assert lhs == rhs


def brute_force_words(algebra, subset, d):
    """Independent oracle: enumerate all raw letter strings, canonicalize,
    dedupe."""
    choices = []
    for gid in subset:
        kind = algebra.generator(gid).kind
        choices.append(Letter(gid, False))
        if kind != "hermitian-unitary":
            choices.append(Letter(gid, True))
    seen = set()
    for length in range(d + 1):
        for combo in itertools.product(choices, repeat=length):
            c = canonicalize(Word(combo), algebra)
            if len(c) <= d:
                seen.add(c)
    return seen


class TestWordsUpTo:
    def test_single_unitary_order1(self, unitary_algebra):
        got = words_up_to(unitary_algebra, ["u1"], 1)
        assert got == [Word(), w(("u1", False)), w(("u1", True))]

    def test_single_herm_order2(self, herm_algebra):
        got = words_up_to(herm_algebra, ["b1"], 2)
        assert got == [Word(), w(("b1", False))]
        assert got[0] == Word()

    def test_two_herm_order2(self, herm_algebra):
        got = words_up_to(herm_algebra, ["b1", "b2"], 2)
        assert got == [Word(), w(("b1", False)), w(("b2", False)),
                       w(("b1", False), ("b2", False)),
                       w(("b2", False), ("b1", False))]

    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_matches_brute_force(self, bipartite_algebra, d):
        subset = ["b1", "b2", "c1"]
        got = words_up_to(bipartite_algebra, subset, d)
        assert set(got) == brute_force_words(bipartite_algebra, subset, d)
        assert len(set(got)) == len(got)

    def test_prefix_compatible(self, bipartite_algebra):
        subset = [g.id for g in bipartite_algebra.generators]
        for d in range(3):
            small = words_up_to(bipartite_algebra, subset, d)
            big = words_up_to(bipartite_algebra, subset, d + 1)
            assert big[:len(small)] == small


class TestEvaluate:
    def test_unit(self, unitary_algebra):
        out = evaluate(NCPolynomial.one(), {}, unitary_algebra)
        assert np.allclose(out, np.eye(1))

    def test_uustar(self, unitary_algebra):
        rng = np.random.default_rng(0)
        from ncupper.haar import haar_sample
        u = haar_sample(rng, 1, 4)[0]
        p = NCPolynomial.from_word(w(("u1", False), ("u1", True)))
        out = evaluate(p, {"u1": u}, unitary_algebra)
        assert np.allclose(out, np.eye(4), atol=1e-12)

    def test_signature(self, herm_algebra):
        b = np.diag([1.0, -1.0]).astype(complex)
        p = NCPolynomial.from_word(w(("b1", False)))
        out = evaluate(p, {"b1": b}, herm_algebra)
        assert np.allclose(out, b)

    def test_dimension_mismatch(self, unitary_algebra):
        p = NCPolynomial.from_word(w(("u1", False), ("u2", False)))
        with pytest.raises(InputError):
            evaluate(p, {"u1": np.eye(2, dtype=complex),
                         "u2": np.eye(3, dtype=complex)}, unitary_algebra)

    def test_relation_warning(self, unitary_algebra):
        p = NCPolynomial.from_word(w(("u1", False)))
        with pytest.warns(UserWarning):
            evaluate(p, {"u1": 2 * np.eye(2, dtype=complex)}, unitary_algebra)

    def test_homomorphism_random(self, unitary_algebra):
        from ncupper.haar import haar_sample
        rng = np.random.default_rng(2)
        pyrng = random.Random(2)
        for _ in range(30):
            dim = pyrng.choice([2, 3, 6])
            assign = {"u1": haar_sample(rng, 1, dim)[0],
                      "u2": haar_sample(rng, 1, dim)[0]}
            p = NCPolynomial.from_word(
                canonicalize(random_word(pyrng, unitary_algebra, 3),
                             unitary_algebra), 2)
            q = NCPolynomial.from_word(
                canonicalize(random_word(pyrng, unitary_algebra, 3),
                             unitary_algebra), Fraction(-1, 3))
            lhs = evaluate(multiply(p, q, unitary_algebra), assign, unitary_algebra)
            rhs = evaluate(p, assign, unitary_algebra) @ \
                evaluate(q, assign, unitary_algebra)
            assert np.allclose(lhs, rhs, atol=1e-12)


class TestCharge:
    def test_net_exponent_per_unitary_in_generator_order(self):
        algebra = AlgebraSpec((GeneratorSpec("v", "unitary", 1),
                               GeneratorSpec("b", "hermitian-unitary", 0),
                               GeneratorSpec("x", "general", 0),
                               GeneratorSpec("u", "unitary", 0)))
        word = w(("u", False), ("b", False), ("v", True), ("x", True),
                 ("u", False), ("v", True), ("u", True))
        assert charge(word, algebra) == (-2, 1)
        assert charge((), algebra) == (0, 0)

    def test_no_unitary_generator(self, herm_algebra):
        assert charge(w(("b1", False), ("b2", True)), herm_algebra) == ()

    def test_additive_negated_by_star_kept_by_canonicalize(
            self, bipartite_algebra):
        algebra = AlgebraSpec(bipartite_algebra.generators + (
            GeneratorSpec("u", "unitary", 0),
            GeneratorSpec("v", "unitary", 1)))
        rng = random.Random(11)
        for _ in range(200):
            a = random_word(rng, algebra, 6)
            b = random_word(rng, algebra, 6)
            qa, qb = charge(a, algebra), charge(b, algebra)
            assert charge(a + b, algebra) == tuple(
                x + y for x, y in zip(qa, qb))
            assert charge(star_word(a), algebra) == tuple(-x for x in qa)
            assert charge(canonicalize(a, algebra), algebra) == qa


@given(st.lists(st.tuples(st.sampled_from(["b1", "b2", "c1", "c2"]),
                          st.booleans()), max_size=10))
@settings(max_examples=200, deadline=None)
def test_canonicalize_idempotent_hypothesis(pairs):
    algebra = AlgebraSpec((GeneratorSpec("b1", "hermitian-unitary", 0),
                           GeneratorSpec("b2", "hermitian-unitary", 0),
                           GeneratorSpec("c1", "unitary", 1),
                           GeneratorSpec("c2", "unitary", 1)))
    word = Word(tuple(Letter(g, s) for g, s in pairs))
    c = canonicalize(word, algebra)
    assert canonicalize(c, algebra) == c
    assert len(c) <= len(word)
