import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ncupper import states
from ncupper.algebra import (AlgebraSpec, GeneratorSpec, Letter, NCPolynomial,
                             Word, canonicalize, charge, star, star_word,
                             tracial_class, word_str, words_up_to)
from ncupper.errors import InputError
from ncupper.haar import DEFAULT_BUDGET, haar_sample
from ncupper.hierarchy import moment_matrix
from ncupper.problems import bundled_problem_path, parse_problem
from ncupper.states import (CanonicalTrace, Combination, FreeProductState,
                            HaarTrace, TensorProductState, evaluate_state,
                            evaluate_sums, make_increasing)


def w(algebra, text):
    from ncupper.problems import parse_word_tokens
    return parse_word_tokens(text, algebra)


@pytest.fixture
def chsh_state():
    psi = HaarTrace(1)
    return TensorProductState(((0, psi), (1, psi)))


class TestCanonicalTrace:
    def test_unit(self, herm_algebra):
        assert evaluate_state(CanonicalTrace(), Word(), herm_algebra) == 1

    def test_nontrivial_word(self, herm_algebra):
        assert evaluate_state(CanonicalTrace(), w(herm_algebra, "b1 b2"),
                              herm_algebra) == 0

    def test_word_reducing_to_unit(self, unitary_algebra):
        assert evaluate_state(CanonicalTrace(), w(unitary_algebra, "u1 u1*"),
                              unitary_algebra) == 1


class TestHaarTrace:
    def test_single_unitary_letter(self, unitary_algebra):
        for d in (1, 2, 3):
            assert evaluate_state(HaarTrace(d), w(unitary_algebra, "u1"),
                                  unitary_algebra) == 0

    def test_commutator_quarter(self, unitary_algebra):
        got = evaluate_state(HaarTrace(2), w(unitary_algebra, "u1 u2 u1* u2*"),
                             unitary_algebra)
        assert got == Fraction(1, 4)

    def test_herm_letter_zero(self, herm_algebra):
        for d in (1, 2):
            assert evaluate_state(HaarTrace(d), w(herm_algebra, "b1"),
                                  herm_algebra) == 0

    def test_mixed_kinds_rejected(self):
        algebra = AlgebraSpec((GeneratorSpec("u", "unitary", 0),
                               GeneratorSpec("b", "hermitian-unitary", 0)))
        with pytest.raises(InputError):
            evaluate_state(HaarTrace(1), w(algebra, "u b"), algebra)


class TestTensorProduct:
    def test_factorization(self, bipartite_algebra, chsh_state):
        assert evaluate_state(chsh_state, w(bipartite_algebra, "b1 c1"),
                              bipartite_algebra) == 0

    def test_agrees_with_product(self, bipartite_algebra, chsh_state):
        v = evaluate_state(chsh_state, w(bipartite_algebra, "b1 b2 c1 c2"),
                           bipartite_algebra)
        va = evaluate_state(HaarTrace(1), w(bipartite_algebra, "b1 b2"),
                            bipartite_algebra)
        vb = evaluate_state(HaarTrace(1), w(bipartite_algebra, "c1 c2"),
                            bipartite_algebra)
        assert v == va * vb

    def test_missing_factor(self, bipartite_algebra):
        state = TensorProductState(((0, HaarTrace(1)),))
        with pytest.raises(InputError):
            evaluate_state(state, Word(), bipartite_algebra)

    def test_mc_consistency(self, bipartite_algebra, chsh_state):
        # direct Monte Carlo of the tensored model: sample each factor's
        # reflections independently, average the product of normalized traces
        rng = np.random.default_rng(31)
        samples = 40000
        sig = np.diag([1.0, -1.0]).astype(complex)
        words = ["b1 c1", "b1 b2 c1", "b1 b2 b1 c2 c1 c2"]
        us = {g: haar_sample(rng, samples, 2)
              for g in ("b1", "b2", "c1", "c2")}
        refl = {g: us[g] @ sig @ us[g].conj().transpose(0, 2, 1) for g in us}
        for text in words:
            word = w(bipartite_algebra, text)
            vals = np.ones(samples)
            for tag in (0, 1):
                sub = [l.gen for l in word
                       if bipartite_algebra.generator(l.gen).factor == tag]
                if not sub:
                    continue
                acc = refl[sub[0]]
                for g in sub[1:]:
                    acc = acc @ refl[g]
                vals = vals * np.einsum("...ii->...", acc).real / 2
            est = vals.mean()
            err = vals.std(ddof=1) / np.sqrt(samples)
            exact = float(evaluate_state(chsh_state, word, bipartite_algebra))
            assert abs(exact - est) <= 5 * err + 1e-10


def free_group_trace(word: Word, algebra) -> Fraction:
    """Oracle: canonical trace of the free group, 1 iff the word reduces to
    the identity in the free group (no other relations apply)."""
    return Fraction(1) if canonicalize(word, algebra) == () else Fraction(0)


class TestFreeProduct:
    def test_free_group_delta_length6(self, unitary_algebra):
        state = FreeProductState(((frozenset({"u1"}), CanonicalTrace()),
                                  (frozenset({"u2"}), CanonicalTrace())))
        letters = [Letter("u1", False), Letter("u1", True),
                   Letter("u2", False), Letter("u2", True)]
        for length in range(7):
            for combo in itertools.product(letters, repeat=length):
                word = Word(combo)
                got = evaluate_state(state, word, unitary_algebra)
                assert got == free_group_trace(word, unitary_algebra)

    def test_commutator_zero(self, unitary_algebra):
        state = FreeProductState(((frozenset({"u1"}), CanonicalTrace()),
                                  (frozenset({"u2"}), CanonicalTrace())))
        assert evaluate_state(state, w(unitary_algebra, "u1 u2 u1* u2*"),
                              unitary_algebra) == 0

    @pytest.mark.parametrize("dim, value", [(1, Fraction(17, 81)),
                                            (2, Fraction(449, 50625))])
    def test_components_with_nonzero_moments(self, dim, value):
        # x = (b1 b2)^2 and y = (c1 c2)^2 have nonzero moments, so the walk
        # splits off a block's mean and merges the blocks beside it
        algebra = AlgebraSpec(tuple(GeneratorSpec(g, "hermitian-unitary", 0)
                                    for g in ("b1", "b2", "c1", "c2")))
        state = FreeProductState(((frozenset({"b1", "b2"}), HaarTrace(dim)),
                                  (frozenset({"c1", "c2"}), HaarTrace(dim))))

        def phi(*parts):
            return evaluate_state(state, w(algebra, " ".join(parts)), algebra)

        x, x2 = "b1 b2 b1 b2", "b2 b1 b2 b1"
        y, y2 = "c1 c2 c1 c2", "c2 c1 c2 c1"
        assert phi(x, y) == phi(x) * phi(y) != 0
        assert phi(x, y, x2) == phi(x, x2) * phi(y)
        assert phi(x, y, x2, y2) == (
            phi(x, x2) * phi(y) * phi(y2) + phi(x) * phi(x2) * phi(y, y2)
            - phi(x) * phi(x2) * phi(y) * phi(y2)) == value

    def test_uncovered_generator(self, unitary_algebra):
        state = FreeProductState(((frozenset({"u1"}), CanonicalTrace()),))
        with pytest.raises(InputError):
            evaluate_state(state, w(unitary_algebra, "u2"), unitary_algebra)


_THREE_UNITARIES = AlgebraSpec(tuple(GeneratorSpec(g, "unitary", 0)
                                     for g in ("u1", "u2", "u3")))


@given(st.lists(st.tuples(st.sampled_from(["u1", "u2", "u3"]),
                          st.booleans()), min_size=1, max_size=9))
@settings(max_examples=150, deadline=None)
def test_nonzero_charge_evaluates_to_zero(pairs):
    # the charge rule: every state is invariant under u -> e^{i theta} u
    word = tuple(Letter(g, s) for g, s in pairs)
    assume(any(charge(word, _THREE_UNITARIES)))
    for state in (CanonicalTrace(), HaarTrace(1), HaarTrace(2), HaarTrace(3)):
        assert evaluate_state(state, word, _THREE_UNITARIES) == 0, state


class TestMakeIncreasing:
    def test_d1_identity_weight(self):
        out = make_increasing([HaarTrace(1)])
        assert out[0].terms == ((Fraction(1), HaarTrace(1)),)

    def test_d2_weights(self):
        out = make_increasing([HaarTrace(1), HaarTrace(2)])
        assert out[1].terms == ((Fraction(2, 3), HaarTrace(1)),
                                (Fraction(1, 3), HaarTrace(2)))

    def test_weights_sum_to_one(self):
        base = [HaarTrace(d) for d in range(1, 7)]
        for comb in make_increasing(base):
            assert sum(weight for weight, _ in comb.terms) == 1

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            make_increasing([])


def _bundled_states(algebra):
    """State configurations exercised by the property tests."""
    psi1 = HaarTrace(1)
    inc2 = make_increasing([HaarTrace(1), HaarTrace(2)])[-1]
    return [
        CanonicalTrace(),
        psi1,
        inc2,
        TensorProductState(((0, psi1), (1, psi1))) if len(algebra.factor_tags) > 1 else psi1,
    ]


class TestStateProperties:
    @pytest.mark.parametrize("subset", [["b1", "b2"], ["b1", "b2", "c1", "c2"]])
    def test_unitality_star_symmetry_gram_psd(self, bipartite_algebra, subset):
        basis = words_up_to(bipartite_algebra, subset, 2)
        for state in _bundled_states(bipartite_algebra):
            if isinstance(state, (HaarTrace, Combination)) and len(subset) > 2:
                continue  # single-factor Haar states only see one factor
            assert evaluate_state(state, Word(), bipartite_algebra) == 1
            gram = []
            for u in basis:
                row = []
                for v in basis:
                    word = tuple(
                        Letter(l.gen, not l.star) for l in reversed(u)) + v
                    val = evaluate_state(state, word, bipartite_algebra)
                    sval = evaluate_state(
                        state, canonicalize(Word(tuple(
                            Letter(l.gen, not l.star)
                            for l in reversed(word))), bipartite_algebra),
                        bipartite_algebra)
                    assert val == sval  # phi(w*) == phi(w), exactly
                    assert abs(val) <= 1
                    row.append(float(val))
                gram.append(row)
            eigs = np.linalg.eigvalsh(np.array(gram))
            assert eigs[0] >= -1e-9

    def test_weak_domination_witness(self, bipartite_algebra):
        # Gram(psi_{d+1}) - c_d Gram(psi_d) is PSD with
        # c_d = 2 (2^d - 1) / (2^{d+1} - 1)
        subset = ["b1", "b2", "c1", "c2"]
        basis = words_up_to(bipartite_algebra, subset, 2)
        base = [HaarTrace(1), HaarTrace(2), HaarTrace(3)]
        combs = make_increasing(base)

        def tensored(s):
            return TensorProductState(((0, s), (1, s)))

        def gram(state):
            m = []
            for u in basis:
                row = []
                for v in basis:
                    word = tuple(
                        Letter(l.gen, not l.star) for l in reversed(u)) + v
                    row.append(float(evaluate_state(state, word,
                                                    bipartite_algebra)))
                m.append(row)
            return np.array(m)

        for d in (1, 2):
            c_d = 2 * (2 ** d - 1) / (2 ** (d + 1) - 1)
            diff = gram(tensored(combs[d])) - c_d * gram(tensored(combs[d - 1]))
            assert np.linalg.eigvalsh(diff)[0] >= -1e-9


class TestClassReductionKeepsErrors:
    """A word's class can drop generators (u x u* has the class of x), but
    whether a state can evaluate the word is decided on the word itself."""

    def test_mixed_kinds_under_conjugation(self):
        algebra = AlgebraSpec((GeneratorSpec("u", "unitary", 0),
                               GeneratorSpec("b", "hermitian-unitary", 0)))
        word = w(algebra, "u b u*")
        assert tracial_class(word, algebra) == w(algebra, "b")
        with pytest.raises(InputError):
            evaluate_state(HaarTrace(1), word, algebra)
        # refused even when the batch meets the class first through b
        one = Fraction(1)
        with pytest.raises(InputError):
            evaluate_sums(HaarTrace(1), [[(w(algebra, "b"), one)],
                                         [(word, one)]], algebra)
        with pytest.raises(InputError):  # the only entry is u* b u
            moment_matrix(NCPolynomial.from_word(w(algebra, "b")),
                          HaarTrace(1), [w(algebra, "u")], algebra)
        assert evaluate_state(HaarTrace(1), w(algebra, "b"), algebra) == 0

    def test_uncovered_generator_under_conjugation(self, unitary_algebra):
        state = FreeProductState(((frozenset({"u1"}), CanonicalTrace()),))
        word = w(unitary_algebra, "u2 u1 u2*")
        assert tracial_class(word, unitary_algebra) == w(unitary_algebra, "u1")
        with pytest.raises(InputError):
            evaluate_state(state, word, unitary_algebra)
        one = Fraction(1)
        with pytest.raises(InputError):
            evaluate_sums(state, [[(w(unitary_algebra, "u1"), one),
                                   (word, one)]], unitary_algebra)
        assert evaluate_state(state, w(unitary_algebra, "u1"),
                              unitary_algebra) == 0


def _mixed_algebra():
    """Every generator kind, two of them in each of two tensor factors."""
    return AlgebraSpec((GeneratorSpec("u", "unitary", 0),
                        GeneratorSpec("b", "hermitian-unitary", 0),
                        GeneratorSpec("x", "general", 0),
                        GeneratorSpec("v", "unitary", 1),
                        GeneratorSpec("c", "hermitian-unitary", 1)))


class TestTracialClass:
    @pytest.mark.parametrize("algebra", [
        _mixed_algebra(),
        AlgebraSpec((GeneratorSpec("b1", "hermitian-unitary", 0),
                     GeneratorSpec("b2", "hermitian-unitary", 0),
                     GeneratorSpec("c1", "hermitian-unitary", 1),
                     GeneratorSpec("c2", "hermitian-unitary", 1)))])
    def test_idempotent_and_invariant(self, algebra):
        ids = [g.id for g in algebra.generators]
        conjugators = [Letter(g.id) for g in algebra.generators
                       if g.kind != "general"]
        for word in words_up_to(algebra, ids, 4):
            cls = tracial_class(word, algebra)
            assert tracial_class(cls, algebra) == cls
            assert canonicalize(cls, algebra) == cls
            assert len(cls) <= len(word)
            # adjoint of the whole word
            assert tracial_class(canonicalize(star_word(word), algebra),
                                 algebra) == cls
            # rotation within each tensor factor
            for tag in algebra.factor_tags:
                mine = [l for l in word
                        if algebra.generator(l.gen).factor == tag]
                rest = [l for l in word
                        if algebra.generator(l.gen).factor != tag]
                for i in range(len(mine)):
                    rotated = Word(tuple(mine[i:] + mine[:i] + rest))
                    assert tracial_class(canonicalize(rotated, algebra),
                                         algebra) == cls
            # conjugation by a unitary or hermitian-unitary letter
            for l in conjugators:
                inverse = Letter(l.gen, algebra.generator(l.gen).kind
                                 == "unitary")
                conj = (l,) + word + (inverse,)
                assert tracial_class(canonicalize(conj, algebra),
                                     algebra) == cls

    def test_general_letters_do_not_cancel(self):
        algebra = _mixed_algebra()
        word = w(algebra, "x u x*")
        assert len(tracial_class(word, algebra)) == 3


def _raw_value(state, word, algebra):
    """The state on the canonical word itself, bypassing the class memo."""
    return states._eval.__wrapped__(state, word, algebra, DEFAULT_BUDGET)


def _assert_class_keyed(state, algebra, max_len):
    ids = [g.id for g in algebra.generators]
    for word in words_up_to(algebra, ids, max_len):
        got = evaluate_state(state, word, algebra)
        assert type(got) is Fraction
        assert got == _raw_value(state, word, algebra), (state, word_str(word))


class TestTraciality:
    """Keying values on the tracial class is only valid for tracial states
    with real values: compare it with the raw canonical word."""

    @pytest.mark.parametrize("name, max_len", [
        ("chsh", 6), ("free-unitaries", 6), ("commutator-example", 5),
        ("reflection", 6)])
    def test_bundled_state_families(self, name, max_len):
        problem = parse_problem(bundled_problem_path(name))
        family = problem.state_family()
        for d in (1, 2, 3):
            _assert_class_keyed(family(d), problem.algebra, max_len)

    def test_tensor_product_fixture(self, bipartite_algebra, chsh_state):
        _assert_class_keyed(chsh_state, bipartite_algebra, 6)

    def test_free_products(self, unitary_algebra):
        for comps in [(CanonicalTrace(), CanonicalTrace()),
                      (HaarTrace(2), HaarTrace(1)),
                      (HaarTrace(1), CanonicalTrace())]:
            state = FreeProductState(((frozenset({"u1"}), comps[0]),
                                      (frozenset({"u2"}), comps[1])))
            _assert_class_keyed(state, unitary_algebra, 6)


class TestCombinationHistogram:
    """A combination reads one histogram per class at every Haar dim; its
    value is still the weighted sum of its terms' values."""

    @pytest.mark.parametrize("kind, n", [
        ("unitary", 2), ("hermitian-unitary", 3)])
    def test_weighted_sum_of_haar_traces(self, kind, n):
        ids = [f"h{i}" for i in range(1, n + 1)]
        algebra = AlgebraSpec(tuple(GeneratorSpec(g, kind) for g in ids))
        psi = make_increasing([HaarTrace(d) for d in (1, 2, 3, 4)])[-1]
        mixed = Combination(((Fraction(1, 3), HaarTrace(2)),
                             (Fraction(1, 6), CanonicalTrace()),
                             (Fraction(1, 2), HaarTrace(3))))
        classes = {tracial_class(u, algebra)
                   for u in words_up_to(algebra, ids, 8)}
        for state in (psi, mixed):
            for cls in classes:
                want = sum(wt * states._eval(s, cls, algebra, DEFAULT_BUDGET)
                           for wt, s in state.terms)
                assert states._eval(state, cls, algebra,
                                    DEFAULT_BUDGET) == want, word_str(cls)

    def test_one_histogram_per_state_and_class(self, monkeypatch):
        from ncupper.hierarchy import lambda_sequence
        problem = parse_problem(bundled_problem_path("free-unitaries"))
        builds = []  # (points of the build, dims of the state it serves)
        build = states.weingarten_histogram
        pairs = set()
        _eval = states._eval
        serving = []  # the combinations being evaluated, innermost last

        def counted_build(word, points, budget):
            builds.append((len(points), len(serving[-1].terms)))
            return build(word, points, budget)

        def counted_eval(state, word, algebra, budget):
            if not isinstance(state, Combination):
                return _eval(state, word, algebra, budget)
            if word:
                pairs.add((state, word))
            serving.append(state)
            try:
                return _eval(state, word, algebra, budget)
            finally:
                serving.pop()

        _eval.cache_clear()
        monkeypatch.setattr(states, "weingarten_histogram", counted_build)
        monkeypatch.setattr(states, "_eval", counted_eval)
        lambda_sequence(problem.objective, problem.algebra, problem.subset,
                        problem.state_family(), 3)
        # one build per (state, charge-0 class), serving all of the state's
        # dims; at order 1 every charge-0 class is the unit, so psi_1 (one
        # dim) builds none
        assert len(builds) == len(pairs)
        assert all(points == dims for points, dims in builds)
        assert sorted({points for points, _ in builds}) == [2, 3]
        assert sum(points for points, _ in builds) > len(builds)
