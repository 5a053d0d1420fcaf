import itertools
import math
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ncupper import haar
from ncupper.errors import BudgetExceededError, InputError
from ncupper.haar import (ConstantAtom, SignatureMatrix, UnitaryAtom,
                          exact_trace_moment, haar_sample, mc_trace_moment,
                          mc_trace_moments)
from ncupper.algebra import (AlgebraSpec, GeneratorSpec, tracial_class,
                             words_up_to)
from ncupper.states import trace_atoms
from ncupper.symcomb import (block_weingarten, compose, cycle_type, inverse,
                             power_sum_moment, weingarten)

U = UnitaryAtom
D = ConstantAtom


def conj_sig(symbol):
    return [U(symbol), D("D"), U(symbol, star=True)]


class TestExactTraceMoment:
    def test_uustar(self):
        for dim in (1, 2, 5):
            assert exact_trace_moment([U("a"), U("a", True)], dim) == dim

    def test_unbalanced_is_zero(self):
        assert exact_trace_moment([U("a")], 3) == 0
        assert exact_trace_moment([U("a"), U("a")], 3) == 0

    def test_commutator(self):
        # analytic oracle: conditioning on the second unitary gives
        # E tr(U1 U2 U1* U2*) = E |tr U2|^2 / d = 1/d
        for dim in (1, 2, 3, 4):
            got = exact_trace_moment(
                [U("a"), U("b"), U("a", True), U("b", True)], dim)
            assert got == Fraction(1, dim)

    def test_balanced_signature_traceless(self):
        for m in (1, 2, 3):
            sig = SignatureMatrix(2 * m, m)
            got = exact_trace_moment(conj_sig("a"), 2 * m, {"D": sig})
            assert got == 0

    def test_unitarity_collapse(self):
        sig = SignatureMatrix(4, 2)
        got = exact_trace_moment(conj_sig("a") + conj_sig("a"), 4, {"D": sig})
        assert got == 4

    def test_missing_constant(self):
        with pytest.raises(InputError):
            exact_trace_moment([D("zzz")], 2)

    def test_dim_mismatch(self):
        with pytest.raises(InputError):
            exact_trace_moment([D("D")], 3, {"D": SignatureMatrix(2, 1)})

    def test_budget_guard(self):
        word = [U("a")] * 6 + [U("a", True)] * 6
        with pytest.raises(BudgetExceededError):
            exact_trace_moment(word, 2, budget=10)

    def test_budget_checked_on_every_call(self):
        # test_budget_guard's word with k = 3 (36 configurations, where k = 6
        # takes seconds under the default budget): the engine keeps no memo,
        # so a moment it has just computed is still refused under a smaller
        # budget
        word = [U("a")] * 3 + [U("a", True)] * 3
        assert exact_trace_moment(word, 2) == 2
        with pytest.raises(BudgetExceededError):
            exact_trace_moment(word, 2, budget=10)

    def test_budget_counts_sigma_only_for_blocks(self):
        # 8 blocks of one symbol enumerate 8! = 40320 configurations
        word = conj_sig("a") * 8
        with pytest.raises(BudgetExceededError, match="needs 40320 "):
            exact_trace_moment(word, 3, {"D": SignatureMatrix(3, 1)},
                               budget=40319)
        # 12! exceeds the default budget: refused before any enumeration
        with pytest.raises(BudgetExceededError, match="needs 479001600 "):
            exact_trace_moment(conj_sig("a") * 12, 3,
                               {"D": SignatureMatrix(3, 1)})

    def test_parity_pruning_precedes_budget(self):
        # an odd number of blocks with a traceless D is zero without any
        # enumeration, so even budget 1 suffices
        word = conj_sig("a") * 7
        assert exact_trace_moment(word, 4, {"D": SignatureMatrix(4, 2)},
                                  budget=1) == 0

    def test_cyclic_invariance(self):
        rng = random.Random(13)
        sig = SignatureMatrix(3, 2)
        for _ in range(30):
            word = _random_word(rng, 6)
            vals = set()
            for r in range(len(word)):
                rotated = word[r:] + word[:r]
                vals.add(exact_trace_moment(rotated, 3, {"D": sig}))
            assert len(vals) == 1

    def test_conjugate_symmetry(self):
        rng = random.Random(17)
        sig = SignatureMatrix(2, 1)
        for _ in range(30):
            word = _random_word(rng, 6)
            rev = []
            for a in reversed(word):
                rev.append(U(a.symbol, not a.star) if isinstance(a, U) else a)
            assert exact_trace_moment(word, 2, {"D": sig}) == \
                exact_trace_moment(rev, 2, {"D": sig})


def _random_word(rng, max_len):
    word = []
    for _ in range(rng.randrange(1, max_len + 1)):
        if rng.random() < 0.3:
            word.append(D("D"))
        else:
            word.append(U(rng.choice("ab"), rng.random() < 0.5))
    return word


def _oracle_moment(word, dim, constants):
    """Joint Weingarten expansion over all (sigma, tau) pairs of every
    unitary symbol, Prod_s (k_s!)^2 configurations, with no block collapse."""
    L = len(word)
    P, Q = {}, {}
    for pos, a in enumerate(word):
        if isinstance(a, U):
            (Q if a.star else P).setdefault(a.symbol, []).append(pos)
    symbols = sorted(set(P) | set(Q))
    if any(len(P.get(s, ())) != len(Q.get(s, ())) for s in symbols):
        return Fraction(0)
    perms = [list(itertools.permutations(range(len(P[s])))) for s in symbols]
    total = Fraction(0)
    for sigmas in itertools.product(*perms):
        for taus in itertools.product(*perms):
            parent = list(range(L))

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            def union(a, b):
                parent[find(a)] = find(b)

            for pos, a in enumerate(word):
                if isinstance(a, D):
                    union(pos, (pos + 1) % L)
            weight = Fraction(1)
            for s, sigma, tau in zip(symbols, sigmas, taus):
                for i in range(len(sigma)):
                    union(P[s][i], (Q[s][sigma[i]] + 1) % L)
                    union((P[s][i] + 1) % L, Q[s][tau[i]])
                weight *= weingarten(cycle_type(compose(sigma, inverse(tau))),
                                     dim)
            classes = {find(g): [] for g in range(L)}
            for pos, a in enumerate(word):
                if isinstance(a, D):
                    classes[find(pos)].append(constants[a.name])
            value = 1
            for sigs in classes.values():
                value *= sum(math.prod(m.sign(i) for m in sigs)
                             for i in range(dim))
            total += weight * value
    return total


def _oracle_exact(word, dim, constants=None):
    """The engine before its dim-free histogram: one Fraction sum per dim
    over every configuration, sigma only for a block symbol (its blocks all
    around one signature r) with weight G, (sigma, tau) for a plain one with
    weight Wg, times the loop values of its successor map."""
    resolved = haar._checked_atoms(word, dim, constants)
    L = len(resolved)
    P, Q = {}, {}
    for pos, a in enumerate(resolved):
        if a[0] == "u":
            (Q if a[2] else P).setdefault(a[1], []).append(pos)
    symbols = sorted(set(P) | set(Q))
    if any(len(P.get(s, ())) != len(Q.get(s, ())) for s in symbols):
        return Fraction(0)
    blocks = {}
    for s in symbols:
        mids = [resolved[(p + 1) % L] for p in P[s]]
        ends = [resolved[(p + 2) % L] for p in P[s]]
        rs = {m[2] for m in mids if m[0] == "c"}
        if (all(m[0] == "c" for m in mids) and len(rs) == 1
                and all(e == ("u", s, True) for e in ends)):
            blocks[s] = rs.pop()
    plain = [s for s in symbols if s not in blocks]
    nxt = [(g + 1) % L for g in range(L)]
    signs = [a[2] if a[0] == "c" else None for a in resolved]
    inner = {(p + d) % L for s in blocks for p in P[s] for d in (1, 2)}
    outer = [g for g in range(L) if g not in inner]
    block_choices = [
        [(block_weingarten(cycle_type(sigma), dim, r),
          [(P[s][i], (P[s][si] + 3) % L) for i, si in enumerate(sigma)])
         for sigma in itertools.permutations(range(len(P[s])))]
        for s, r in sorted(blocks.items())]
    perm_lists = [list(itertools.permutations(range(len(P[s]))))
                  for s in plain]
    total = Fraction(0)
    for choice in itertools.product(*block_choices):
        block_weight = math.prod((g for g, _ in choice), start=Fraction(1))
        for _, edges in choice:
            for a, b in edges:
                nxt[a] = b
        for sigmas in itertools.product(*perm_lists):
            for s, sigma in zip(plain, sigmas):
                for i, qi in enumerate(sigma):
                    nxt[P[s][i]] = (Q[s][qi] + 1) % L
            for taus in itertools.product(*perm_lists):
                weight = block_weight
                for s, sigma, tau in zip(plain, sigmas, taus):
                    for i, ti in enumerate(tau):
                        nxt[Q[s][ti]] = (P[s][i] + 1) % L
                    weight *= weingarten(
                        cycle_type(compose(sigma, inverse(tau))), dim)
                seen = [False] * L
                value = 1
                for g in outer:
                    if seen[g]:
                        continue
                    rs = []
                    while not seen[g]:
                        seen[g] = True
                        if signs[g] is not None:
                            rs.append(signs[g])
                        g = nxt[g]
                    value *= sum(math.prod(-1 if i >= r else 1 for r in rs)
                                 for i in range(dim))
                total += weight * value
    return total


def _class_trace_words(gens, kind, max_len):
    """The Haar trace word of every non-empty tracial class of length <=
    max_len over generators of one kind; a constant is the atom D, whatever
    its matrix size."""
    algebra = AlgebraSpec(tuple(GeneratorSpec(g, kind) for g in gens))
    classes = {tracial_class(w, algebra)
               for w in words_up_to(algebra, gens, max_len)}
    return [trace_atoms(c, algebra, 1)[0]
            for c in sorted(classes, key=lambda c: (len(c), c)) if c]


class TestHistogramExactness:
    """The histogram read at a dim equals the per-dim Fraction sum of the
    engine it replaced, on every class word of length <= 8."""

    def test_unitaries(self):
        for word in _class_trace_words(["u", "v"], "unitary", 8):
            for dim in (1, 2, 3, 4):
                assert exact_trace_moment(word, dim) == \
                    _oracle_exact(word, dim), (word, dim)

    @pytest.mark.parametrize("gens", [["a", "b"], ["a", "b", "c"]])
    def test_reflections(self, gens):
        # HaarTrace dims 1-4: matrix size 2 d, D traceless
        for word in _class_trace_words(gens, "hermitian-unitary", 8):
            for d in (1, 2, 3, 4):
                consts = {"D": SignatureMatrix(2 * d, d)}
                assert exact_trace_moment(word, 2 * d, consts) == \
                    _oracle_exact(word, 2 * d, consts), (word, d)

    def test_constant_off_center(self):
        # r != dim / 2, so odd block counts and odd loops do not vanish
        for word in _class_trace_words(["a", "b", "c"], "hermitian-unitary",
                                       8):
            for dim in (1, 2, 3, 4):
                for r in range(dim + 1):
                    if 2 * r == dim:
                        continue
                    consts = {"D": SignatureMatrix(dim, r)}
                    assert exact_trace_moment(word, dim, consts) == \
                        _oracle_exact(word, dim, consts), (word, dim, r)

    def test_one_histogram_reads_every_dim(self):
        word = conj_sig("a") + conj_sig("b") + conj_sig("a") + conj_sig("b")
        points = [(n, {"D": SignatureMatrix(n, n // 2)}) for n in (2, 3, 4)]
        hist = haar.weingarten_histogram(word, points)
        for n, consts in points:
            assert haar.read_histogram(hist, n, consts) == \
                _oracle_exact(word, n, consts)


def _brute_loop_value(loop, dim, rs):
    """Sum over index values of the product of the signs of the loop's
    constants, index by index."""
    s = 0
    for i in range(dim):
        prod = 1
        for name in loop:
            if i >= rs[name]:
                prod = -prod
        s += prod
    return s


@pytest.mark.parametrize("dim", range(1, 7))
def test_loop_value_closed_form(dim):
    # every loop of <= 4 names from 4 constants (a name may repeat), at
    # every r of each constant
    names = "ABCD"
    for m in range(5):
        for loop in itertools.combinations_with_replacement(names, m):
            used = sorted(set(loop))
            for r in itertools.product(range(dim + 1), repeat=len(used)):
                rs = dict(zip(used, r))
                assert haar._loop_value(loop, dim, rs) == \
                    _brute_loop_value(loop, dim, rs), (loop, dim, rs)


class TestBlockCollapse:
    """The engine sums U D U* block symbols over sigma only; the joint
    (sigma, tau) oracle must agree exactly."""

    def test_signature_words(self):
        sigs = [SignatureMatrix(d, d // 2) for d in (2, 4, 6)]
        sigs += [SignatureMatrix(d, r) for d in (1, 2, 3)
                 for r in range(d + 1) if (d, r) != (2, 1)]
        for sig in sigs:
            for n in range(1, 5):
                for seq in itertools.product("ab", repeat=n):
                    word = [x for s in seq for x in conj_sig(s)]
                    assert exact_trace_moment(word, sig.dim, {"D": sig}) == \
                        _oracle_moment(word, sig.dim, {"D": sig}), (seq, sig)

    def test_mixed_words(self):
        rng = random.Random(2024)
        fixed = [
            # symbol a both inside and outside a block
            conj_sig("a") + [U("a"), U("b"), U("a", True), U("b", True)],
            # blocks of one symbol around two different constants
            [U("a"), D("D"), U("a", True), U("a"), D("E"), U("a", True)],
            # a stray constant between blocks
            conj_sig("a") + [D("E")] + conj_sig("b") + conj_sig("a"),
        ]
        words = fixed + [_random_mixed_word(rng) for _ in range(120)]
        for word in words:
            dim = rng.randrange(1, 4)
            consts = {"D": SignatureMatrix(dim, rng.randrange(dim + 1)),
                      "E": SignatureMatrix(dim, rng.randrange(dim + 1))}
            assert exact_trace_moment(word, dim, consts) == \
                _oracle_moment(word, dim, consts), (word, consts)


def _random_mixed_word(rng):
    """Blocks, bare U / U*, and stray constants over symbols a, b, with at
    most three unstarred occurrences per symbol."""
    word = []
    budget = {"a": 3, "b": 3}
    for _ in range(rng.randrange(1, 6)):
        s = rng.choice("ab")
        x = rng.random()
        if x < 0.45 and budget[s]:
            budget[s] -= 1
            word += [U(s), D(rng.choice("DDE")), U(s, True)]
        elif x < 0.8:
            star = rng.random() < 0.5
            if not star:
                if not budget[s]:
                    continue
                budget[s] -= 1
            word.append(U(s, star))
        else:
            word.append(D(rng.choice("DE")))
    # balance most words so that the expansion does real work
    if rng.random() < 0.8:
        for s in "ab":
            n = sum(1 if a.star else -1 for a in word
                    if isinstance(a, U) and a.symbol == s)
            for _ in range(-n):
                word.insert(rng.randrange(len(word) + 1), U(s, True))
    return word or conj_sig("a")


def _random_unitary_word(rng):
    """A shuffled balanced word over u, v, w, each with 1 to 3 occurrences
    of U and as many of U*, at most 144 (sigma, tau) configurations in all
    so that the joint oracle stays fast."""
    while True:
        ks = {s: rng.randrange(1, 4) for s in "uvw"}
        if math.prod(math.factorial(k) ** 2 for k in ks.values()) <= 144:
            break
    word = [U(s, star) for s, k in ks.items() for star in (False, True)
            for _ in range(k)]
    rng.shuffle(word)
    return word


class TestSummedSymbol:
    """In a word without constants, the plain symbol with the most
    occurrences is summed in closed form instead of enumerated."""

    def test_random_words_match_oracle(self):
        rng = random.Random(23)
        for _ in range(120):
            word = _random_unitary_word(rng)
            for dim in (1, 2, 3, 4):
                assert exact_trace_moment(word, dim) == \
                    _oracle_exact(word, dim), (word, dim)

    def test_enumerates_all_but_the_most_frequent_symbol(self):
        # u occurs 3 times, v and w twice: v and w are enumerated
        word = [U("u"), U("v"), U("w"), U("u"), U("w", True), U("v"),
                U("u", True), U("w"), U("u"), U("v", True), U("w", True),
                U("u", True), U("v", True), U("u", True)]
        hist = haar.weingarten_histogram(word, [(2, None)])
        assert hist.summed == "u"
        assert sum(hist.counts.values()) == (2 * 2) ** 2
        # on a tie the least name is summed
        tie = [U("b"), U("a"), U("b", True), U("a", True)] * 2
        hist = haar.weingarten_histogram(tie, [(2, None)])
        assert hist.summed == "a"
        assert sum(hist.counts.values()) == 2 ** 2
        # one symbol: a single configuration, one loop of exponent 0
        hist = haar.weingarten_histogram([U("a"), U("a", True)] * 3,
                                         [(3, None)])
        assert hist.counts == {((), (), (0,)): 1}

    def test_word_with_constant_enumerates_every_symbol(self):
        word = [U("a"), D("D"), U("b"), U("a", True), U("b", True),
                U("a"), U("a", True)]
        consts = {"D": SignatureMatrix(3, 1)}
        hist = haar.weingarten_histogram(word, [(3, consts)])
        assert hist.summed is None
        assert sum(hist.counts.values()) == (2 * 1) ** 2
        assert exact_trace_moment(word, 3, consts) == \
            _oracle_exact(word, 3, consts)

    def test_budget_counts_the_summed_symbol(self):
        # (u v u* v*)^4 enumerates 576 configurations for v alone, but the
        # budget still counts (4!)^2 for each of u and v
        word = [U("u"), U("v"), U("u", True), U("v", True)] * 4
        with pytest.raises(BudgetExceededError, match="needs 331776 "):
            exact_trace_moment(word, 2, budget=331775)
        hist = haar.weingarten_histogram(word, [(2, None)], budget=331776)
        assert sum(hist.counts.values()) == 576

    def test_reads_take_power_sums_from_the_symcomb_table(self):
        # a read keeps no memo of its own: a second pass over the same keys
        # finds every power sum in power_sum_moment's table
        word = [U("u"), U("v"), U("u", True), U("v", True)] * 3
        dims = (1, 2, 3)
        hist = haar.weingarten_histogram(word, [(d, None) for d in dims])
        assert hist.summed == "u"
        power_sum_moment.cache_clear()
        first = [haar.read_histogram(hist, d) for d in dims]
        misses = power_sum_moment.cache_info().misses
        assert misses > 0
        assert [haar.read_histogram(hist, d) for d in dims] == first
        assert power_sum_moment.cache_info().misses == misses
        assert first == [_oracle_exact(word, d) for d in dims]

    @pytest.mark.parametrize("dim, exact", [(2, Fraction(-2, 15)),
                                            (3, Fraction(1, 3))])
    def test_long_commutator_power_vs_monte_carlo(self, dim, exact):
        # (u v u* v*)^4 takes the joint (sigma, tau) sum 331,776
        # configurations per dim, which gave these values; summing u in
        # closed form takes 576
        word = [U("u"), U("v"), U("u", True), U("v", True)] * 4
        assert exact_trace_moment(word, dim) == exact
        est, err = mc_trace_moment(word, dim, samples=40000, seed=dim)
        assert abs(float(exact) - est) <= 5 * err


class TestScalarOracle:
    def test_dim1_analytic(self):
        # at dim 1 the value is prod of constant signs if every unitary
        # symbol is balanced, else 0
        rng = random.Random(99)
        consts = {"P": SignatureMatrix(1, 1), "M": SignatureMatrix(1, 0)}
        for _ in range(200):
            word = []
            for _ in range(rng.randrange(1, 9)):
                r = rng.random()
                if r < 0.2:
                    word.append(D(rng.choice("PM")))
                else:
                    word.append(U(rng.choice("abc"), rng.random() < 0.5))
            balance = {}
            signs = 1
            for a in word:
                if isinstance(a, U):
                    balance[a.symbol] = balance.get(a.symbol, 0) + \
                        (-1 if a.star else 1)
                else:
                    signs *= 1 if a.name == "P" else -1
            expected = signs if all(v == 0 for v in balance.values()) else 0
            assert exact_trace_moment(word, 1, consts) == expected


class TestHaarDraw:
    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 16])
    def test_draw_is_haar_qr_factor(self, dim):
        # Q of the Ginibre matrix Z = A + iB from the same two normal draws,
        # with R = Q* Z upper triangular and its diagonal real and positive,
        # is Haar (Mezzadri, Notices AMS 54, 2007)
        n, seed = 200, 11
        normals = np.random.default_rng(seed)
        z = (normals.standard_normal((n, dim, dim))
             + 1j * normals.standard_normal((n, dim, dim)))
        q = haar._haar_draw(np.random.default_rng(seed), n, dim)
        assert q.shape == (dim, dim, n)
        q = q.transpose(2, 0, 1)
        qh = q.conj().transpose(0, 2, 1)
        assert np.abs(qh @ q - np.eye(dim)).max() <= 1e-12
        r = qh @ z
        assert np.abs(np.tril(r, -1)).max(initial=0.0) <= 1e-12
        diag = np.einsum("nii->ni", r)
        assert np.abs(diag.imag).max() <= 1e-12
        assert diag.real.min() > 0
        assert np.array_equal(
            haar_sample(np.random.default_rng(seed), n, dim),
            haar._haar_draw(np.random.default_rng(seed), n, dim)
            .transpose(2, 0, 1))


class TestMonteCarlo:
    def test_constant_word(self):
        est, err = mc_trace_moment([U("a"), U("a", True)], 3, samples=100, seed=1)
        assert est == 3.0
        assert err == 0.0

    def test_commutator(self):
        est, err = mc_trace_moment(
            [U("a"), U("b"), U("a", True), U("b", True)], 2,
            samples=10 ** 5, seed=5)
        assert abs(est - 0.5) <= 5 * err

    def test_mean_zero(self):
        est, err = mc_trace_moment([U("a")], 2, samples=10 ** 5, seed=9)
        assert abs(est) <= 5 * err

    def test_deterministic(self):
        a = mc_trace_moment([U("a"), U("b"), U("a", True), U("b", True)], 2,
                            samples=5000, seed=42)
        b = mc_trace_moment([U("a"), U("b"), U("a", True), U("b", True)], 2,
                            samples=5000, seed=42)
        assert a == b

    @pytest.mark.parametrize("words, dim, seed",
                             [([[]], 2, 0), ([[U("a")]], 0, 0),
                              ([[U("a")]], 2, -1)],
                             ids=["words0-2", "words1-0", "negative-seed"])
    def test_bad_word_or_dim(self, words, dim, seed):
        with pytest.raises(InputError):
            mc_trace_moments(words, dim, samples=10, seed=seed)

    def test_budget_counts_arrays_held_at_once(self, monkeypatch):
        # min(samples, chunk) dim^2 entries per array: one per Haar symbol,
        # one per prefix product kept at once, and _MC_SPARE; constants and
        # the number of chunks do not count
        monkeypatch.setattr(haar, "_MC_CHUNK", 50)
        consts = {"D": SignatureMatrix(3, 1)}
        cases = [([[U("a"), D("D"), U("b", True)], [U("a", True)]], 2 + 0),
                 # a b a and a b b are the classes a a b and a b b, which
                 # keep their common prefix a
                 ([[U("a"), U("b"), U("a")], [U("a"), U("b"), U("b")]], 2 + 1)]
        for words, arrays in cases:
            arrays += haar._MC_SPARE
            for samples, n in [(40, 40), (120, 50)]:
                entries = n * 9 * arrays
                mc_trace_moments(words, 3, consts, samples=samples,
                                 budget=entries)
                with pytest.raises(BudgetExceededError,
                                   match=f"needs {entries} "):
                    mc_trace_moments(words, 3, consts, samples=samples,
                                     budget=entries - 1)

    @pytest.mark.parametrize("dim", [1, 2, 5])
    @pytest.mark.parametrize("words", [
        [[U("a")]],
        [conj_sig(s) + conj_sig(t) for s in "ab" for t in "ab"]
        + [[U(s, x), U(t, y)] for s in "ab" for t in "ab"
           for x in (False, True) for y in (False, True)]],
        ids=["one-letter", "mixed"])
    def test_budget_bounds_traced_peak(self, monkeypatch, dim, words):
        # at the smallest budget that admits the run, over two and a half
        # chunks, the NumPy memory traced at the peak is within budget
        # entries of 16 bytes; dim 1, where the per-sample vectors are as
        # large as a chunk array, comes closest
        monkeypatch.setattr(haar, "_MC_CHUNK", 300)
        consts = {"D": SignatureMatrix(dim, dim // 2)}
        with pytest.raises(BudgetExceededError) as refused:
            mc_trace_moments(words, dim, consts, samples=750, budget=0)
        budget = int(re.search(r"needs (\d+) ", str(refused.value))[1])
        mc_trace_moments(words, dim, consts, samples=750, budget=budget)
        tracemalloc.start()
        try:
            mc_trace_moments(words, dim, consts, samples=750, budget=budget)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= budget * 16

    @pytest.mark.parametrize("dim, samples", [(4, 40000), (16, 3000)])
    def test_exact_vs_mc_signatures(self, dim, samples):
        sig = SignatureMatrix(dim, dim // 2)
        words = [conj_sig("a") + conj_sig("b"),
                 conj_sig("a") + conj_sig("b") + conj_sig("a") + conj_sig("b")]
        results = mc_trace_moments(words, dim, {"D": sig}, samples=samples,
                                   seed=3)
        for word, (est, err) in zip(words, results):
            exact = float(exact_trace_moment(word, dim, {"D": sig}))
            assert abs(exact - est) <= 5 * err + 1e-10


def _oracle_mc(words, dim, constants, samples, seed):
    """Monte Carlo (estimate, stderr) word by word: the full matmul product
    of every word's atoms, then its trace, on mc_trace_moments's sample
    stream. It keeps haar_sample's (n, dim, dim) layout and `@`, so it
    shares no product or trace code with the sample-last einsums."""
    words = [haar._checked_atoms(w, dim, constants) for w in words]
    symbols = sorted({a[1] for w in words for a in w if a[0] == "u"})
    rng = np.random.default_rng(seed)
    sums = np.zeros(len(words))
    sqsums = np.zeros(len(words))
    done = 0
    while done < samples:
        n = min(haar._MC_CHUNK, samples - done)
        us = {s: haar_sample(rng, n, dim) for s in symbols}
        for wi, w in enumerate(words):
            acc = None
            for a in w:
                if a[0] == "u":
                    m = us[a[1]]
                    m = m.conj().transpose(0, 2, 1) if a[2] else m
                else:
                    d = np.where(np.arange(dim) < a[2], 1.0, -1.0)
                    m = np.broadcast_to(np.diag(d), (n, dim, dim))
                acc = m if acc is None else acc @ m
            tr = np.einsum("...ii->...", acc).real
            sums[wi] += tr.sum()
            sqsums[wi] += (tr * tr).sum()
        done += n
    mean = sums / samples
    var = np.maximum(sqsums / samples - mean * mean, 0.0)
    return list(zip(mean, np.sqrt(var / (samples - 1))))


def _trie_words():
    """Words exercising the prefix trie: shared prefixes, a duplicate, a
    word that is a prefix of others, single atoms, constants first and
    last, adjacent constants, and two constants with different r."""
    a, a_, b, b_ = U("a"), U("a", True), U("b"), U("b", True)
    return [
        [a, b, a_, b_], [a, b, b_, a_], [a, b, a_], [a, b, a_, b_],
        [a, b], [a], [a_], [D("D")], [b_, a_, b, a],
        [D("D"), a, a_], [a, a_, D("D")], [D("E"), a, D("D"), a_, D("E")],
        [a, D("D"), D("E"), a_], [D("D"), D("E")],
        conj_sig("a") * 3, conj_sig("a") + conj_sig("b"),
        conj_sig("a") * 2 + conj_sig("b"),
        [a, D("E"), a_, b, D("D"), b_],
    ]


def _random_class_word(rng, max_len):
    """A random word over a, a*, b*, b, D and E of length 1 to max_len,
    with many adjacent and cyclic cancellations."""
    letters = [U("a"), U("a", True), U("b"), U("b", True), D("D"), D("E")]
    return [rng.choice(letters) for _ in range(rng.randrange(1, max_len + 1))]


def _trie_constants(dim):
    return {"D": SignatureMatrix(dim, dim // 2), "E": SignatureMatrix(dim, dim)}


class TestMonteCarloTrie:
    """mc_trace_moments evaluates words as a prefix trie; the word-by-word
    product oracle on the same sample stream must agree."""

    @pytest.mark.parametrize("seed", [0, 7, 31])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_matches_per_word_products(self, monkeypatch, dim, seed):
        # three chunks, so that the trie is rebuilt per chunk
        monkeypatch.setattr(haar, "_MC_CHUNK", 700)
        words = _trie_words()
        consts = _trie_constants(dim)
        got = mc_trace_moments(words, dim, consts, samples=2000, seed=seed)
        want = _oracle_mc(words, dim, consts, samples=2000, seed=seed)
        for word, (m, e), (m0, e0) in zip(words, got, want):
            # a zero-variance word such as (a D a*)^3 leaves ~1e-10 of
            # cancellation noise in its stderr
            assert abs(m - m0) <= 1e-12, word
            assert abs(e - e0) <= 1e-9, word

    def test_order_invariance(self):
        words = _trie_words()
        consts = _trie_constants(3)
        base = mc_trace_moments(words, 3, consts, samples=2000, seed=4)
        rng = random.Random(8)
        for _ in range(3):
            perm = list(range(len(words)))
            rng.shuffle(perm)
            got = mc_trace_moments([words[i] for i in perm], 3, consts,
                                   samples=2000, seed=4)
            assert np.array(got).tobytes() == \
                np.array([base[i] for i in perm]).tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_classes_match_per_word_products(self, monkeypatch, dim):
        # random words cancel, rotate and reverse into shared classes; each
        # class estimate must equal every one of its words' own products
        monkeypatch.setattr(haar, "_MC_CHUNK", 700)
        rng = random.Random(dim)
        words = [_random_class_word(rng, 10) for _ in range(80)]
        consts = _trie_constants(dim)
        got = mc_trace_moments(words, dim, consts, samples=2000, seed=dim)
        want = _oracle_mc(words, dim, consts, samples=2000, seed=dim)
        for word, (m, e), (m0, e0) in zip(words, got, want):
            assert abs(m - m0) <= 1e-12, word
            assert abs(e - e0) <= 1e-9, word

    def test_class_invariance(self):
        # rotation, the adjoint, and u u*, u* u or D D inserted at any
        # cyclic position leave the class unchanged
        rng = random.Random(5)
        consts = _trie_constants(3)
        pairs = [[U(s, x), U(s, not x)] for s in "ab" for x in (False, True)]
        pairs += [[D(c), D(c)] for c in "DE"]

        def cls(word):
            return haar._mc_class(haar._checked_atoms(word, 3, consts))

        for _ in range(100):
            word = _random_class_word(rng, 8)
            c = cls(word)
            adjoint = [U(x.symbol, not x.star) if isinstance(x, U) else x
                       for x in reversed(word)]
            assert cls(adjoint) == c, word
            for k in range(len(word)):
                assert cls(word[k:] + word[:k]) == c, (word, k)
                for pair in pairs:
                    assert cls(word[:k] + pair + word[k:]) == c, (word, pair)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_identity_class_is_exact(self, dim):
        a, a_, b, b_ = U("a"), U("a", True), U("b"), U("b", True)
        words = [[a, b, b_, a_], conj_sig("a") * 2,
                 [D("E"), a_, D("D"), D("D"), a, D("E")],
                 [b_, D("D"), a, a_, D("D"), b]]
        results = mc_trace_moments(words, dim, _trie_constants(dim),
                                   samples=50, seed=2)
        assert results == [(float(dim), 0.0)] * len(words)

    def test_peak_memory(self):
        # the 30 signature words at dim 3 fall into 3 classes; the deep
        # words are cyclically reduced, pairwise inequivalent and share
        # prefixes at least 8 atoms deep. Only the products a later class
        # starts from may stay alive.
        dim, samples = 3, 10 ** 4
        signature = [[x for s in seq for x in conj_sig(s)]
                     for n in range(1, 5)
                     for seq in itertools.product("ab", repeat=n)]
        a, b = U("a"), U("b")
        deep = [[a] * 4 + [b, a, b, b, *tail, b] for n in range(5)
                for tail in itertools.product([a, b], repeat=n)]
        words = signature + deep
        consts = {"D": SignatureMatrix(dim, dim // 2)}
        assert len({haar._mc_class(haar._checked_atoms(w, dim, consts))
                    for w in deep}) >= 20
        mc_trace_moments(words, dim, consts, samples=10, seed=0)
        tracemalloc.start()
        try:
            mc_trace_moments(words, dim, consts, samples=samples, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * samples * dim * dim * 16
