import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ncupper import haar
from ncupper.errors import BudgetExceededError, InputError
from ncupper.haar import (ConstantAtom, SignatureMatrix, UnitaryAtom,
                          exact_trace_moment, haar_sample, mc_trace_moment,
                          mc_trace_moments)
from ncupper.symcomb import compose, cycle_type, inverse, weingarten

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

    def test_budget_guard_after_cached_value(self):
        # test_budget_guard's word with k = 3 (36 configurations, where k = 6
        # takes seconds under the default budget): a memoized moment is
        # still refused under a smaller budget
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

    def test_cache_coherence(self):
        from ncupper.haar import _cache_key, _checked_atoms, _evaluate_moment
        sig = SignatureMatrix(3, 1)
        word = [U("a"), D("D"), U("b"), U("a", True), U("b", True)]
        v1 = exact_trace_moment(word, 3, {"D": sig})
        rotated = word[2:] + word[:2]
        key = _cache_key(_checked_atoms(rotated, 3, {"D": sig}))
        assert key == _cache_key(_checked_atoms(word, 3, {"D": sig}))
        hits = _evaluate_moment.cache_info().hits
        assert exact_trace_moment(rotated, 3, {"D": sig}) is v1
        assert _evaluate_moment.cache_info().hits == hits + 1
        adjoint = [U(a.symbol, not a.star) if isinstance(a, U) else a
                   for a in reversed(rotated)]
        assert _cache_key(_checked_atoms(adjoint, 3, {"D": sig})) == key


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

    def test_exact_vs_mc_signatures(self):
        sig = SignatureMatrix(4, 2)
        words = [conj_sig("a") + conj_sig("b"),
                 conj_sig("a") + conj_sig("b") + conj_sig("a") + conj_sig("b")]
        results = mc_trace_moments(words, 4, {"D": sig}, samples=40000, seed=3)
        for word, (est, err) in zip(words, results):
            exact = float(exact_trace_moment(word, 4, {"D": sig}))
            assert abs(exact - est) <= 5 * err + 1e-10


def _oracle_mc(words, dim, constants, samples, seed):
    """Monte Carlo (estimate, stderr) word by word: the full matmul product
    of every word's atoms, then its trace, on mc_trace_moments's sample
    stream."""
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


def _trie_constants(dim):
    return {"D": SignatureMatrix(dim, dim // 2), "E": SignatureMatrix(dim, dim)}


class TestMonteCarloTrie:
    """mc_trace_moments evaluates words as a prefix trie; the word-by-word
    product oracle on the same sample stream must agree."""

    @pytest.mark.parametrize("seed", [0, 7, 31])
    @pytest.mark.parametrize("dim", [1, 2, 3])
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

    def test_peak_memory(self):
        # the 30 signature words at dim 3 share prefixes 12 atoms deep; only
        # the products a later word starts from may stay alive
        dim, samples = 3, 10 ** 4
        words = [[x for s in seq for x in conj_sig(s)] for n in range(1, 5)
                 for seq in itertools.product("ab", repeat=n)]
        consts = {"D": SignatureMatrix(dim, dim // 2)}
        mc_trace_moments(words, dim, consts, samples=10, seed=0)
        tracemalloc.start()
        try:
            mc_trace_moments(words, dim, consts, samples=samples, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * samples * dim * dim * 16
