"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import functools
import itertools
import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from ncupper.algebra import Letter, NCPolynomial, Word, canonicalize, words_up_to
from ncupper.haar import (ConstantAtom, SignatureMatrix, UnitaryAtom,
                          exact_trace_moment, mc_trace_moments)
from ncupper.hierarchy import eta_sequence, lambda_sequence
from ncupper.problems import bundled_problem_path, parse_problem
from ncupper.states import (CanonicalTrace, FreeProductState, HaarTrace,
                            TensorProductState, evaluate_state,
                            make_increasing)
from ncupper.symcomb import compose, cycle_type, inverse, weingarten

from conftest import run_cli

FMIN_CHSH = (1 - 2 ** 0.5) / 2  # quantum bound in the bundled normalization


def _report(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num} ({name}): FAIL")
                raise
            print(f"ACCEPTANCE {num} ({name}): PASS")
        return wrapper
    return deco


@pytest.fixture(scope="module")
def chsh():
    return parse_problem(bundled_problem_path("chsh"))


@pytest.fixture(scope="module")
def reflection():
    return parse_problem(bundled_problem_path("reflection"))


@pytest.fixture(scope="module")
def chsh_reports(chsh):
    fam = chsh.state_family()
    lam = lambda_sequence(chsh.objective, chsh.algebra, chsh.subset, fam, 2)
    eta = eta_sequence(chsh.objective, chsh.algebra, fam, 2)
    return lam, eta


@_report(1, "CHSH lambda hierarchy")
def test_criterion_1_chsh_lambda(chsh_reports):
    t0 = time.perf_counter()
    lam, _ = chsh_reports
    assert lam.orders[0].lam == pytest.approx(0.146, abs=0.005)
    assert lam.orders[1].lam == pytest.approx(-0.016, abs=0.005)
    assert time.perf_counter() - t0 < 600


@_report(2, "CHSH eta hierarchy")
def test_criterion_2_chsh_eta(chsh_reports):
    _, eta = chsh_reports
    assert eta.orders[0].eta == pytest.approx(0.0, abs=0.005)
    assert eta.orders[1].eta == pytest.approx(-0.066, abs=0.005)


@_report(3, "upper-bound validity and monotonicity")
def test_criterion_3_monotone_valid(chsh, reflection, chsh_reports):
    lam, eta = chsh_reports
    assert lam.orders[1].lam <= lam.orders[0].lam + 1e-8
    assert eta.orders[1].eta <= eta.orders[0].eta + 1e-8
    for rec in lam.orders:
        assert rec.lam >= -0.2072 - 1e-6
    for rec in eta.orders:
        assert rec.eta >= -0.2072 - 1e-6
    fam = reflection.state_family()
    lamr = lambda_sequence(reflection.objective, reflection.algebra, ["b"],
                           fam, 2)
    etar = eta_sequence(reflection.objective, reflection.algebra, fam, 2)
    assert lamr.orders[1].lam <= lamr.orders[0].lam + 1e-8
    assert etar.orders[1].eta <= etar.orders[0].eta + 1e-8
    for rec in lamr.orders:
        assert rec.lam >= -1 - 1e-6
    for rec in etar.orders:
        assert rec.eta >= -1 - 1e-6


@_report(4, "reflection exact at order 1")
def test_criterion_4_reflection_exact(reflection):
    fam = reflection.state_family()
    lam = lambda_sequence(reflection.objective, reflection.algebra, ["b"],
                          fam, 1)
    eta = eta_sequence(reflection.objective, reflection.algebra, fam, 1)
    assert abs(lam.orders[0].lam - (-1.0)) <= 1e-10
    assert abs(eta.orders[0].eta - (-1.0)) <= 1e-10


@_report(5, "Weingarten inverts the Gram matrix")
def test_criterion_5_weingarten():
    t0 = time.perf_counter()
    # exact inversion for n <= 5, d in {n, n+1, 7}. Both G and W depend on
    # sigma^{-1} tau only, so (G W)(sigma, tau) is a function of
    # sigma^{-1} tau and checking the identity row against every tau is
    # equivalent to the full matrix identity.
    for n in range(1, 6):
        perms = list(itertools.permutations(range(n)))
        ident = tuple(range(n))
        for d in (n, n + 1, 7):
            for tau in perms:
                s = sum(Fraction(d ** len(cycle_type(pi)))
                        * weingarten(cycle_type(compose(inverse(pi), tau)), d)
                        for pi in perms)
                assert s == (1 if tau == ident else 0)
    # pseudo-inverse identity G W G = G for n <= 4 and d < n
    for n in range(2, 5):
        perms = list(itertools.permutations(range(n)))
        size = len(perms)
        for d in range(1, n):
            G = [[Fraction(d ** len(cycle_type(compose(inverse(p), q))))
                  for q in perms] for p in perms]
            W = [[weingarten(cycle_type(compose(inverse(p), q)), d)
                  for q in perms] for p in perms]
            GW = [[sum(G[i][k] * W[k][j] for k in range(size))
                   for j in range(size)] for i in range(size)]
            for i in range(size):
                for j in range(size):
                    assert sum(GW[i][k] * G[k][j] for k in range(size)) == G[i][j]
    assert time.perf_counter() - t0 < 60


def _all_unitary_words(max_len):
    atoms = [UnitaryAtom("a"), UnitaryAtom("a", True),
             UnitaryAtom("b"), UnitaryAtom("b", True)]
    words = []
    for length in range(1, max_len + 1):
        words.extend(itertools.product(atoms, repeat=length))
    return words


def _all_signature_words(max_len, name="D"):
    def expand(sym):
        return (UnitaryAtom(sym), ConstantAtom(name), UnitaryAtom(sym, True))
    words = []
    for length in range(1, max_len + 1):
        for combo in itertools.product(("a", "b"), repeat=length):
            words.append(tuple(a for sym in combo for a in expand(sym)))
    return words


@_report(6, "moment engine vs Monte Carlo and dim-1 oracle")
def test_criterion_6_cross_validation():
    samples = 10 ** 5
    for dim in (2, 3):
        words = _all_unitary_words(4)
        mc = mc_trace_moments(words, dim, {}, samples=samples, seed=100 + dim)
        for word, (est, err) in zip(words, mc):
            exact = float(exact_trace_moment(word, dim))
            assert abs(exact - est) <= 5 * err + 1e-10
    for dim in (2, 3):
        consts = {"D": SignatureMatrix(dim, dim // 2)}
        words = _all_signature_words(4)
        mc = mc_trace_moments(words, dim, consts, samples=samples,
                              seed=200 + dim)
        for word, (est, err) in zip(words, mc):
            exact = float(exact_trace_moment(word, dim, consts))
            assert abs(exact - est) <= 5 * err + 1e-10
    # dim-1 analytic oracle on 200 random words
    rng = random.Random(4096)
    consts = {"P": SignatureMatrix(1, 1), "M": SignatureMatrix(1, 0)}
    for _ in range(200):
        word = []
        for _ in range(rng.randrange(1, 9)):
            if rng.random() < 0.25:
                word.append(ConstantAtom(rng.choice("PM")))
            else:
                word.append(UnitaryAtom(rng.choice("ab"), rng.random() < 0.5))
        balance = {}
        signs = 1
        for a in word:
            if isinstance(a, UnitaryAtom):
                balance[a.symbol] = balance.get(a.symbol, 0) + \
                    (-1 if a.star else 1)
            else:
                signs *= 1 if a.name == "P" else -1
        expected = signs if all(v == 0 for v in balance.values()) else 0
        assert exact_trace_moment(word, 1, consts) == expected


@_report(7, "state algebra properties")
def test_criterion_7_state_properties(chsh):
    algebra = chsh.algebra
    subset = chsh.subset
    basis = words_up_to(algebra, subset, 2)
    combs = make_increasing([HaarTrace(1), HaarTrace(2), HaarTrace(3)])

    def tensored(s):
        return TensorProductState(((0, s), (1, s)))

    bundled = [tensored(HaarTrace(1)), tensored(HaarTrace(2)),
               tensored(combs[0]), tensored(combs[1]), tensored(combs[2]),
               CanonicalTrace()]

    def gram(state):
        rows = []
        for u in basis:
            row = []
            for v in basis:
                word = tuple(Letter(l.gen, not l.star)
                             for l in reversed(u)) + v
                val = evaluate_state(state, word, algebra)
                rev = canonicalize(Word(tuple(
                    Letter(l.gen, not l.star)
                    for l in reversed(word))), algebra)
                assert evaluate_state(state, rev, algebra) == val
                row.append(val)
            rows.append(row)
        return rows

    for state in bundled:
        assert evaluate_state(state, Word(), algebra) == 1  # unitality
        g = gram(state)
        eigs = np.linalg.eigvalsh(np.array([[float(x) for x in row]
                                            for row in g]))
        assert eigs[0] >= -1e-9
    # weak-domination witness for the geometric combinations
    for d in (1, 2):
        c_d = 2 * (2 ** d - 1) / (2 ** (d + 1) - 1)
        gd = np.array([[float(x) for x in row] for row in gram(tensored(combs[d - 1]))])
        gd1 = np.array([[float(x) for x in row] for row in gram(tensored(combs[d]))])
        assert np.linalg.eigvalsh(gd1 - c_d * gd)[0] >= -1e-9


@_report(8, "free product reproduces the free group trace")
def test_criterion_8_free_product(unitary_algebra):
    state = FreeProductState(((frozenset({"u1"}), CanonicalTrace()),
                              (frozenset({"u2"}), CanonicalTrace())))
    letters = [Letter("u1", False), Letter("u1", True),
               Letter("u2", False), Letter("u2", True)]
    for length in range(7):
        for combo in itertools.product(letters, repeat=length):
            word = Word(combo)
            expected = Fraction(1) if canonicalize(word, unitary_algebra) == () \
                else Fraction(0)
            assert evaluate_state(state, word, unitary_algebra) == expected


@_report(9, "byte-identical machine output")
def test_criterion_9_determinism(tmp_path):
    def run(out, *extra):
        r = run_cli("solve", str(bundled_problem_path("chsh")), "--order", "2",
                    "--seed", "0", "--out", str(out), *extra)
        assert r.returncode == 0
        return out.read_bytes()

    a = run(tmp_path / "a.json")
    b = run(tmp_path / "b.json")
    assert a == b
    c = run(tmp_path / "c.json", "--format", "table")
    assert a == c  # machine output carries no timing fields
    rec = json.loads(a)
    assert rec["input_hash"] == json.loads(b)["input_hash"]
