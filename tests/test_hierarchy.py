import random
import time
from fractions import Fraction

import numpy as np
import pytest

from ncupper.algebra import (AlgebraSpec, GeneratorSpec, Letter,
                             NCPolynomial, Word, canonicalize,
                             charge, multiply, star, star_word, words_up_to)
from ncupper import hierarchy
from ncupper.errors import (BudgetExceededError, IndefiniteBError, InputError,
                            KernelViolationError)
from ncupper.hierarchy import (eta_sequence, lambda_sequence, max_shift,
                               moment_matrix, scalar_moments)
from ncupper.problems import bundled_problem_path, parse_problem
from ncupper.states import (CanonicalTrace, FreeProductState, HaarTrace,
                            evaluate_poly, evaluate_sums)


@pytest.fixture(scope="module")
def chsh():
    return parse_problem(bundled_problem_path("chsh"))


@pytest.fixture(scope="module")
def reflection():
    return parse_problem(bundled_problem_path("reflection"))


class TestMomentMatrix:
    def test_unit_objective_is_psd_gram(self, chsh):
        basis = words_up_to(chsh.algebra, chsh.subset, 1)
        m = moment_matrix(NCPolynomial.one(), chsh.state_family()(1), basis,
                          chsh.algebra)
        eigs = np.linalg.eigvalsh(m.to_float())
        assert eigs[0] >= -1e-9

    def test_reflection_hand_value(self, reflection):
        basis = words_up_to(reflection.algebra, ["b"], 1)
        m = moment_matrix(reflection.objective, HaarTrace(1), basis,
                          reflection.algebra)
        assert m.entries == [[0, 1], [1, 0]]

    def test_exact_symmetry(self, chsh):
        basis = words_up_to(chsh.algebra, chsh.subset, 2)
        m = moment_matrix(chsh.objective, chsh.state_family()(2), basis,
                          chsh.algebra)
        for i in range(m.dim):
            for j in range(m.dim):
                assert m.entries[i][j] == m.entries[j][i]
                assert isinstance(m.entries[i][j], Fraction)

    def test_not_self_adjoint_rejected(self, chsh):
        f = NCPolynomial.from_word(canonicalize(
            Word((Letter("b1"), Letter("b2"))), chsh.algebra))
        with pytest.raises(InputError):
            moment_matrix(f, chsh.state_family()(1),
                          words_up_to(chsh.algebra, chsh.subset, 1),
                          chsh.algebra)

    def test_word_budget_refuses_before_evaluating(self):
        # free-unitaries order 6: 1,457 basis words, so n(n+1)/2 cells of
        # 4 terms each make 4,248,612 word evaluations
        problem = parse_problem(bundled_problem_path("free-unitaries"))
        basis = words_up_to(problem.algebra, problem.subset, 6)
        start = time.monotonic()
        with pytest.raises(BudgetExceededError, match="4248612 word"):
            moment_matrix(problem.objective, problem.state_family()(6), basis,
                          problem.algebra)
        assert time.monotonic() - start < 1

    def test_word_budget_boundary(self, chsh, monkeypatch):
        # chsh order 8 makes 52,925 evaluations: 145 words, 5 terms
        n = len(words_up_to(chsh.algebra, chsh.subset, 8))
        assert n * (n + 1) // 2 * len(chsh.objective.terms) == 52925
        assert 52925 <= hierarchy.WORD_BUDGET
        # chsh order 1: 5 basis words, 15 cells of 5 terms
        basis = words_up_to(chsh.algebra, chsh.subset, 1)
        monkeypatch.setattr(hierarchy, "WORD_BUDGET", 75)
        moment_matrix(chsh.objective, chsh.state_family()(1), basis,
                      chsh.algebra)
        monkeypatch.setattr(hierarchy, "WORD_BUDGET", 74)
        with pytest.raises(BudgetExceededError):
            moment_matrix(chsh.objective, chsh.state_family()(1), basis,
                          chsh.algebra)

    def test_chsh_entries_vs_monte_carlo(self, chsh):
        # MC oracle of the tensored size-2 reflection model for every
        # order-1 moment-matrix entry
        from ncupper.haar import haar_sample
        basis = words_up_to(chsh.algebra, chsh.subset, 1)
        state = chsh.state_family()(1)
        m = moment_matrix(chsh.objective, state, basis, chsh.algebra)
        rng = np.random.default_rng(7)
        samples = 60000
        sig = np.diag([1.0, -1.0]).astype(complex)
        us = {g: haar_sample(rng, samples, 2) for g in chsh.subset}
        refl = {g: us[g] @ sig @ us[g].conj().transpose(0, 2, 1) for g in us}

        def mc_state(word):
            vals = np.ones(samples)
            for tag in (0, 1):
                sub = [l.gen for l in word
                       if chsh.algebra.generator(l.gen).factor == tag]
                if not sub:
                    continue
                acc = refl[sub[0]]
                for g in sub[1:]:
                    acc = acc @ refl[g]
                vals = vals * np.einsum("...ii->...", acc).real / 2
            return vals

        from ncupper.algebra import multiply, star
        for i, u in enumerate(basis):
            for j, v in enumerate(basis):
                p = multiply(multiply(
                    star(NCPolynomial.from_word(u), chsh.algebra),
                    chsh.objective, chsh.algebra),
                    NCPolynomial.from_word(v), chsh.algebra)
                vals = np.zeros(samples)
                for word, c in p.terms.items():
                    vals = vals + float(c) * mc_state(word)
                est = vals.mean()
                err = vals.std(ddof=1) / np.sqrt(samples)
                assert abs(float(m.entries[i][j]) - est) <= 5 * err + 1e-10

    def test_each_class_evaluated_once(self, monkeypatch):
        # only the charge-0 words u* t v are evaluated, each class once
        from ncupper import states
        from ncupper.algebra import (charge, multiply, star, star_word,
                                     tracial_class)
        for name in ("free-unitaries", "commutator-example"):
            problem = parse_problem(bundled_problem_path(name))
            algebra, f = problem.algebra, problem.objective
            basis = words_up_to(algebra, problem.subset, 2)
            psi = problem.state_family()(2)
            seen = []
            _eval = states._eval

            def counted(state, word, algebra, budget):
                if state is psi:  # not the recursion into psi's parts
                    seen.append(word)
                return _eval(state, word, algebra, budget)

            monkeypatch.setattr(states, "_eval", counted)
            m = moment_matrix(f, psi, basis, algebra)
            words = [canonicalize(star_word(u) + w + v, algebra)
                     for u in basis for v in basis for w in f.terms]
            classes = {tracial_class(x, algebra) for x in words
                       if not any(charge(x, algebra))}
            assert len(classes) < len({tracial_class(x, algebra)
                                       for x in words}), name
            assert len(seen) == len(set(seen)) == len(classes), name
            assert set(seen) == classes, name
            monkeypatch.setattr(states, "_eval", _eval)
            # the entries are those of the polynomial products u* f v with
            # every term evaluated
            for i, u in enumerate(basis):
                for j, v in enumerate(basis):
                    p = multiply(multiply(
                        star(NCPolynomial.from_word(u), algebra), f, algebra),
                        NCPolynomial.from_word(v), algebra)
                    assert m.entries[i][j] == states.evaluate_poly(
                        psi, p, algebra), name


class TestChargeGrading:
    """moment_matrix and scalar_moments skip the words whose unitary charge
    is not zero; evaluated anyway, every skipped word is exactly 0, and the
    results equal those of evaluating every word."""

    def _assert_matrix_graded(self, f, state, basis, algebra):
        # every (cell, term) pair of the upper triangle, evaluated
        cells = [(i, j) for i in range(len(basis))
                 for j in range(i, len(basis))]
        sums = [[(star_word(basis[i]) + w + basis[j], c)
                 for w, c in f.terms.items()] for i, j in cells]
        entries = [[None] * len(basis) for _ in basis]
        for (i, j), v in zip(cells, evaluate_sums(state, sums, algebra)):
            entries[i][j] = entries[j][i] = v
        skipped = [w for terms in sums for w, _ in terms
                   if any(charge(w, algebra))]
        assert skipped
        assert set(evaluate_sums(state, [[(w, 1)] for w in skipped],
                                 algebra)) == {0}
        assert moment_matrix(f, state, basis, algebra).entries == entries

    def _assert_powers_graded(self, f, state, max_power, algebra):
        power, want, dropped = NCPolynomial.one(), [], []
        for _ in range(max_power + 1):
            want.append(evaluate_poly(state, power, algebra))
            dropped += [w for w in power.terms if any(charge(w, algebra))]
            power = multiply(power, f, algebra)
        assert dropped
        assert set(evaluate_sums(state, [[(w, 1)] for w in dropped],
                                 algebra)) == {0}
        assert scalar_moments(f, state, max_power, algebra) == want

    @pytest.mark.parametrize("name", ["free-unitaries", "commutator-example"])
    def test_bundled_lambda_order3(self, name):
        problem = parse_problem(bundled_problem_path(name))
        self._assert_matrix_graded(
            problem.objective, problem.state_family()(3),
            words_up_to(problem.algebra, problem.subset, 3), problem.algebra)

    def test_free_unitaries_eta_to_f7(self):
        problem = parse_problem(bundled_problem_path("free-unitaries"))
        self._assert_powers_graded(problem.objective,
                                   problem.state_family()(3), 7,
                                   problem.algebra)

    @pytest.mark.parametrize("state", [
        CanonicalTrace(),
        FreeProductState(((frozenset({"u1"}), CanonicalTrace()),
                          (frozenset({"u2"}), HaarTrace(2))))],
        ids=["canonical", "free-product"])
    def test_two_unitaries_order2(self, unitary_algebra, state):
        algebra = unitary_algebra
        f = NCPolynomial.zero()
        for text in ("u1", "u2 u1", "u1 u2 u1* u2*", "u1 u1"):
            word = tuple(Letter(g.rstrip("*"), g.endswith("*"))
                         for g in text.split())
            p = NCPolynomial.from_word(word)
            f = f + p + star(p, algebra)
        f = f + NCPolynomial.scalar(Fraction(1, 3))
        self._assert_matrix_graded(f, state,
                                   words_up_to(algebra, ["u1", "u2"], 2),
                                   algebra)
        self._assert_powers_graded(f, state, 3, algebra)

    @pytest.mark.parametrize("kinds, state, message", [
        (("unitary", "unitary"),
         FreeProductState(((frozenset({"g1"}), CanonicalTrace()),)),
         "'g2' not covered"),
        (("unitary", "hermitian-unitary"), HaarTrace(1),
         "cannot evaluate kinds")])
    def test_refused_state_raises_though_refused_words_are_charged(
            self, kinds, state, message):
        # at order 1 every word over both generators has nonzero charge, so
        # only evaluating it anyway reaches the refusal
        algebra = AlgebraSpec(tuple(GeneratorSpec(f"g{i}", kind)
                                    for i, kind in enumerate(kinds, 1)))
        g1, g2 = (NCPolynomial.from_word((Letter(g),)) for g in ("g1", "g2"))
        f = g1 + star(g1, algebra)
        with pytest.raises(InputError, match=message):
            moment_matrix(f, state, words_up_to(algebra, ["g1", "g2"], 1),
                          algebra)
        with pytest.raises(InputError, match=message):  # g1 g2 in f^2
            scalar_moments(f + g2 + star(g2, algebra), state, 2, algebra)


class TestScalarMoments:
    def test_unit_moment(self, chsh):
        m = scalar_moments(chsh.objective, chsh.state_family()(1), 0,
                           chsh.algebra)
        assert m == [1]

    def test_reflection_alternating(self, reflection):
        m = scalar_moments(reflection.objective, HaarTrace(1), 5,
                           reflection.algebra)
        assert m == [1, 0, 1, 0, 1, 0]

    def test_chsh_first_moment(self, chsh):
        # every CHSH term has a degree-1 letter in each factor, so the
        # factorized state kills it; the affine offset survives
        m = scalar_moments(chsh.objective, chsh.state_family()(1), 1,
                           chsh.algebra)
        assert m[1] == Fraction(1, 2)

    def test_matches_powers(self, chsh):
        from ncupper.algebra import multiply
        from ncupper.states import evaluate_poly
        psi = chsh.state_family()(2)
        got = scalar_moments(chsh.objective, psi, 5, chsh.algebra)
        power = NCPolynomial.one()
        for k in range(6):
            assert got[k] == evaluate_poly(psi, power, chsh.algebra)
            power = multiply(power, chsh.objective, chsh.algebra)

    def test_word_budget(self, chsh, monkeypatch):
        monkeypatch.setattr(hierarchy, "WORD_BUDGET", 3)
        with pytest.raises(BudgetExceededError):
            scalar_moments(chsh.objective, chsh.state_family()(1), 5,
                           chsh.algebra)


class TestMaxShift:
    def test_standard_eigenvalue(self):
        rep = max_shift(np.diag([2.0, 1.0]), np.eye(2))
        assert rep.lam == pytest.approx(1.0, abs=1e-12)
        assert rep.rank_b == 2

    def test_off_diagonal(self):
        rep = max_shift(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
        assert rep.lam == pytest.approx(-1.0, abs=1e-12)

    def test_common_kernel(self):
        rep = max_shift(np.diag([3.0, 0.0]), np.diag([1.0, 0.0]))
        assert rep.lam == pytest.approx(3.0, abs=1e-12)
        assert rep.rank_b == 1
        assert rep.kernel_residual <= 1e-12

    def test_indefinite_b(self):
        with pytest.raises(IndefiniteBError):
            max_shift(np.eye(2), np.diag([1.0, -1.0]))

    def test_kernel_violation(self):
        with pytest.raises(KernelViolationError):
            max_shift(np.diag([1.0, 1.0]), np.diag([1.0, 0.0]))

    @pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(InputError, match="tol must be finite"):
            max_shift(np.eye(2), np.eye(2), tol=tol)


class TestSequences:
    def test_reflection_order1_exact(self, reflection):
        fam = reflection.state_family()
        lam = lambda_sequence(reflection.objective, reflection.algebra,
                              ["b"], fam, 1)
        eta = eta_sequence(reflection.objective, reflection.algebra, fam, 1)
        assert lam.orders[0].lam == pytest.approx(-1.0, abs=1e-10)
        assert eta.orders[0].eta == pytest.approx(-1.0, abs=1e-10)

    def test_chsh_reference_values(self, chsh):
        fam = chsh.state_family()
        lam = lambda_sequence(chsh.objective, chsh.algebra, chsh.subset, fam, 2)
        eta = eta_sequence(chsh.objective, chsh.algebra, fam, 2)
        assert lam.orders[0].lam == pytest.approx(0.146, abs=0.005)
        assert lam.orders[1].lam == pytest.approx(-0.016, abs=0.005)
        assert eta.orders[0].eta == pytest.approx(0.0, abs=0.005)
        assert eta.orders[1].eta == pytest.approx(-0.066, abs=0.005)

    def test_monotone_and_above_fmin(self, chsh, reflection):
        fmin_chsh = (1 - 2 ** 0.5) / 2
        fam = chsh.state_family()
        lam = lambda_sequence(chsh.objective, chsh.algebra, chsh.subset, fam, 2)
        eta = eta_sequence(chsh.objective, chsh.algebra, fam, 2)
        assert lam.orders[1].lam <= lam.orders[0].lam + 1e-8
        assert eta.orders[1].eta <= eta.orders[0].eta + 1e-8
        for rec in lam.orders:
            assert rec.lam >= fmin_chsh - 1e-6
        for rec in eta.orders:
            assert rec.eta >= fmin_chsh - 1e-6
        famr = reflection.state_family()
        lamr = lambda_sequence(reflection.objective, reflection.algebra,
                               ["b"], famr, 2)
        etar = eta_sequence(reflection.objective, reflection.algebra, famr, 2)
        assert lamr.orders[1].lam <= lamr.orders[0].lam + 1e-8
        assert etar.orders[1].eta <= etar.orders[0].eta + 1e-8
        for rec in lamr.orders:
            assert rec.lam >= -1 - 1e-6
        for rec in etar.orders:
            assert rec.eta >= -1 - 1e-6

    def test_basis_order_invariance(self, chsh):
        state = chsh.state_family()(1)
        basis = words_up_to(chsh.algebra, chsh.subset, 1)
        rng = random.Random(23)
        ref = max_shift(
            moment_matrix(chsh.objective, state, basis, chsh.algebra).to_float(),
            moment_matrix(NCPolynomial.one(), state, basis, chsh.algebra).to_float(),
        ).lam
        for _ in range(5):
            shuffled = basis[:]
            rng.shuffle(shuffled)
            lam = max_shift(
                moment_matrix(chsh.objective, state, shuffled,
                              chsh.algebra).to_float(),
                moment_matrix(NCPolynomial.one(), state, shuffled,
                              chsh.algebra).to_float(),
            ).lam
            assert lam == pytest.approx(ref, abs=1e-10)

    def test_kernel_containment(self, chsh):
        state = chsh.state_family()(2)
        basis = words_up_to(chsh.algebra, chsh.subset, 2)
        A = moment_matrix(chsh.objective, state, basis, chsh.algebra).to_float()
        B = moment_matrix(NCPolynomial.one(), state, basis, chsh.algebra).to_float()
        rep = max_shift(A, B)
        assert rep.kernel_residual <= 1e-8 * max(np.linalg.norm(A, 2), 1.0)

    def test_shift_equivariance(self, chsh, reflection):
        c = Fraction(3, 7)
        for prob, subset in ((chsh, chsh.subset), (reflection, ["b"])):
            fam = prob.state_family()
            shifted = prob.objective + NCPolynomial.scalar(c)
            lam0 = lambda_sequence(prob.objective, prob.algebra, subset, fam, 1)
            lam1 = lambda_sequence(shifted, prob.algebra, subset, fam, 1)
            assert lam1.orders[0].lam == pytest.approx(
                lam0.orders[0].lam + float(c), abs=1e-10)
            eta0 = eta_sequence(prob.objective, prob.algebra, fam, 1)
            eta1 = eta_sequence(shifted, prob.algebra, fam, 1)
            assert eta1.orders[0].eta == pytest.approx(
                eta0.orders[0].eta + float(c), abs=1e-10)
