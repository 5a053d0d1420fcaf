import itertools
from fractions import Fraction
from math import factorial

import pytest

from ncupper.errors import InputError
from ncupper.symcomb import (block_weingarten, centralizer_order, character,
                             compose, content_product, cycle_type, dimension,
                             inverse, partitions, partitions_within,
                             power_sum_moment, weingarten)


def brute_partitions(n):
    """Oracle: enumerate weakly decreasing positive tuples summing to n."""
    out = set()
    def rec(remaining, cap, acc):
        if remaining == 0:
            out.add(tuple(acc))
            return
        for p in range(min(cap, remaining), 0, -1):
            rec(remaining - p, p, acc + [p])
    rec(n, n, [])
    return out


class TestPartitions:
    def test_n1(self):
        assert partitions(1) == [(1,)]

    def test_n3(self):
        assert partitions(3) == [(3,), (2, 1), (1, 1, 1)]

    def test_n5_count(self):
        assert len(partitions(5)) == 7
        assert set(partitions(5)) == brute_partitions(5)

    def test_reverse_lex(self):
        for n in range(1, 10):
            ps = partitions(n)
            assert ps == sorted(ps, reverse=True)
            assert set(ps) == brute_partitions(n)
            for rows in range(1, n + 1):
                assert list(partitions_within(n, rows)) == [
                    p for p in ps if len(p) <= rows]
        # at most 3 rows: round((n + 3)^2 / 12) of them, while p(200) is
        # about 4 * 10^12, so no longer partition may be built on the way
        assert (sum(1 for _ in partitions_within(200, 3))
                == round(203 ** 2 / 12))


def standard_tableaux_count(lam):
    """Oracle: brute-force count of standard Young tableaux of shape lam."""
    cells = [(i, j) for i, row in enumerate(lam) for j in range(row)]
    n = len(cells)
    count = 0
    for perm in itertools.permutations(range(n)):
        filling = {cells[i]: perm[i] for i in range(n)}
        ok = True
        for (i, j) in cells:
            if j + 1 < lam[i] and filling[(i, j)] > filling[(i, j + 1)]:
                ok = False
                break
            if i + 1 < len(lam) and lam[i + 1] > j and \
                    filling[(i, j)] > filling[(i + 1, j)]:
                ok = False
                break
        if ok:
            count += 1
    return count


class TestCharacter:
    def test_trivial_rep(self):
        for n in range(1, 6):
            for mu in partitions(n):
                assert character((n,), mu) == 1

    def test_sign_rep(self):
        for n in range(1, 6):
            for mu in partitions(n):
                assert character((1,) * n, mu) == (-1) ** (n - len(mu))

    def test_standard_dim(self):
        assert character((2, 1), (1, 1, 1)) == 2

    def test_size_mismatch(self):
        with pytest.raises(InputError):
            character((2,), (1, 1, 1))

    def test_dimension_equals_syt_count(self):
        for n in range(1, 7):
            for lam in partitions(n):
                assert dimension(lam) == standard_tableaux_count(lam)
                assert dimension(lam) >= 1

    def test_orthogonality(self):
        # sum over classes of (n!/z_mu) chi^a(mu) chi^b(mu) = n! [a == b]
        for n in range(1, 7):
            ps = partitions(n)
            for a in ps:
                for b in ps:
                    s = sum(Fraction(factorial(n), centralizer_order(mu))
                            * character(a, mu) * character(b, mu)
                            for mu in ps)
                    assert s == (factorial(n) if a == b else 0)


class TestContentProduct:
    def test_single_cell(self):
        for d in range(1, 6):
            assert content_product((1,), d) == d

    def test_row_two(self):
        assert content_product((2,), 2) == 6

    def test_too_many_rows(self):
        assert content_product((1, 1), 1) == 0


def gram_matrix(n, d):
    perms = list(itertools.permutations(range(n)))
    return perms, [[Fraction(d ** len(cycle_type(compose(inverse(p), q))))
                    for q in perms] for p in perms]


def wg_matrix(perms, d):
    return [[weingarten(cycle_type(compose(inverse(p), q)), d)
             for q in perms] for p in perms]


class TestWeingarten:
    def test_n1(self):
        for d in range(1, 6):
            assert weingarten((1,), d) == Fraction(1, d)

    def test_n2_values(self):
        # oracle: invert the 2x2 Gram matrix [[d^2, d], [d, d^2]] by hand
        for d in range(2, 6):
            assert weingarten((1, 1), d) == Fraction(1, d * d - 1)
            assert weingarten((2,), d) == Fraction(-1, d * (d * d - 1))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_full_matrix_inverse(self, n):
        for d in [n, n + 1, 7]:
            perms, G = gram_matrix(n, d)
            W = wg_matrix(perms, d)
            size = len(perms)
            for i in range(size):
                for j in range(size):
                    s = sum(G[i][k] * W[k][j] for k in range(size))
                    assert s == (1 if i == j else 0)

    @pytest.mark.parametrize("n", [4, 5])
    def test_inverse_by_convolution(self, n):
        # G and W are functions of sigma^{-1} tau, so (GW)(sigma, tau)
        # only depends on sigma^{-1} tau; checking the identity row against
        # all tau is equivalent to the full matrix identity.
        perms = list(itertools.permutations(range(n)))
        for d in [n, n + 1, 7]:
            for tau in perms:
                s = sum(Fraction(d ** len(cycle_type(pi)))
                        * weingarten(cycle_type(compose(inverse(pi), tau)), d)
                        for pi in perms)
                assert s == (1 if tau == tuple(range(n)) else 0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_pseudo_inverse_small_d(self, n):
        # G W G = G exactly for d < n (Moore-Penrose convention)
        for d in range(1, n):
            perms, G = gram_matrix(n, d)
            W = wg_matrix(perms, d)
            size = len(perms)
            GW = [[sum(G[i][k] * W[k][j] for k in range(size))
                   for j in range(size)] for i in range(size)]
            for i in range(size):
                for j in range(size):
                    s = sum(GW[i][k] * G[k][j] for k in range(size))
                    assert s == G[i][j]


class TestBlockWeingarten:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equals_tau_sum(self, n):
        # G(sigma) = sum_tau Wg(sigma tau^-1, d) prod_{cycles c of tau}
        # tr(D^|c|), for every sigma, at every signature up to d = 4
        perms = list(itertools.permutations(range(n)))
        for d in range(1, 5):
            for r in range(d + 1):
                for sigma in perms:
                    s = Fraction(0)
                    for tau in perms:
                        loops = 1
                        for c in cycle_type(tau):
                            loops *= d if c % 2 == 0 else 2 * r - d
                        wg = weingarten(
                            cycle_type(compose(sigma, inverse(tau))), d)
                        s += wg * loops
                    assert block_weingarten(cycle_type(sigma), d, r) == s

    def test_traceless_odd_vanishes(self):
        for mu in [(1,), (3,), (2, 1), (1, 1, 1), (5,), (3, 1, 1)]:
            assert block_weingarten(mu, 4, 2) == 0

    def test_rejects_bad_signature(self):
        with pytest.raises(InputError):
            block_weingarten((2,), 2, 3)
        # mu is checked up front, not by a character call inside the sum
        for mu in [(2, 0), (2, -1)]:
            with pytest.raises(InputError, match="block_weingarten needs"):
                block_weingarten(mu, 2, 1)


class TestPowerSumMoment:
    """E[p_mu(V) conj p_nu(V)] for Haar V in U(d), by Schur orthogonality."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_column_orthogonality(self, n):
        # for d >= n every lam |- n counts: z_mu delta_{mu nu}
        for mu in partitions(n):
            for nu in partitions(n):
                want = centralizer_order(mu) if mu == nu else 0
                for d in (n, n + 2):
                    assert power_sum_moment(mu, nu, d) == want, (mu, nu, d)

    def test_small_dims(self):
        # E |tr U|^4 is 1 at d = 1 and 2 for d >= 2; E |tr U|^(2n) counts
        # the permutations of n with no increasing subsequence longer than d
        # (Rains, Electron. J. Combin. 5, 1998): Catalan numbers at d = 2
        assert power_sum_moment((1, 1), (1, 1), 1) == 1
        assert [power_sum_moment((1, 1), (1, 1), d) for d in (2, 3)] == [2, 2]
        assert [power_sum_moment((1,) * n, (1,) * n, 2)
                for n in range(1, 7)] == [1, 2, 5, 14, 42, 132]
        # at d = 1, V is a phase: every pair of equal sizes gives 1
        for n in range(1, 6):
            for mu in partitions(n):
                for nu in partitions(n):
                    assert power_sum_moment(mu, nu, 1) == 1

    def test_unequal_sizes_vanish(self):
        assert power_sum_moment((2, 1), (2,), 3) == 0
        assert power_sum_moment((), (1,), 1) == 0
        assert power_sum_moment((), (), 1) == 1

    def test_order_of_parts_is_free(self):
        assert power_sum_moment((1, 2), (2, 1), 3) == \
            power_sum_moment((2, 1), (2, 1), 3) == 2

    @pytest.mark.parametrize("mu, nu, d", [((1,), (1,), 0),
                                           ((0, 1), (1,), 2)])
    def test_rejects_bad_input(self, mu, nu, d):
        with pytest.raises(InputError):
            power_sum_moment(mu, nu, d)
