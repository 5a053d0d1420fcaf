"""Integer partitions, symmetric-group characters, and the exact rational
Weingarten function for Haar integration over the unitary group.

Partitions are weakly decreasing tuples of positive ints; permutations are
tuples (images of 0..k-1). Everything is exact: characters are ints,
Weingarten values are Fractions.

Wg(mu, d) of a unitary symbol and G(mu, d, r) of a block U D U* are one
character sum over the lam |- |mu| with at most d rows, which
``partitions_within`` lists lazily without building a longer partition.
``weingarten_table`` computes the factors of each lam once for all mu.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from typing import Callable, Iterator

from .errors import InputError

Partition = tuple[int, ...]
Permutation = tuple[int, ...]


def partitions(n: int) -> list[Partition]:
    """All partitions of n in reverse-lex order, (n) first, (1,...,1) last."""
    if n < 1:
        raise InputError("partitions(n) needs n >= 1")
    return list(partitions_within(n, n))


def partitions_within(n: int, rows: int) -> Iterator[Partition]:
    """The partitions of n with at most rows >= 1 parts, lazily in reverse-lex
    order; a first part below ceil(remaining / rows left) is never tried, as
    the rows after it could not hold the rest."""
    def gen(remaining: int, rows: int, cap: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), -(-remaining // rows) - 1, -1):
            for rest in gen(remaining - first, rows - 1, first):
                yield (first,) + rest

    return gen(n, rows, n)


def is_partition(p: Partition) -> bool:
    return all(a >= b for a, b in zip(p, p[1:])) and all(a > 0 for a in p)


def character(lam: Partition, mu: Partition) -> int:
    """Irreducible character chi^lam of S_n evaluated on cycle type mu,
    via the Murnaghan-Nakayama border-strip recursion on beta-numbers."""
    if sum(lam) != sum(mu):
        raise InputError("character: |lambda| != |mu|")
    if not is_partition(lam) or (mu and not is_partition(mu)):
        raise InputError("character: arguments must be partitions")
    return _mn(lam, tuple(sorted(mu, reverse=True)))


def _beta_numbers(lam: Partition) -> tuple[int, ...]:
    k = len(lam)
    return tuple(lam[i] + (k - 1 - i) for i in range(k))


def _partition_from_betas(betas: list[int]) -> Partition:
    betas = sorted(betas, reverse=True)
    k = len(betas)
    parts = tuple(b - (k - 1 - i) for i, b in enumerate(betas))
    return tuple(p for p in parts if p > 0)


@lru_cache(maxsize=None)
def _mn(lam: Partition, mu: Partition) -> int:
    if not mu:
        return 1
    r = mu[0]
    rest = mu[1:]
    betas = _beta_numbers(lam)
    bset = set(betas)
    total = 0
    for b in betas:
        if b - r >= 0 and (b - r) not in bset:
            new = [x for x in betas if x != b] + [b - r]
            # height = number of beta numbers passed over
            height = sum(1 for x in betas if b - r < x < b)
            total += (-1) ** height * _mn(_partition_from_betas(new), rest)
    return total


def content_product(lam: Partition, d: int) -> int:
    """Product of (d + column - row) over the cells of lam; zero when lam
    has more than d rows."""
    out = 1
    for i, part in enumerate(lam):
        for j in range(part):
            out *= d + j - i
    return out


def dimension(lam: Partition) -> int:
    """Dimension of the irreducible: chi^lam on the identity."""
    n = sum(lam)
    return character(lam, (1,) * n) if n else 1


@lru_cache(maxsize=None)
def weingarten(mu: Partition, d: int) -> Fraction:
    """Exact unitary Weingarten function Wg(mu, d), Moore-Penrose
    (pseudo-inverse) convention: the character sum runs only over
    partitions with at most d rows, so the value is defined for all d,
    including d < |mu|."""
    mu = tuple(sorted(mu, reverse=True))
    if not mu or d < 1 or not is_partition(mu):
        raise InputError("weingarten needs a partition of n >= 1 and d >= 1")
    return _character_sum(mu, _wg_weights(sum(mu), d)) / factorial(sum(mu))


def weingarten_table(n: int, d: int) -> Iterator[tuple[Partition, Fraction]]:
    """(mu, Wg(mu, d)) for every mu |- n, in ``partitions`` order. The
    factors that depend only on lam are computed once for the table, so a
    row costs one character per lam."""
    if n < 1 or d < 1:
        raise InputError("weingarten needs a partition of n >= 1 and d >= 1")
    weights = _wg_weights(n, d)
    for mu in partitions(n):
        yield mu, _character_sum(mu, weights) / factorial(n)


def _wg_weights(n: int, d: int) -> tuple[int, list[tuple[Partition, int]]]:
    ones = (1,) * n
    return _lambda_weights(n, d, lambda lam: _mn(lam, ones))


@lru_cache(maxsize=None)
def block_weingarten(mu: Partition, d: int, r: int) -> Fraction:
    """G(mu) = sum over tau in S_k of Wg(sigma tau^-1, d) times the product
    over the cycles c of tau of tr(D^|c|), for any sigma of cycle type mu and
    D = diag(I_r, -I_{d-r}). It is the weight left by k blocks U D U* of one
    Haar unitary once their inner indices are summed.

    Evaluated by the character expansion of both factors:
    G(mu) = sum over lam with at most d rows of
    chi^lam(mu) s_lam(D) / content_product(lam, d)."""
    mu = tuple(sorted(mu, reverse=True))
    if not mu or d < 1 or not 0 <= r <= d or not is_partition(mu):
        raise InputError("block_weingarten needs a partition of n >= 1, "
                         "d >= 1 and 0 <= r <= d")
    return _character_sum(mu, _lambda_weights(
        sum(mu), d, lambda lam: _signature_schur(lam, d, r)))


def _lambda_weights(n: int, d: int,
                    weight: Callable[[Partition], int | Fraction]
                    ) -> tuple[int, list[tuple[Partition, int]]]:
    """The lam |- n with at most d rows, each with the numerator of
    weight(lam) / content_product(lam, d) over the weights' least common
    denominator, which comes first."""
    weights = [(lam, Fraction(weight(lam), content_product(lam, d)))
               for lam in partitions_within(n, d)]
    den = lcm(*(w.denominator for _, w in weights))
    return den, [(lam, w.numerator * (den // w.denominator))
                 for lam, w in weights]


def _character_sum(mu: Partition,
                   weights: tuple[int, list[tuple[Partition, int]]]
                   ) -> Fraction:
    """Sum over the lam of ``_lambda_weights`` of chi^lam(mu) times lam's
    weight, for a checked, decreasing partition mu of the same n."""
    den, nums = weights
    return Fraction(sum(_mn(lam, mu) * num for lam, num in nums), den)


@lru_cache(maxsize=None)
def _signature_schur(lam: Partition, d: int, r: int) -> Fraction:
    """Schur polynomial s_lam at the eigenvalues of diag(I_r, -I_{d-r}):
    sum over nu of chi^lam(nu) p_nu / z_nu, where the power sum p_nu is the
    product of tr(D^m) = d (m even) or 2r - d (m odd) over the parts m."""
    total = Fraction(0)
    for nu in partitions(sum(lam)):
        p = 1
        for m in nu:
            p *= d if m % 2 == 0 else 2 * r - d
        total += Fraction(_mn(lam, nu) * p, centralizer_order(nu))
    return total


# --- permutation helpers -------------------------------------------------

def compose(p: Permutation, q: Permutation) -> Permutation:
    """(p o q)(i) = p[q[i]]."""
    return tuple(p[q[i]] for i in range(len(q)))


def inverse(p: Permutation) -> Permutation:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def cycle_type(p: Permutation) -> Partition:
    seen = [False] * len(p)
    lens = []
    for i in range(len(p)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        lens.append(length)
    return tuple(sorted(lens, reverse=True))


def centralizer_order(mu: Partition) -> int:
    """z_mu = prod over part sizes m of m^{a_m} * a_m!."""
    out = 1
    from collections import Counter
    for m, a in Counter(mu).items():
        out *= m ** a * factorial(a)
    return out
