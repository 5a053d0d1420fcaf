"""Moment-matrix assembly, symmetric-pencil generalized eigenvalue solving,
and the lambda/eta hierarchy drivers.

Both hierarchies produce weakly decreasing upper bounds on the minimal
eigenvalue of a self-adjoint polynomial:
  * lambda_d: largest lambda with M_d(f) - lambda * M_d(1) >= 0 over the
    degree-<=d word basis, M_d assembled from the order-d state.
  * eta_d: same pencil on the Hankel matrices of the scalar moments of f.
Each sequence builds only its pencil at order d; the one loop ``_orders``
times, solves and records every order. Moment entries are exact rationals
from the run's ``states.Evaluator``, which holds the algebra, the budget and
the memo that lambda and eta share; floats appear only in the eigensolve.

Only words of unitary charge 0 (``algebra.charge``) are evaluated, since
every state is 0 on the others (the charge rule of ``states``): cell (u, v)
of M(f) sums the terms t of f with charge(t) = charge(u) - charge(v), and a
cell with none is 0. Every state is also tracial, so psi(u* t v) =
psi(t g) with g the canonical word of v u*: the cells with one g share
their value, and M(f) evaluates one sum of the words t g per distinct g
(chsh at order 3: 81 sums for 325 cells). Where the cells lie is a
``_Layout``: the canonical g of each basis pair, grouped by g. A lambda run
owns one and grows it order by order, since the basis of order d is the
start of that of order d + 1, so M(f) and M(1) of every order share each
pair's g; ``moment_matrix`` builds one for its basis. Lambda converts each
group's exact value once, to a float and to the text of its digest, and
writes it into every cell of the group: a zero cell costs no exact work.

Eta evaluates the charge-0 terms of each f^k, built once per run up to
K = 2 d_max + 1 and only from the terms of f^(k-1) that the remaining
factors of f can still bring back to charge 0 by f^K, which gives every
order the charge-0 terms of the full powers. ``WORD_BUDGET`` still counts
every (cell, term) pair of a moment matrix, n(n+1)/2 * |f|, before the
charge filter and the shared cells, and is checked before a layout grows
to the basis; for eta it counts the terms of each power as built. Every
state is checked on all the generators of the basis and f first
(``Evaluator.check``), so one that refuses them raises before any word is
evaluated.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from .algebra import (AlgebraSpec, NCPolynomial, Word, canonicalize, charge,
                      is_self_adjoint, multiply, star_word, words_up_to)
from .errors import (BudgetExceededError, IndefiniteBError, InputError,
                     KernelViolationError)
from .states import Evaluator, StateSpec

DEFAULT_TOL = 1e-9
WORD_BUDGET = 10 ** 6


@dataclass
class MomentMatrix:
    basis: list[Word]
    entries: list[list[Fraction]]  # exactly symmetric

    @property
    def dim(self) -> int:
        return len(self.basis)

    def to_float(self) -> np.ndarray:
        return _to_float(self.entries)


@dataclass
class PencilReport:
    lam: float
    rank_b: int
    kernel_residual: float


@dataclass
class OrderRecord:
    d: int
    basis_size: int
    pencil: PencilReport
    lam: float | None = None  # pencil.lam of a lambda_sequence order
    eta: float | None = None  # pencil.lam of an eta_sequence order
    wall_time: float = 0.0
    pencil_digest: str = ""


@dataclass
class HierarchyReport:
    orders: list[OrderRecord] = field(default_factory=list)


StateFamily = Callable[[int], StateSpec]


def moment_matrix(f: NCPolynomial, state: StateSpec, basis: Sequence[Word],
                  ev: Evaluator) -> MomentMatrix:
    """M(f) = [phi(u* f v)] over the basis words, exact and symmetric."""
    if not is_self_adjoint(f, ev.algebra):
        raise InputError("moment_matrix requires f = f*")
    terms = _by_charge(f, ev.algebra)
    layout = _Layout(ev.algebra, terms)
    layout.grow(basis)
    ev.check(state, [*layout.basis, *f.terms])
    n = len(layout.basis)
    entries = [[Fraction(0)] * n for _ in range(n)]
    for v, cells in layout.groups(terms, state, ev):
        for i, j in cells:
            entries[i][j] = entries[j][i] = v
    return MomentMatrix(layout.basis, entries)


class _Layout:
    """Where the cells of moment matrices lie over a basis that only grows:
    the canonical word g = v u* of each cell (u, v) of the upper triangle
    whose charge(u) - charge(v) is the charge of some term, with the cells
    grouped by g. psi(u* t v) = 0 unless charge(t) = charge(u) - charge(v)
    (the charge rule of ``states``), and psi(u* t v) = psi(t g) for a
    tracial psi, so a group's cells share one value: the sum of the words
    t g over the terms t of that charge. A group keeps that charge, so the
    matrices of all the polynomials a layout is made for read their groups
    from it. Words of order d + 1 extend the basis of order d
    (``words_up_to``), so growing adds only the cells of the new words."""

    def __init__(self, algebra: AlgebraSpec, *polys: dict):
        """polys: the (word, c) terms of each polynomial, by charge."""
        self.algebra = algebra
        self.charges = list(dict.fromkeys(q for terms in polys for q in terms))
        # the most terms of a polynomial, which WORD_BUDGET counts per cell
        self.width = max(sum(map(len, terms.values())) for terms in polys)
        self.basis: list[Word] = []
        self._groups: dict[Word, tuple[tuple[int, ...], list]] = {}
        self._rows: dict[tuple[int, ...], list[int]] = {}  # charge -> i
        self._adjoints: list[Word] = []

    def grow(self, basis: Sequence[Word]) -> None:
        """Extend the layout to a basis that starts with the current one.
        Refuses a duplicate word, and, before any cell is laid out, a
        basis of n words whose n(n+1)/2 cells of ``width`` terms each
        exceed WORD_BUDGET."""
        old = len(self.basis)
        if list(basis[:old]) != self.basis:
            raise ValueError("a layout's basis can only grow")
        new = list(basis[old:])
        if len(set(self.basis).union(new)) != old + len(new):
            raise InputError("basis words must be duplicate-free")
        n = old + len(new)
        if (words := n * (n + 1) // 2 * self.width) > WORD_BUDGET:
            raise BudgetExceededError(
                f"moment matrix needs {words} word evaluations, over "
                f"{WORD_BUDGET}")
        algebra, rows, groups = self.algebra, self._rows, self._groups
        for j, v in enumerate(new, old):
            self.basis.append(v)
            self._adjoints.append(star_word(v))
            qv = charge(v, algebra)
            rows.setdefault(qv, []).append(j)
            # cell (i, j), i <= j, of term charge q has charge(u_i) = qv + q
            for q in self.charges:
                for i in rows.get(tuple(a + b for a, b in zip(qv, q)), ()):
                    g = canonicalize(v + self._adjoints[i], algebra)
                    groups.setdefault(g, (q, []))[1].append((i, j))

    def groups(self, terms: dict[tuple[int, ...], list], state: StateSpec,
               ev: Evaluator) -> Iterator[tuple[Fraction, list]]:
        """(value, cells) of each group of the matrix of the polynomial
        whose (word, c) terms by charge are given, over the current basis;
        the cells of no group are 0."""
        chosen = [(g, ts, cells) for g, (q, cells) in self._groups.items()
                  if (ts := terms.get(q))]
        values = ev.sums(state, (((w + g, c) for w, c in ts)
                                 for g, ts, _ in chosen))
        return zip(values, (cells for _, _, cells in chosen))

    def pencil_matrix(self, terms: dict[tuple[int, ...], list],
                      state: StateSpec, ev: Evaluator
                      ) -> tuple[np.ndarray, str]:
        """The floats and the digest text (``_rows_source``) of the matrix
        of ``groups``: each group's value is converted once and written
        into every cell of the group, and a zero cell costs no exact work."""
        n = len(self.basis)
        floats = np.zeros((n, n))
        text = [["0"] * n for _ in range(n)]
        for v, cells in self.groups(terms, state, ev):
            if v:
                x, s = v.numerator / v.denominator, str(v)
                for i, j in cells:
                    floats[i, j] = floats[j, i] = x
                    text[i][j] = text[j][i] = s
        return floats, ";".join(map(",".join, text))


def _by_charge(p: NCPolynomial, algebra: AlgebraSpec
               ) -> dict[tuple[int, ...], list[tuple[Word, Fraction]]]:
    """The (word, c) terms of p by their charge."""
    terms: dict[tuple[int, ...], list[tuple[Word, Fraction]]] = {}
    for w, c in p.terms.items():
        terms.setdefault(charge(w, algebra), []).append((w, c))
    return terms


def scalar_moments(f: NCPolynomial, state: StateSpec, max_power: int,
                   ev: Evaluator) -> list[Fraction]:
    """[phi(f^0), ..., phi(f^max_power)], exact."""
    if not is_self_adjoint(f, ev.algebra):
        raise InputError("scalar_moments requires f = f*")
    ev.check(state, f.terms)
    return ev.sums(state, _charge0_powers(f, ev.algebra, max_power))


def _charge0_powers(f: NCPolynomial, algebra: AlgebraSpec, top: int
                    ) -> Iterator[list[tuple[Word, Fraction]]]:
    """The charge-0 (word, c) terms of f^0, ..., f^top, each power built
    when the previous one has been taken. f^k keeps a term of f^(k-1) only
    within (top - k + 1) * s of charge 0, s the largest |charge|_1 of a term
    of f: a term further away never returns to charge 0 in f^k..f^top."""
    def size(w: Word) -> int:  # |charge(w)|_1
        return sum(map(abs, charge(w, algebra)))
    step = max(map(size, f.terms), default=0)  # most one factor of f moves
    power, sizes = NCPolynomial.one(), {(): 0}
    yield list(power.terms.items())
    for k in range(1, top + 1):
        if step:  # else no term of f moves the charge, and all stay
            reach = (top - k + 1) * step
            power = NCPolynomial({w: c for w, c in power.terms.items()
                                  if sizes[w] <= reach})
        power = multiply(power, f, algebra)
        if len(power.terms) > WORD_BUDGET:
            raise BudgetExceededError(
                f"support of f^{k} exceeded {WORD_BUDGET} words")
        sizes = {w: size(w) for w in power.terms}
        yield [(w, c) for w, c in power.terms.items() if not sizes[w]]


def max_shift(A: np.ndarray, B: np.ndarray, tol: float = DEFAULT_TOL) -> PencilReport:
    """Largest lambda with A - lambda*B >= 0 for symmetric A and PSD B.

    B is eigendecomposed; directions with eigenvalue <= tol * max(eig B) are
    treated as kernel and must also annihilate A (states guarantee
    ker B <= ker A); the answer is the minimal eigenvalue of A whitened by B
    on the complement.
    """
    if not 0 <= tol < float("inf"):
        raise InputError(f"tol must be finite and >= 0, got {tol}")
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape or A.shape[0] != A.shape[1]:
        raise InputError("max_shift needs same-size square matrices")
    w, v = np.linalg.eigh(B)
    wmax = max(float(w[-1]), 0.0)
    if w[0] < -tol * max(wmax, 1.0):
        raise IndefiniteBError(f"B has eigenvalue {w[0]:.3e} < 0 beyond tol")
    thresh = tol * wmax
    keep = w > thresh
    kernel_residual = 0.0
    if not np.all(keep):
        kernel_residual = float(np.max(np.linalg.norm(A @ v[:, ~keep], axis=0)))
        if kernel_residual > tol * max(float(np.linalg.norm(A, 2)), 1.0):
            raise KernelViolationError(
                f"kernel of B does not annihilate A (residual {kernel_residual:.3e})")
    if not np.any(keep):
        raise IndefiniteBError("B is numerically zero; pencil is unbounded")
    W = v[:, keep] / np.sqrt(w[keep])
    C = W.T @ A @ W
    C = (C + C.T) / 2
    lam = float(np.linalg.eigvalsh(C)[0])
    return PencilReport(lam=lam, rank_b=int(np.count_nonzero(keep)),
                        kernel_residual=kernel_residual)


def lambda_sequence(f: NCPolynomial, ev: Evaluator, subset: Sequence[str],
                    state_family: StateFamily, d_max: int,
                    tol: float = DEFAULT_TOL) -> HierarchyReport:
    """lambda_d for d = 1..d_max: pencil of M_{G,d}(f) against M_{G,d}(1)
    under the order-d state. One layout, grown order by order, serves both
    matrices of every order."""
    if not is_self_adjoint(f, ev.algebra):
        raise InputError("lambda_sequence requires f = f*")
    f_terms = _by_charge(f, ev.algebra)
    one_terms = _by_charge(NCPolynomial.one(), ev.algebra)
    layout = _Layout(ev.algebra, f_terms, one_terms)

    def pencil(d: int):
        basis, psi = words_up_to(ev.algebra, subset, d), state_family(d)
        layout.grow(basis)
        ev.check(psi, [*basis, *f.terms])
        A, a = layout.pencil_matrix(f_terms, psi, ev)
        B, b = layout.pencil_matrix(one_terms, psi, ev)
        return A, B, _sha16(a + "|" + b)
    return _orders(pencil, "lam", d_max, tol)


def eta_sequence(f: NCPolynomial, ev: Evaluator, state_family: StateFamily,
                 d_max: int, tol: float = DEFAULT_TOL) -> HierarchyReport:
    """eta_d for d = 1..d_max: Hankel pencil (phi(f^{i+j+1})) against
    (phi(f^{i+j})), i, j = 0..d, under the order-d state. The powers of f
    are built once per run, with the reach of the highest, f^(2 d_max + 1)."""
    if not is_self_adjoint(f, ev.algebra):
        raise InputError("eta_sequence requires f = f*")
    powers, built = _charge0_powers(f, ev.algebra, 2 * d_max + 1), []

    def first(count: int):  # f^0..f^(count-1), each built when first taken
        for k in range(count):
            if k == len(built):
                built.append(next(powers))
            yield built[k]

    def pencil(d: int):
        ev.check(psi := state_family(d), f.terms)
        m = ev.sums(psi, first(2 * d + 2))
        A = [[m[i + j + 1] for j in range(d + 1)] for i in range(d + 1)]
        B = [[m[i + j] for j in range(d + 1)] for i in range(d + 1)]
        return A, B, _sha16(_rows_source(A)) + "|" + _sha16(_rows_source(B))
    return _orders(pencil, "eta", d_max, tol)


def _orders(pencil: Callable, bound: str, d_max: int,
            tol: float) -> HierarchyReport:
    """Solve pencil(d) = (A, B, digest) for d = 1..d_max, recording the
    bound under the OrderRecord field named bound. Lambda's A and B are
    floats already; eta's are its small exact Hankel matrices, which
    max_shift converts as float(x), the same rounding. The two sequences'
    digest formats differ, and bench/references.json pins both."""
    if d_max < 1:
        raise InputError("d_max must be >= 1")
    report = HierarchyReport()
    for d in range(1, d_max + 1):
        t0 = time.perf_counter()
        A, B, digest = pencil(d)
        pr = max_shift(A, B, tol)
        report.orders.append(OrderRecord(
            d=d, basis_size=len(A), pencil=pr, **{bound: pr.lam},
            wall_time=time.perf_counter() - t0, pencil_digest=digest))
    return report


def _to_float(rows) -> np.ndarray:
    """Fractions to floats: x.numerator / x.denominator is the correctly
    rounded int division that float(x) makes, without its dispatch."""
    return np.array([[x.numerator / x.denominator for x in row]
                     for row in rows])


def _rows_source(rows) -> str:
    """Exact text of a rational matrix, the input of a pencil digest."""
    return ";".join(",".join(str(x) for x in row) for row in rows)


def _sha16(src: str) -> str:
    return hashlib.sha256(src.encode()).hexdigest()[:16]
