"""Moment-matrix assembly, symmetric-pencil generalized eigenvalue solving,
and the lambda/eta hierarchy drivers.

Both hierarchies produce weakly decreasing upper bounds on the minimal
eigenvalue of a self-adjoint polynomial:
  * lambda_d: largest lambda with M_d(f) - lambda * M_d(1) >= 0 over the
    degree-<=d word basis, M_d assembled from the order-d state.
  * eta_d: same pencil on the Hankel matrices of the scalar moments of f.
Each sequence builds only its exact pencil at order d; the one loop
``_orders`` times, solves and records every order. Moment entries are exact
rationals from the run's ``states.Evaluator``, which holds the algebra, the
budget and the memo that lambda and eta share; floats appear only in the
eigensolve.

Only words of unitary charge 0 (``algebra.charge``) are evaluated, since
every state is 0 on the others (the charge rule of ``states``): cell (u, v)
of M(f) sums the terms t of f with charge(t) = charge(u) - charge(v), and a
cell with none is 0. Every state is also tracial, so psi(u* t v) =
psi(t g) with g the canonical word of v u*: the cells with one g share
their value, and M(f) evaluates one sum of the words t g per distinct g
(chsh at order 3: 81 sums for 325 cells). Eta evaluates the charge-0 terms
of each f^k, built once per run up to K = 2 d_max + 1 and only from the
terms of f^(k-1) that the remaining factors of f can still bring back to
charge 0 by f^K, which gives every order the charge-0 terms of the full
powers. ``WORD_BUDGET`` still counts every (cell, term) pair of a moment
matrix, n(n+1)/2 * |f|, before the charge filter and the shared cells, and
for eta the terms of each power as built. Every state is checked on all
the generators of the basis and f first (``Evaluator.check``), so one that
refuses them raises before any word is evaluated.
"""

from __future__ import annotations

import hashlib
import time
from bisect import bisect_left
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
    basis = list(basis)
    if len(set(basis)) != len(basis):
        raise InputError("basis words must be duplicate-free")
    n = len(basis)
    if (words := n * (n + 1) // 2 * len(f.terms)) > WORD_BUDGET:
        raise BudgetExceededError(
            f"moment matrix needs {words} word evaluations, over "
            f"{WORD_BUDGET}")
    ev.check(state, [*basis, *f.terms])
    # psi(u* t v) = 0 unless charge(v) = charge(u) - charge(t)
    charges = [charge(u, ev.algebra) for u in basis]
    columns: dict[tuple[int, ...], list[int]] = {}  # charge -> j, increasing
    for j, q in enumerate(charges):
        columns.setdefault(q, []).append(j)
    terms: dict[tuple[int, ...], list[tuple[Word, Fraction]]] = {}
    for w, c in f.terms.items():
        terms.setdefault(charge(w, ev.algebra), []).append((w, c))
    cells = []  # (i, j, terms of f that can be nonzero in cell (i, j))
    for i, qu in enumerate(charges):
        for qt, ts in terms.items():
            js = columns.get(tuple(a - b for a, b in zip(qu, qt)), ())
            cells += ((i, j, ts) for j in js[bisect_left(js, i):])
    # psi(u* t v) = psi(t g) with g = v u*, so cells share their value by g
    # (and then share their terms too, as charge(g) picks them)
    adjoints = [star_word(u) for u in basis]
    groups: dict[Word, tuple[list, list]] = {}  # g -> (terms, cells)
    for i, j, ts in cells:
        g = canonicalize(basis[j] + adjoints[i], ev.algebra)
        groups.setdefault(g, (ts, []))[1].append((i, j))
    values = ev.sums(state, (((w + g, c) for w, c in ts)
                             for g, (ts, _) in groups.items()))
    entries = [[Fraction(0)] * n for _ in range(n)]
    for (_, ijs), v in zip(groups.values(), values):
        for i, j in ijs:
            entries[i][j] = entries[j][i] = v
    return MomentMatrix(basis, entries)


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
    under the order-d state."""
    def pencil(d: int):
        basis = words_up_to(ev.algebra, subset, d)
        psi = state_family(d)
        A = moment_matrix(f, psi, basis, ev).entries
        B = moment_matrix(NCPolynomial.one(), psi, basis, ev).entries
        return A, B, _sha16(_rows_source(A) + "|" + _rows_source(B))
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
    bound under the OrderRecord field named bound. The two sequences' digest
    formats differ, and bench/references.json pins both."""
    if d_max < 1:
        raise InputError("d_max must be >= 1")
    report = HierarchyReport()
    for d in range(1, d_max + 1):
        t0 = time.perf_counter()
        A, B, digest = pencil(d)
        pr = max_shift(_to_float(A), _to_float(B), tol)
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
