"""Moment-matrix assembly, symmetric-pencil generalized eigenvalue solving,
and the lambda/eta hierarchy drivers.

Both hierarchies produce weakly decreasing upper bounds on the minimal
eigenvalue of a self-adjoint polynomial:
  * lambda_d: largest lambda with M_d(f) - lambda * M_d(1) >= 0 over the
    degree-<=d word basis, M_d assembled from the order-d state.
  * eta_d: same pencil on the Hankel matrices of the scalar moments of f.
Each sequence builds only its exact pencil at order d; the one loop
``_orders`` times, solves and records every order. Moment entries are exact
rationals; floats appear only in the eigensolve.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .algebra import (AlgebraSpec, NCPolynomial, Word, is_self_adjoint,
                      multiply, star_word, words_up_to)
from .errors import (BudgetExceededError, IndefiniteBError, InputError,
                     KernelViolationError)
from .haar import DEFAULT_BUDGET
from .states import StateSpec, evaluate_sums

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
                  algebra: AlgebraSpec, budget: int = DEFAULT_BUDGET
                  ) -> MomentMatrix:
    """M(f) = [phi(u* f v)] over the basis words, exact and symmetric."""
    if not is_self_adjoint(f, algebra):
        raise InputError("moment_matrix requires f = f*")
    basis = list(basis)
    if len(set(basis)) != len(basis):
        raise InputError("basis words must be duplicate-free")
    n = len(basis)
    if (words := n * (n + 1) // 2 * len(f.terms)) > WORD_BUDGET:
        raise BudgetExceededError(
            f"moment matrix needs {words} word evaluations, over "
            f"{WORD_BUDGET}")
    adjoints = [star_word(u) for u in basis]
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    values = evaluate_sums(state, (
        ((adjoints[i] + w + basis[j], c)
         for w, c in f.terms.items()) for i, j in cells), algebra, budget)
    entries = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), v in zip(cells, values):
        entries[i][j] = entries[j][i] = v
    return MomentMatrix(basis, entries)


def scalar_moments(f: NCPolynomial, state: StateSpec, max_power: int,
                   algebra: AlgebraSpec, budget: int = DEFAULT_BUDGET
                   ) -> list[Fraction]:
    """[phi(f^0), ..., phi(f^max_power)], exact."""
    if not is_self_adjoint(f, algebra):
        raise InputError("scalar_moments requires f = f*")

    def powers():  # each built after the previous one is evaluated
        power = NCPolynomial.one()
        yield power.terms.items()
        for _ in range(max_power):
            power = multiply(power, f, algebra)
            if len(power.terms) > WORD_BUDGET:
                raise BudgetExceededError(
                    f"support of f^k exceeded {WORD_BUDGET} words")
            yield power.terms.items()
    return evaluate_sums(state, powers(), algebra, budget)


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
    norm_a = float(np.linalg.norm(A, 2))
    kernel_residual = 0.0
    if not np.all(keep):
        Z = v[:, ~keep]
        kernel_residual = float(np.max(np.linalg.norm(A @ Z, axis=0))) if Z.size else 0.0
        if kernel_residual > tol * max(norm_a, 1.0):
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


def lambda_sequence(f: NCPolynomial, algebra: AlgebraSpec,
                    subset: Sequence[str], state_family: StateFamily,
                    d_max: int, tol: float = DEFAULT_TOL,
                    budget: int = DEFAULT_BUDGET) -> HierarchyReport:
    """lambda_d for d = 1..d_max: pencil of M_{G,d}(f) against M_{G,d}(1)
    under the order-d state."""
    def pencil(d: int):
        basis = words_up_to(algebra, subset, d)
        psi = state_family(d)
        A = moment_matrix(f, psi, basis, algebra, budget).entries
        B = moment_matrix(NCPolynomial.one(), psi, basis, algebra,
                          budget).entries
        return A, B, _sha16(_rows_source(A) + "|" + _rows_source(B))
    return _orders(pencil, "lam", d_max, tol)


def eta_sequence(f: NCPolynomial, algebra: AlgebraSpec,
                 state_family: StateFamily, d_max: int,
                 tol: float = DEFAULT_TOL,
                 budget: int = DEFAULT_BUDGET) -> HierarchyReport:
    """eta_d for d = 1..d_max: Hankel pencil (phi(f^{i+j+1})) against
    (phi(f^{i+j})), i, j = 0..d, under the order-d state."""
    def pencil(d: int):
        m = scalar_moments(f, state_family(d), 2 * d + 1, algebra, budget)
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
    return np.array([[float(x) for x in row] for row in rows])


def _rows_source(rows) -> str:
    """Exact text of a rational matrix, the input of a pencil digest."""
    return ";".join(",".join(str(x) for x in row) for row in rows)


def _sha16(src: str) -> str:
    return hashlib.sha256(src.encode()).hexdigest()[:16]
