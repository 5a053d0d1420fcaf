"""State constructors evaluable on words as exact rationals.

Supported variants:
  * CanonicalTrace          delta at the identity (reduced group C*-algebra)
  * HaarTrace(dim)          normalized Haar expectation of the trace; for
                            hermitian-unitary generators each letter b is
                            expanded as U b' U* with b' = diag(I_d, -I_d)
                            of size 2*dim
  * Combination             positive rational convex combination
  * TensorProductState      factor-by-factor evaluation (trace multiplies
                            across tensor factors)
  * FreeProductState        centering recursion: alternating products of
                            centered component elements evaluate to zero
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

from .algebra import (AlgebraSpec, NCPolynomial, Word, canonicalize, multiply)
from .errors import InputError
from .haar import (DEFAULT_BUDGET, ConstantAtom, SignatureMatrix, UnitaryAtom,
                   exact_trace_moment)


@dataclass(frozen=True)
class CanonicalTrace:
    pass


@dataclass(frozen=True)
class HaarTrace:
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise InputError("HaarTrace needs dim >= 1")


@dataclass(frozen=True)
class Combination:
    terms: tuple[tuple[Fraction, "StateSpec"], ...]

    def __post_init__(self):
        if not self.terms:
            raise InputError("empty combination")
        weights = [w for w, _ in self.terms]
        if any(w <= 0 for w in weights):
            raise InputError("combination weights must be positive")
        if sum(weights) != 1:
            raise InputError("combination weights must sum to 1")


@dataclass(frozen=True)
class TensorProductState:
    factors: tuple[tuple[int, "StateSpec"], ...]  # (factor tag, state)


@dataclass(frozen=True)
class FreeProductState:
    components: tuple[tuple[frozenset, "StateSpec"], ...]  # (gen ids, state)


StateSpec = Union[CanonicalTrace, HaarTrace, Combination, TensorProductState,
                  FreeProductState]


def evaluate_state(state: StateSpec, word: Word, algebra: AlgebraSpec,
                   budget: int = DEFAULT_BUDGET) -> Fraction:
    """Exact value of the state on any word, canonicalized here. Memoized
    per (state, canonical word, algebra, budget) for the life of the
    process, so a smaller budget is enforced even on a word seen before."""
    return _eval(state, canonicalize(word, algebra), algebra, budget)


def evaluate_poly(state: StateSpec, p: NCPolynomial, algebra: AlgebraSpec,
                  budget: int = DEFAULT_BUDGET) -> Fraction:
    return sum((c * evaluate_state(state, w, algebra, budget)
                for w, c in p.terms.items()), Fraction(0))


@lru_cache(maxsize=None)
def _eval(state: StateSpec, word: Word, algebra: AlgebraSpec,
          budget: int) -> Fraction:
    # word is canonical here, and so is each tensor factor's sub-word of it
    if isinstance(state, CanonicalTrace):
        return Fraction(1) if word.is_identity else Fraction(0)
    if isinstance(state, HaarTrace):
        return _eval_haar(state, word, algebra, budget)
    if isinstance(state, Combination):
        return sum((w * _eval(s, word, algebra, budget)
                    for w, s in state.terms), Fraction(0))
    if isinstance(state, TensorProductState):
        return _eval_tensor(state, word, algebra, budget)
    if isinstance(state, FreeProductState):
        return _eval_free(state, word, algebra, budget)
    raise InputError(f"unknown state variant {state!r}")


def _eval_haar(state: HaarTrace, word: Word, algebra: AlgebraSpec,
               budget: int) -> Fraction:
    if word.is_identity:
        return Fraction(1)
    kinds = {algebra.generator(l.gen).kind for l in word.letters}
    if len(kinds) > 1:
        raise InputError("HaarTrace cannot mix generator kinds in one word")
    kind = kinds.pop()
    if kind == "unitary":
        atoms = [UnitaryAtom(l.gen, l.star) for l in word.letters]
        dim = state.dim
        return exact_trace_moment(atoms, dim, {}, budget) / dim
    if kind == "hermitian-unitary":
        dim = 2 * state.dim
        sig = SignatureMatrix(dim, state.dim)
        atoms = []
        for l in word.letters:
            atoms += [UnitaryAtom(l.gen), ConstantAtom("D"),
                      UnitaryAtom(l.gen, star=True)]
        return exact_trace_moment(atoms, dim, {"D": sig}, budget) / dim
    raise InputError(f"HaarTrace does not support kind {kind!r}")


def _eval_tensor(state: TensorProductState, word: Word, algebra: AlgebraSpec,
                 budget: int) -> Fraction:
    states = dict(state.factors)
    missing = set(algebra.factor_tags) - set(states)
    if missing:
        raise InputError(f"tensor state misses factor tags {sorted(missing)}")
    value = Fraction(1)
    for tag, s in sorted(states.items()):
        sub = Word(tuple(l for l in word.letters
                         if algebra.generator(l.gen).factor == tag))
        value *= _eval(s, sub, algebra, budget)
    return value


def _eval_free(state: FreeProductState, word: Word, algebra: AlgebraSpec,
               budget: int) -> Fraction:
    comp_of: dict[str, int] = {}
    covered = set()
    for ci, (gens, _) in enumerate(state.components):
        for g in gens:
            if g in covered:
                raise InputError("free-product components must be disjoint")
            covered.add(g)
            comp_of[g] = ci
    for l in word.letters:
        if l.gen not in comp_of:
            raise InputError(f"generator {l.gen!r} not covered by free product")
    # split into maximal runs of same-component letters
    blocks: list[tuple[int, NCPolynomial]] = []
    run: list = []
    run_ci = None
    for l in word.letters:
        ci = comp_of[l.gen]
        if run and ci != run_ci:
            blocks.append((run_ci, NCPolynomial.from_word(Word(tuple(run)))))
            run = []
        run.append(l)
        run_ci = ci
    if run:
        blocks.append((run_ci, NCPolynomial.from_word(Word(tuple(run)))))
    comp_states = [s for _, s in state.components]

    def phi(ci: int, p: NCPolynomial) -> Fraction:
        return evaluate_poly(comp_states[ci], p, algebra, budget)

    def walk(prefix: tuple, rest: tuple) -> Fraction:
        # prefix: centered alternating blocks; phi of a fully centered
        # alternating product vanishes by definition of the free product
        if not rest:
            return Fraction(1) if not prefix else Fraction(0)
        ci, p = rest[0]
        m = phi(ci, p)
        centered = p - NCPolynomial.scalar(m)
        total = Fraction(0)
        if not centered.is_zero:
            total += walk(prefix + ((ci, centered),), rest[1:])
        if m != 0:
            tail = rest[1:]
            if prefix and tail and prefix[-1][0] == tail[0][0]:
                pci, pp = prefix[-1]
                merged = multiply(pp, tail[0][1], algebra)
                total += m * walk(prefix[:-1], ((pci, merged),) + tail[1:])
            else:
                total += m * walk(prefix, tail)
        return total

    return walk((), tuple(blocks))


def make_increasing(base: Sequence[StateSpec]) -> list[Combination]:
    """psi_d = (2^d / (2^d - 1)) * sum_{i<=d} 2^{-i} phi_i, for each d up to
    len(base); exact weights summing to 1."""
    if not base:
        raise InputError("make_increasing needs a non-empty list")
    out = []
    for d in range(1, len(base) + 1):
        scale = Fraction(2 ** d, 2 ** d - 1)
        terms = tuple((scale * Fraction(1, 2 ** i), base[i - 1])
                      for i in range(1, d + 1))
        out.append(Combination(terms))
    return out
