"""State constructors evaluable on words as exact rationals.

Supported variants:
  * CanonicalTrace          delta at the identity (reduced group C*-algebra)
  * HaarTrace(dim)          normalized Haar expectation of the trace; for
                            hermitian-unitary generators each letter b is
                            expanded as U b' U* with b' = diag(I_d, -I_d)
                            of size 2*dim
  * Combination             positive rational convex combination; its
                            HaarTrace terms read one dim-free Weingarten
                            histogram of the word (``haar``) at each of
                            their dims, any other term recurses
  * TensorProductState      factor-by-factor evaluation (trace multiplies
                            across tensor factors)
  * FreeProductState        centering recursion: alternating products of
                            centered component elements evaluate to zero

Every variant is tracial with real values (for combinations, tensor and free
products: Voiculescu-Dykema-Nica, "Free random variables", 1992), so values
are memoized on ``algebra.tracial_class``; a non-tracial state added later
must opt out. Every variant is also invariant under u -> e^{i theta} u for
each unitary generator u: Haar measure is, a word that reduces to 1 has net
exponent 0 in every generator, and combinations, tensor and free products
keep the invariance. So psi(w) = 0 unless ``algebra.charge(w)`` is 0, and
``hierarchy`` skips such words; a state that breaks this charge
rule must opt out as well. ``_eval`` is the one memo, so a combination
builds one histogram per class, and its budget counts the configurations
once for all of its dims. Whether a state can evaluate a word (one
generator kind per Haar trace, a free product covering every generator) is
checked on the canonical word before reduction: ``u b u*`` is refused, its
class ``b`` not.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from typing import Iterable, Sequence, Union

from .algebra import (AlgebraSpec, NCPolynomial, Word, canonicalize,
                      exact_sum, multiply, tracial_class)
from .errors import InputError
from .haar import (DEFAULT_BUDGET, Atom, ConstantAtom, SignatureMatrix,
                   UnitaryAtom, exact_trace_moment, read_histogram,
                   weingarten_histogram)


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
    """Exact value of the state on any word; the one-term evaluate_sums."""
    return evaluate_sums(state, [[(word, 1)]], algebra, budget)[0]


def evaluate_poly(state: StateSpec, p: NCPolynomial, algebra: AlgebraSpec,
                  budget: int = DEFAULT_BUDGET) -> Fraction:
    return evaluate_sums(state, [p.terms.items()], algebra, budget)[0]


def evaluate_sums(state: StateSpec,
                  sums: Iterable[Iterable[tuple[Word, Fraction]]],
                  algebra: AlgebraSpec,
                  budget: int = DEFAULT_BUDGET) -> list[Fraction]:
    """Exact sum of c * psi(w) over each iterable of (word, c) terms, in order.
    Every word is canonicalized and checked, then reduced to its tracial
    class; each new class is evaluated once by ``_eval``, the one moment
    memo, on (state, class, algebra, budget) for the process. Each sum is
    added in integers by ``exact_sum``."""
    values: dict[Word, Fraction] = {}  # canonical word (or class) -> psi
    checked = set()
    out = []
    for terms in sums:
        products = []  # c * psi(w) as (numerator, denominator)
        for w, c in terms:
            w = canonicalize(w, algebra)
            if w not in values:
                if (gens := frozenset(l.gen for l in w)) not in checked:
                    _check(state, gens, algebra)
                    checked.add(gens)
                # a class has a subset of w's generators, so it passes too
                cls = tracial_class(w, algebra)
                if cls not in values:
                    values[cls] = _eval(state, cls, algebra, budget)
                values[w] = values[cls]
            v = values[w]
            products.append((c.numerator * v.numerator,
                             c.denominator * v.denominator))
        out.append(exact_sum(products))
    return out


def can_evaluate(state: StateSpec, gens: frozenset,
                 algebra: AlgebraSpec) -> bool:
    """Whether the state can evaluate words over gens. A set it refuses is
    refused within every larger set too."""
    try:
        _check(state, gens, algebra)
    except InputError:
        return False
    return True


def _check(state: StateSpec, gens: frozenset, algebra: AlgebraSpec) -> None:
    """Raise InputError unless the state can evaluate a word over gens."""
    if isinstance(state, HaarTrace):
        kinds = {algebra.generator(g).kind for g in gens}
        if len(kinds) > 1 or "general" in kinds:
            raise InputError(f"HaarTrace cannot evaluate kinds {sorted(kinds)}")
    elif isinstance(state, Combination):
        for _, s in state.terms:
            _check(s, gens, algebra)
    elif isinstance(state, TensorProductState):
        states = dict(state.factors)
        if missing := set(algebra.factor_tags) - set(states):
            raise InputError(f"tensor state misses factor tags {sorted(missing)}")
        for tag, s in states.items():
            _check(s, frozenset(g for g in gens
                                if algebra.generator(g).factor == tag), algebra)
    elif isinstance(state, FreeProductState):
        covered = [g for comp, _ in state.components for g in comp]
        if len(set(covered)) != len(covered):
            raise InputError("free-product components must be disjoint")
        if uncovered := gens - set(covered):
            raise InputError(f"generator {min(uncovered)!r} not covered by "
                             f"free product")
        for comp, s in state.components:
            if gens & comp:
                _check(s, gens & comp, algebra)
    elif not isinstance(state, CanonicalTrace):
        raise InputError(f"unknown state variant {state!r}")


@lru_cache(maxsize=None)
def _eval(state: StateSpec, word: Word, algebra: AlgebraSpec,
          budget: int) -> Fraction:
    # word is a checked class representative, canonical factor by factor
    if isinstance(state, CanonicalTrace):
        return Fraction(0) if word else Fraction(1)
    if isinstance(state, HaarTrace):
        return _eval_haar(state, word, algebra, budget)
    if isinstance(state, Combination):
        # the Haar terms read one histogram; any other term recurses
        haar = [(w, s.dim) for w, s in state.terms if isinstance(s, HaarTrace)]
        value = sum((w * _eval(s, word, algebra, budget)
                     for w, s in state.terms if not isinstance(s, HaarTrace)),
                    Fraction(0))
        if haar:
            values = _eval_haar_dims([d for _, d in haar], word, algebra,
                                     budget)
            value += exact_sum((w.numerator * v.numerator,
                                w.denominator * v.denominator)
                               for (w, _), v in zip(haar, values))
        return value
    if isinstance(state, TensorProductState):
        return _eval_tensor(state, word, algebra, budget)
    return _eval_free(state, word, algebra, budget)


def _eval_haar(state: HaarTrace, word: Word, algebra: AlgebraSpec,
               budget: int) -> Fraction:
    if not word:
        return Fraction(1)
    atoms, [(n, constants)] = _haar_points(word, algebra, [state.dim])
    return exact_trace_moment(atoms, n, constants, budget) / n


def _eval_haar_dims(dims: list[int], word: Word, algebra: AlgebraSpec,
                    budget: int) -> list[Fraction]:
    """HaarTrace(dim) of a word for each dim, read from one histogram."""
    if not word:
        return [Fraction(1)] * len(dims)
    atoms, points = _haar_points(word, algebra, dims)
    hist = weingarten_histogram(atoms, points, budget)
    return [read_histogram(hist, n, c) / n for n, c in points]


def _haar_points(word: Word, algebra: AlgebraSpec, dims: Sequence[int]
                 ) -> tuple[list[Atom], list[tuple[int, dict]]]:
    """The Haar trace word of a non-empty word of one generator kind, and
    the (matrix size, constants) of HaarTrace(dim) on it for each dim: those
    of trace_atoms at size 2 * dim, where D = diag(I_dim, -I_dim), for
    hermitian-unitary letters, and at size dim for unitary ones."""
    atoms, constants = trace_atoms(word, algebra, 2 * dims[0])
    if not constants:
        return atoms, [(d, {}) for d in dims]
    return atoms, [(2 * d, {"D": SignatureMatrix(2 * d, d)}) for d in dims]


def trace_atoms(word: Word, algebra: AlgebraSpec, dim: int
                ) -> tuple[list[Atom], dict[str, SignatureMatrix]]:
    """The Haar trace word of a word at matrix size dim, with its constants:
    a unitary letter is a Haar symbol, and a hermitian-unitary letter b is
    U_b D U_b* with D = diag(I_{dim//2}, -I_{dim - dim//2})."""
    atoms: list[Atom] = []
    for l in word:
        kind = algebra.generator(l.gen).kind
        if kind == "unitary":
            atoms.append(UnitaryAtom(l.gen, l.star))
        elif kind == "hermitian-unitary":
            atoms += [UnitaryAtom(l.gen), ConstantAtom("D"),
                      UnitaryAtom(l.gen, star=True)]
        else:
            raise InputError(f"no Haar trace word for kind {kind!r}")
    if any(isinstance(a, ConstantAtom) for a in atoms):
        return atoms, {"D": SignatureMatrix(dim, dim // 2)}
    return atoms, {}


def _eval_tensor(state: TensorProductState, word: Word, algebra: AlgebraSpec,
                 budget: int) -> Fraction:
    value = Fraction(1)
    for tag, s in sorted(dict(state.factors).items()):
        sub = tuple(l for l in word if algebra.generator(l.gen).factor == tag)
        value *= _eval(s, sub, algebra, budget)
    return value


def _eval_free(state: FreeProductState, word: Word, algebra: AlgebraSpec,
               budget: int) -> Fraction:
    comp_of = {g: ci for ci, (gens, _) in enumerate(state.components)
               for g in gens}
    blocks = tuple((ci, NCPolynomial.from_word(tuple(run)))
                   for ci, run in groupby(word,
                                          key=lambda l: comp_of[l.gen]))

    def walk(prefix: tuple, rest: tuple) -> Fraction:
        # prefix: centered alternating blocks; phi of a fully centered
        # alternating product vanishes by definition of the free product
        if not rest:
            return Fraction(1) if not prefix else Fraction(0)
        ci, p = rest[0]
        m = evaluate_poly(state.components[ci][1], p, algebra, budget)
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

    return walk((), blocks)


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
