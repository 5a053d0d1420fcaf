"""Free *-algebra kernel: words over typed generators and exact polynomials.

Generators come in three kinds:
  * ``unitary``           u* u = u u* = 1
  * ``hermitian-unitary`` b* = b and b^2 = 1 (stars on such letters are
                          normalized away)
  * ``general``           no relations

Each generator carries a tensor-factor tag; letters with distinct tags
commute, and canonical words are stably sorted so tags are non-decreasing.
Polynomial coefficients are exact rationals throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import InputError

KINDS = ("general", "unitary", "hermitian-unitary")

RationalLike = Union[int, str, Fraction]


def as_fraction(x: RationalLike) -> Fraction:
    """Coerce ints and 'p/q' strings to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise InputError(f"not a rational: {x!r}")


@dataclass(frozen=True)
class GeneratorSpec:
    id: str
    kind: str
    factor: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown generator kind {self.kind!r}")
        if self.factor < 0:
            raise InputError("factor tag must be nonnegative")


@dataclass(frozen=True)
class AlgebraSpec:
    generators: tuple[GeneratorSpec, ...]

    def __post_init__(self):
        ids = [g.id for g in self.generators]
        if len(set(ids)) != len(ids):
            raise InputError("generator ids must be unique")
        tags = sorted({g.factor for g in self.generators})
        if tags != list(range(len(tags))):
            raise InputError("factor tags must form a contiguous range from 0")

    @cached_property
    def by_id(self) -> dict[str, GeneratorSpec]:
        return {g.id: g for g in self.generators}

    @cached_property
    def position(self) -> dict[str, int]:
        return {g.id: i for i, g in enumerate(self.generators)}

    @cached_property
    def factor_tags(self) -> tuple[int, ...]:
        return tuple(sorted({g.factor for g in self.generators}))

    def generator(self, gid: str) -> GeneratorSpec:
        try:
            return self.by_id[gid]
        except KeyError:
            raise InputError(f"unknown generator id {gid!r}") from None


@dataclass(frozen=True, order=False)
class Letter:
    gen: str
    star: bool = False


@dataclass(frozen=True)
class Word:
    """A product of letters; the empty tuple is the unit 1."""

    letters: tuple[Letter, ...] = ()

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return " ".join(l.gen + ("*" if l.star else "") for l in self.letters)


IDENTITY_WORD = Word()


def _letter_key(letter: Letter, algebra: AlgebraSpec) -> tuple[int, bool]:
    # degree-lex tie break: generator position, then unstarred before starred
    return (algebra.position[letter.gen], letter.star)


def word_sort_key(word: Word, algebra: AlgebraSpec):
    return (len(word.letters), tuple(_letter_key(l, algebra) for l in word.letters))


def _cancels(a: Letter, b: Letter, kind: str) -> bool:
    if a.gen != b.gen:
        return False
    if kind == "unitary":
        return a.star != b.star
    if kind == "hermitian-unitary":
        return True  # stars already normalized away
    return False


def canonicalize(word: Word, algebra: AlgebraSpec) -> Word:
    """Unique canonical representative of a word modulo the relations.

    Letters are stably sorted by factor tag (distinct factors commute),
    hermitian-unitary stars are dropped, and adjacent inverse pairs are
    cancelled until a fixed point.
    """
    letters = []
    for l in word.letters:
        g = algebra.generator(l.gen)
        if g.kind == "hermitian-unitary" and l.star:
            l = Letter(l.gen, False)
        letters.append(l)
    letters.sort(key=lambda l: algebra.by_id[l.gen].factor)  # stable
    stack: list[Letter] = []
    for l in letters:
        if stack:
            top = stack[-1]
            kind = algebra.by_id[l.gen].kind
            same_factor = algebra.by_id[top.gen].factor == algebra.by_id[l.gen].factor
            if same_factor and _cancels(top, l, kind):
                stack.pop()
                continue
        stack.append(l)
    return Word(tuple(stack))


class NCPolynomial:
    """Rational-coefficient sum of canonical words. Immutable."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Mapping[Word, Fraction]):
        self.terms: dict[Word, Fraction] = {
            w: c for w, c in terms.items() if c != 0
        }
        self._hash = None

    @staticmethod
    def zero() -> "NCPolynomial":
        return NCPolynomial({})

    @staticmethod
    def one() -> "NCPolynomial":
        return NCPolynomial({IDENTITY_WORD: Fraction(1)})

    @staticmethod
    def from_word(word: Word, coeff: RationalLike = 1) -> "NCPolynomial":
        return NCPolynomial({word: as_fraction(coeff)})

    @staticmethod
    def scalar(c: RationalLike) -> "NCPolynomial":
        return NCPolynomial({IDENTITY_WORD: as_fraction(c)})

    def __eq__(self, other) -> bool:
        return isinstance(other, NCPolynomial) and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __add__(self, other: "NCPolynomial") -> "NCPolynomial":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, Fraction(0)) + c
        return NCPolynomial(out)

    def __sub__(self, other: "NCPolynomial") -> "NCPolynomial":
        return self + other.scale(-1)

    def scale(self, c: RationalLike) -> "NCPolynomial":
        c = as_fraction(c)
        return NCPolynomial({w: c * v for w, v in self.terms.items()})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c})*{w}" for w, c in sorted(
            self.terms.items(), key=lambda kv: str(kv[0])))


def star_word(word: Word) -> Word:
    """Reverse the word and star every letter (involution on raw words)."""
    return Word(tuple(Letter(l.gen, not l.star) for l in reversed(word.letters)))


def star(p: NCPolynomial, algebra: AlgebraSpec | None = None) -> NCPolynomial:
    """Involution: words reversed and starred, coefficients conjugated
    (rationals are unchanged). Result re-canonicalized when an algebra is
    supplied; raw star otherwise."""
    out: dict[Word, Fraction] = {}
    for w, c in p.terms.items():
        sw = star_word(w)
        if algebra is not None:
            sw = canonicalize(sw, algebra)
        out[sw] = out.get(sw, Fraction(0)) + c
    return NCPolynomial(out)


def multiply(p: NCPolynomial, q: NCPolynomial, algebra: AlgebraSpec) -> NCPolynomial:
    """Distributive product with canonical reduction of every word."""
    out: dict[Word, Fraction] = {}
    for wp, cp in p.terms.items():
        for wq, cq in q.terms.items():
            w = canonicalize(Word(wp.letters + wq.letters), algebra)
            c = cp * cq
            prev = out.get(w)
            out[w] = c if prev is None else prev + c
    return NCPolynomial(out)


def is_self_adjoint(p: NCPolynomial, algebra: AlgebraSpec) -> bool:
    return star(p, algebra) == p


def _letter_choices(algebra: AlgebraSpec, subset: Sequence[str]) -> list[Letter]:
    choices = []
    for gid in subset:
        g = algebra.generator(gid)
        if g.kind == "hermitian-unitary":
            choices.append(Letter(gid, False))
        else:
            choices.append(Letter(gid, False))
            choices.append(Letter(gid, True))
    return choices


def words_up_to(algebra: AlgebraSpec, subset: Sequence[str], d: int) -> list[Word]:
    """All distinct canonical *-words of length <= d over the subset, in
    degree-lex order; the first element is 1."""
    if d < 0:
        raise InputError("order must be nonnegative")
    choices = _letter_choices(algebra, subset)
    seen: set[Word] = {IDENTITY_WORD}
    by_len: dict[int, list[Word]] = {0: [IDENTITY_WORD]}
    for length in range(1, d + 1):
        level: list[Word] = []
        for w in by_len.get(length - 1, []):
            for l in choices:
                cand = canonicalize(Word(w.letters + (l,)), algebra)
                if len(cand) == length and cand not in seen:
                    seen.add(cand)
                    level.append(cand)
        by_len[length] = level
    result: list[Word] = []
    for length in range(d + 1):
        result.extend(sorted(by_len.get(length, []),
                             key=lambda w: word_sort_key(w, algebra)))
    return result


def evaluate(p: NCPolynomial, assignment: Mapping[str, np.ndarray],
             algebra: AlgebraSpec, rtol: float = 1e-9) -> np.ndarray:
    """Matrix value of the polynomial; stars map to conjugate transposes.

    Matrices assigned to unitary / hermitian-unitary generators are checked
    against their relations (warning-level tolerance rtol).
    """
    import warnings

    dims = {m.shape[0] for m in assignment.values()}
    for m in assignment.values():
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InputError("assignments must be square matrices")
    if len(dims) > 1:
        raise InputError("all assigned matrices must share one dimension")
    n = dims.pop() if dims else 1
    eye = np.eye(n, dtype=complex)
    for gid, m in assignment.items():
        kind = algebra.generator(gid).kind
        if kind in ("unitary", "hermitian-unitary"):
            if not np.allclose(m @ m.conj().T, eye, atol=rtol * max(1.0, n)):
                warnings.warn(f"matrix for {gid} is not unitary within tolerance")
        if kind == "hermitian-unitary":
            if not np.allclose(m, m.conj().T, atol=rtol * max(1.0, n)):
                warnings.warn(f"matrix for {gid} is not Hermitian within tolerance")
    total = np.zeros((n, n), dtype=complex)
    for w, c in p.terms.items():
        val = eye
        for l in w.letters:
            if l.gen not in assignment:
                raise InputError(f"no matrix assigned to generator {l.gen!r}")
            m = assignment[l.gen]
            val = val @ (m.conj().T if l.star else m)
        total = total + float(c) * val
    return total
