"""Free *-algebra kernel: words over typed generators and exact polynomials.

Generators come in three kinds:
  * ``unitary``           u* u = u u* = 1
  * ``hermitian-unitary`` b* = b and b^2 = 1 (stars on such letters are
                          normalized away)
  * ``general``           no relations

A word is its tuple of ``Letter``s (the ``Word`` alias); ``()`` is the unit
and ``word_str`` writes the problem syntax. Each generator carries a
tensor-factor tag; letters with distinct tags commute and never cancel, so a
word is reduced one factor at a time and the canonical word lists the
reduced factors by increasing tag. Polynomial coefficients are exact
rationals throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

import numpy as np

from .errors import InputError

KINDS = ("general", "unitary", "hermitian-unitary")

RationalLike = Union[int, str, Fraction]


def as_fraction(x: RationalLike) -> Fraction:
    """Coerce ints and 'p/q' or decimal strings to Fraction. A bool is not a
    number here, and exponent notation is refused: Fraction('1e100000000')
    would build a 10^8-digit integer."""
    if isinstance(x, str) and "e" in x.lower():
        raise InputError(f"no exponent notation in a rational: {x!r}")
    if isinstance(x, (Fraction, int, str)) and not isinstance(x, bool):
        return Fraction(x)
    raise InputError(f"not a rational: {x!r}")


def exact_sum(terms: Iterable[tuple[int, int]]) -> Fraction:
    """Exact sum of p / q over (p, q) integer pairs with q > 0: numerators
    are added per denominator, and one Fraction is made at the end."""
    nums: dict[int, int] = {}
    for p, q in terms:
        nums[q] = nums.get(q, 0) + p
    den = math.lcm(*nums)
    return Fraction(sum(p * (den // q) for q, p in nums.items()), den)


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

    @cached_property
    def unitary_slots(self) -> dict[str, int]:
        """Position of each unitary generator among the unitary ones."""
        return {g.id: i for i, g in enumerate(
            g for g in self.generators if g.kind == "unitary")}

    @cached_property
    def letters(self) -> dict["Letter", "LetterInfo"]:
        """Every letter of the algebra, starred or not, with its table row."""
        out = {}
        for g in self.generators:
            hermitian = g.kind == "hermitian-unitary"
            for star in (False, True):
                normal = Letter(g.id, star and not hermitian)
                adjoint = Letter(g.id, not (normal.star or hermitian))
                # a unitary or hermitian-unitary letter cancels its adjoint
                partner = None if g.kind == "general" else adjoint
                out[Letter(g.id, star)] = LetterInfo(normal, partner, adjoint,
                                                     g.factor)
        return out

    def generator(self, gid: str) -> GeneratorSpec:
        try:
            return self.by_id[gid]
        except KeyError:
            raise InputError(f"unknown generator id {gid!r}") from None


class Letter(NamedTuple):
    gen: str
    star: bool = False


Word = tuple[Letter, ...]  # a product of letters; () is the unit 1


class LetterInfo(NamedTuple):
    """A letter's row in ``AlgebraSpec.letters``."""

    normal: Letter  # hermitian-unitary stars dropped
    partner: Letter | None  # the normal letter it cancels against, if any
    adjoint: Letter  # normal form of its star
    factor: int  # tensor-factor tag


def word_str(word: Word) -> str:
    """Problem syntax of a word: 'b1 c1* b2', or '1' for the unit."""
    return " ".join(l.gen + ("*" if l.star else "") for l in word) or "1"


def _letter_key(letter: Letter, algebra: AlgebraSpec) -> tuple[int, bool]:
    # degree-lex tie break: generator position, then unstarred before starred
    return (algebra.position[letter.gen], letter.star)


def word_sort_key(word: Word, algebra: AlgebraSpec):
    return (len(word), tuple(_letter_key(l, algebra) for l in word))


def canonicalize(word: Word, algebra: AlgebraSpec) -> Word:
    """Unique canonical representative of a word modulo the relations.

    Each tensor factor's letters, in word order, are reduced on a stack of
    their own (distinct factors commute and never cancel): hermitian-unitary
    stars are dropped and adjacent inverse pairs are cancelled. The reduced
    factors are concatenated by increasing tag, the form a stable sort by
    tag followed by one reduction gives.
    """
    table = algebra.letters
    stacks: list[list[Letter]] = [[] for _ in algebra.factor_tags]
    try:
        for l in word:
            normal, partner, _, factor = table[l]
            stack = stacks[factor]
            if stack and stack[-1] == partner:
                stack.pop()
            else:
                stack.append(normal)
    except KeyError:
        for l in word:
            algebra.generator(l.gen)  # an unknown id raises InputError
        raise InputError(f"bad letter in {word!r}") from None
    out = stacks[0]
    for stack in stacks[1:]:
        out += stack
    return tuple(out)


def tracial_class(word: Word, algebra: AlgebraSpec) -> Word:
    """Least word, in letter tuple order, of a canonical word's class under
    the moves that keep every real-valued tracial state: cyclic cancellation
    (u ... u*, b ... b) and rotation within each tensor factor, valid since
    factors commute, and the adjoint of the whole word."""
    table = algebra.letters
    if len(algebra.factor_tags) == 1:
        runs = [word]
    else:
        runs = [tuple(run) for _, run in groupby(
            word, key=lambda l: table[l].factor)]
    forward, adjoint = (), ()  # per-factor least rotations, concatenated
    for run in runs:
        while len(run) > 1 and run[-1] == table[run[0]].partner:
            run = run[1:-1]
        forward += _least_rotation(run)
        adjoint += _least_rotation(tuple(table[l].adjoint
                                         for l in reversed(run)))
    return min(forward, adjoint)


def charge(word: Word, algebra: AlgebraSpec) -> tuple[int, ...]:
    """Net exponent (count of u minus count of u*) of each unitary generator
    in the word, in ``algebra.generators`` order; () when the algebra has no
    unitary generator. Additive under products, negated by the adjoint and
    kept by ``canonicalize``, which only cancels u u* pairs."""
    slots = algebra.unitary_slots
    if not slots:
        return ()
    out = [0] * len(slots)
    for l in word:
        if (i := slots.get(l.gen)) is not None:
            out[i] += -1 if l.star else 1
    return tuple(out)


def _least_rotation(t: tuple[Letter, ...]) -> tuple[Letter, ...]:
    return min((t[i:] + t[:i] for i in range(len(t))), default=t)


class NCPolynomial:
    """Rational-coefficient sum of canonical words. Immutable."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Word, Fraction]):
        self.terms: dict[Word, Fraction] = {
            w: c for w, c in terms.items() if c != 0
        }

    @staticmethod
    def zero() -> "NCPolynomial":
        return NCPolynomial({})

    @staticmethod
    def one() -> "NCPolynomial":
        return NCPolynomial({(): Fraction(1)})

    @staticmethod
    def from_word(word: Word, coeff: RationalLike = 1) -> "NCPolynomial":
        return NCPolynomial({word: as_fraction(coeff)})

    @staticmethod
    def scalar(c: RationalLike) -> "NCPolynomial":
        return NCPolynomial({(): as_fraction(c)})

    def __eq__(self, other) -> bool:
        return isinstance(other, NCPolynomial) and self.terms == other.terms

    def __add__(self, other: "NCPolynomial") -> "NCPolynomial":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, Fraction(0)) + c
        return NCPolynomial(out)

    def __sub__(self, other: "NCPolynomial") -> "NCPolynomial":
        return self + NCPolynomial({w: -c for w, c in other.terms.items()})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        return " + ".join(f"({c})*{word_str(w)}" for w, c in sorted(
            self.terms.items(), key=lambda kv: word_str(kv[0]))) or "0"


def star_word(word: Word) -> Word:
    """Reverse the word and star every letter (involution on raw words)."""
    return tuple(Letter(l.gen, not l.star) for l in reversed(word))


def star(p: NCPolynomial, algebra: AlgebraSpec) -> NCPolynomial:
    """Involution: words reversed, starred and re-canonicalized, coefficients
    conjugated (rationals are unchanged)."""
    out: dict[Word, Fraction] = {}
    for w, c in p.terms.items():
        sw = canonicalize(star_word(w), algebra)
        out[sw] = out.get(sw, Fraction(0)) + c
    return NCPolynomial(out)


def multiply(p: NCPolynomial, q: NCPolynomial, algebra: AlgebraSpec) -> NCPolynomial:
    """Distributive product with canonical reduction of every word. Each
    operand's coefficients are put over their common denominator, the
    integer numerators are added per word, and one Fraction is made per
    word of the product."""
    dp = math.lcm(*(c.denominator for c in p.terms.values()))
    dq = math.lcm(*(c.denominator for c in q.terms.values()))
    qs = [(wq, cq.numerator * (dq // cq.denominator))
          for wq, cq in q.terms.items()]
    nums: dict[Word, int] = {}
    for wp, cp in p.terms.items():
        a = cp.numerator * (dp // cp.denominator)
        for wq, b in qs:
            w = canonicalize(wp + wq, algebra)
            nums[w] = nums.get(w, 0) + a * b
    den = dp * dq
    return NCPolynomial({w: Fraction(n, den) for w, n in nums.items() if n})


def is_self_adjoint(p: NCPolynomial, algebra: AlgebraSpec) -> bool:
    return star(p, algebra) == p


def words_up_to(algebra: AlgebraSpec, subset: Sequence[str], d: int) -> list[Word]:
    """All distinct canonical *-words of length <= d over the subset, in
    degree-lex order; the first element is 1."""
    if d < 0:
        raise InputError("order must be nonnegative")
    choices = [Letter(gid, star) for gid in subset for star in (False, True)
               if algebra.generator(gid).kind != "hermitian-unitary"
               or not star]
    levels = [[()]]
    for length in range(1, d + 1):
        # a canonical word less its last letter is a canonical word
        level = {canonicalize(w + (l,), algebra)
                 for w in levels[-1] for l in choices}
        levels.append(sorted((w for w in level if len(w) == length),
                             key=lambda w: word_sort_key(w, algebra)))
    return [w for level in levels for w in level]


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
        atol = rtol * max(1.0, n)
        if kind != "general" and not np.allclose(m @ m.conj().T, eye, atol=atol):
            warnings.warn(f"matrix for {gid} is not unitary within tolerance")
        if kind == "hermitian-unitary" and not np.allclose(m, m.conj().T, atol=atol):
            warnings.warn(f"matrix for {gid} is not Hermitian within tolerance")
    total = np.zeros((n, n), dtype=complex)
    for w, c in p.terms.items():
        val = eye
        for l in w:
            if l.gen not in assignment:
                raise InputError(f"no matrix assigned to generator {l.gen!r}")
            m = assignment[l.gen]
            val = val @ (m.conj().T if l.star else m)
        total = total + float(c) * val
    return total
