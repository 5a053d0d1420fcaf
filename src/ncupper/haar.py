"""Exact Haar-unitary expectations of traces of words, plus a Monte Carlo
cross-check oracle.

A trace word is a cyclic sequence of atoms: Haar-unitary letters ``U`` / its
adjoint, and fixed signature matrices D = diag(I_r, -I_{dim-r}). The exact
value of E[Tr w] comes from the Weingarten expansion: each independent
unitary symbol with k occurrences of U and of U* pairs them by a row
permutation sigma and a column permutation tau; a configuration weighs
Wg(sigma tau^-1, dim) times the product of loop traces induced on the index
structure of the word. Constants being diagonal +-1 matrices keeps loop
values integer, so every result is an exact rational.

Block collapse. A symbol is a block symbol when every occurrence of it sits
in a cyclic triple U D U* with one signature constant D, the shape that a
hermitian-unitary letter b = U D U* expands to. The inner indices of its
blocks are joined only to each other, through tau, into one loop per cycle c
of tau carrying tr(D^|c|) (dim for even |c|, 2r - dim for odd |c|). Summing
tau out leaves the class function

    G_k(sigma) = sum_tau Wg(sigma tau^-1, dim) prod_{c in tau} tr(D^|c|),

``symcomb.block_weingarten``, so a block symbol costs k! terms instead of
(k!)^2; its sigma joins the left outer index of block i to the right outer
index of block sigma(i). Plain symbols keep the (sigma, tau) pairs.

Parity pruning. When a block symbol's G_k vanishes on every cycle type (for
example odd k with r = dim/2) the moment is 0 and nothing is enumerated.
The budget counts k! per block symbol and (k!)^2 per plain symbol, after
this pruning.

Memo. ``exact_trace_moment`` maps a word to the representative of its class
under trace cyclicity and adjoint symmetry (tr w* = tr w, the constants
being real diagonal) and evaluates that with an ``lru_cache``d engine keyed
on (representative, dim, budget), for the life of the process. The budget is
part of the key, so a moment computed under a large budget is still refused
under a smaller one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .errors import BudgetExceededError, InputError
from .symcomb import (block_weingarten, compose, cycle_type, inverse,
                      partitions, weingarten)

DEFAULT_BUDGET = 10 ** 8


@dataclass(frozen=True)
class UnitaryAtom:
    symbol: str
    star: bool = False


@dataclass(frozen=True)
class ConstantAtom:
    name: str


Atom = UnitaryAtom | ConstantAtom
TraceWord = tuple[Atom, ...]


@dataclass(frozen=True)
class SignatureMatrix:
    """diag(I_r, -I_{dim-r}); trace = 2r - dim."""

    dim: int
    r: int

    def __post_init__(self):
        if not (0 <= self.r <= self.dim):
            raise InputError("signature needs 0 <= r <= dim")

    @property
    def trace(self) -> int:
        return 2 * self.r - self.dim

    def sign(self, i: int) -> int:
        return 1 if i < self.r else -1


def _resolved_atoms(word: TraceWord,
                    constants: Mapping[str, SignatureMatrix]) -> tuple:
    out = []
    for a in word:
        if isinstance(a, UnitaryAtom):
            out.append(("u", a.symbol, a.star))
        elif isinstance(a, ConstantAtom):
            try:
                m = constants[a.name]
            except KeyError:
                raise InputError(f"missing constant {a.name!r}") from None
            out.append(("c", m.dim, m.r))
        else:
            raise InputError(f"bad atom {a!r}")
    return tuple(out)


def _star_reverse(resolved: tuple) -> tuple:
    out = []
    for a in reversed(resolved):
        if a[0] == "u":
            out.append(("u", a[1], not a[2]))
        else:
            out.append(a)  # signature matrices are self-adjoint
    return tuple(out)


def _cyclic_min(t: tuple) -> tuple:
    return min(t[i:] + t[:i] for i in range(len(t)))


def _cache_key(resolved: tuple) -> tuple:
    """The smallest rotation of the word or of its adjoint, a resolved word
    with the same moment. Plain tuple order is total on resolved atoms,
    since their first field ("u" or "c") fixes the types of the rest."""
    a = _cyclic_min(resolved)
    b = _cyclic_min(_star_reverse(resolved))
    return min(a, b)


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def exact_trace_moment(word: Sequence[Atom], dim: int,
                       constants: Mapping[str, SignatureMatrix] | None = None,
                       budget: int = DEFAULT_BUDGET) -> Fraction:
    """Exact value of E[tr w(U_1, ..., U_k, D_1, ...)] over independent Haar
    unitaries of size dim, with fixed signature-matrix constants."""
    constants = constants or {}
    if dim < 1:
        raise InputError("dim must be >= 1")
    if not word:
        raise InputError("trace word must be non-empty")
    resolved = _resolved_atoms(tuple(word), constants)
    for a in resolved:
        if a[0] == "c" and a[1] != dim:
            raise InputError(f"constant of dim {a[1]} used at dim {dim}")
    return _evaluate_moment(_cache_key(resolved), dim, budget)


def _block_symbols(resolved: tuple,
                   unstarred: dict[str, list[int]]) -> dict[str, int]:
    """Symbol -> r for every symbol of a balanced word whose occurrences are
    all cyclic triples U D U* sharing one signature constant
    D = diag(I_r, -I_{dim-r})."""
    L = len(resolved)
    out = {}
    for s, P in unstarred.items():
        rs = set()
        for p in P:
            mid, end = resolved[(p + 1) % L], resolved[(p + 2) % L]
            if mid[0] != "c" or end != ("u", s, True):
                break
            rs.add(mid[2])
        else:
            if len(rs) == 1:
                out[s] = rs.pop()
    return out


@lru_cache(maxsize=None)
def _evaluate_moment(resolved: tuple, dim: int, budget: int) -> Fraction:
    L = len(resolved)
    # occurrence lists per unitary symbol
    unstarred: dict[str, list[int]] = {}
    starred: dict[str, list[int]] = {}
    const_pos: list[int] = []
    for pos, a in enumerate(resolved):
        if a[0] == "u":
            (starred if a[2] else unstarred).setdefault(a[1], []).append(pos)
        else:
            const_pos.append(pos)
    symbols = sorted(set(unstarred) | set(starred))
    for s in symbols:
        if len(unstarred.get(s, ())) != len(starred.get(s, ())):
            return Fraction(0)  # phase invariance kills unbalanced words
    blocks = _block_symbols(resolved, unstarred)
    plain = [s for s in symbols if s not in blocks]

    # A block symbol sums its tau side in closed form: the inner gaps of its
    # blocks only meet each other, so only sigma is enumerated, with weight
    # G(cycle type of sigma). A G table that is identically zero ends here.
    tables = {}
    for s, r in sorted(blocks.items()):
        tables[s] = {mu: block_weingarten(mu, dim, r)
                     for mu in partitions(len(unstarred[s]))}
        if not any(tables[s].values()):
            return Fraction(0)
    counts = [len(unstarred[s]) for s in plain]
    n_configs = 1
    for s in blocks:
        n_configs *= math.factorial(len(unstarred[s]))
    for k in counts:
        n_configs *= math.factorial(k) ** 2
    if n_configs > budget:
        raise BudgetExceededError(
            f"Weingarten expansion needs {n_configs} configurations "
            f"(k! per block symbol, (k!)^2 per plain symbol; "
            f"budget {budget})")

    block_choices = []
    inner: set[int] = set()
    for s, table in tables.items():
        P = unstarred[s]
        # left outer gap of block i meets right outer gap of block sigma(i)
        block_choices.append([
            (g, [(P[i], (P[si] + 3) % L) for i, si in enumerate(sigma)])
            for sigma in itertools.permutations(range(len(P)))
            if (g := table[cycle_type(sigma)])])
        for p in P:
            inner.update(((p + 1) % L, (p + 2) % L))

    # base gluing from diagonal constants: D[g_c, g_{c+1}] forces equality;
    # block constants and their inner gaps are already inside G
    outer_consts = [c for c in const_pos if c not in inner]
    outer_gaps = [g for g in range(L) if g not in inner]
    base = _UnionFind(L)
    for c in outer_consts:
        base.union(c, (c + 1) % L)
    base_parent = list(base.parent)

    total = Fraction(0)
    perm_lists = [list(itertools.permutations(range(k))) for k in counts]
    for choice in itertools.product(*block_choices):
        block_weight = math.prod((g for g, _ in choice), start=Fraction(1))
        block_rows = [row for _, rows in choice for row in rows]
        for sigmas in itertools.product(*perm_lists):
            # row deltas: gap(P[i]) == gap(Q[sigma(i)] + 1)
            uf_rows = list(block_rows)
            for s, sigma in zip(plain, sigmas):
                P, Q = unstarred[s], starred[s]
                for i, qi in enumerate(sigma):
                    uf_rows.append((P[i], (Q[qi] + 1) % L))
            for taus in itertools.product(*perm_lists):
                uf = _UnionFind(L)
                uf.parent = list(base_parent)
                for a, b in uf_rows:
                    uf.union(a, b)
                weight = block_weight
                for s, sigma, tau in zip(plain, sigmas, taus):
                    P, Q = unstarred[s], starred[s]
                    # column deltas: gap(P[i] + 1) == gap(Q[tau(i)])
                    for i, ti in enumerate(tau):
                        uf.union((P[i] + 1) % L, Q[ti])
                    weight *= weingarten(
                        cycle_type(compose(sigma, inverse(tau))), dim)
                total += weight * _loop_value(uf, resolved, outer_consts,
                                              outer_gaps, dim)
    return total


def _loop_value(uf: _UnionFind, resolved: tuple, consts: list[int],
                gaps: list[int], dim: int) -> int:
    """Product over the index classes of the given gaps of the sum over index
    values of the signs of the given constants sitting on the class; a class
    with no constants gives dim."""
    classes: dict[int, list[int]] = {}
    roots = set()
    for g in gaps:
        roots.add(uf.find(g))
    for c in consts:
        classes.setdefault(uf.find(c), []).append(resolved[c][2])
    value = 1
    for root in roots:
        rs = classes.get(root)
        if not rs:
            value *= dim
            continue
        s = 0
        for i in range(dim):
            prod = 1
            for r in rs:
                if i >= r:
                    prod = -prod
            s += prod
        value *= s
    return value


# --- Monte Carlo oracle ---------------------------------------------------

def haar_sample(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Batch of Haar unitaries via QR of complex Ginibre matrices with the
    diagonal-phase correction (plain QR is not Haar-distributed)."""
    z = (rng.standard_normal((count, dim, dim))
         + 1j * rng.standard_normal((count, dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.einsum("...ii->...i", r)
    phases = diag / np.abs(diag)
    return q * phases[:, None, :]


def _signature_array(m: SignatureMatrix) -> np.ndarray:
    d = np.ones(m.dim)
    d[m.r:] = -1.0
    return np.diag(d).astype(complex)


def mc_trace_moments(words: Sequence[Sequence[Atom]], dim: int,
                     constants: Mapping[str, SignatureMatrix] | None = None,
                     samples: int = 10 ** 5, seed: int = 0,
                     chunk: int = 20000) -> list[tuple[float, float]]:
    """Monte Carlo (estimate, stderr) of tr w for several words sharing one
    Haar sample stream. Deterministic given the seed."""
    constants = constants or {}
    if samples < 2:
        raise InputError("need samples >= 2")
    words = [tuple(w) for w in words]
    symbols = sorted({a.symbol for w in words for a in w
                      if isinstance(a, UnitaryAtom)})
    const_arrays = {}
    for w in words:
        for a in w:
            if isinstance(a, ConstantAtom) and a.name not in const_arrays:
                if a.name not in constants:
                    raise InputError(f"missing constant {a.name!r}")
                m = constants[a.name]
                if m.dim != dim:
                    raise InputError(f"constant of dim {m.dim} used at dim {dim}")
                const_arrays[a.name] = _signature_array(m)
    rng = np.random.default_rng(seed)
    sums = np.zeros(len(words))
    sqsums = np.zeros(len(words))
    done = 0
    while done < samples:
        n = min(chunk, samples - done)
        us = {s: haar_sample(rng, n, dim) for s in symbols}
        for wi, w in enumerate(words):
            acc = None
            for a in w:
                if isinstance(a, UnitaryAtom):
                    m = us[a.symbol]
                    m = m.conj().transpose(0, 2, 1) if a.star else m
                else:
                    m = np.broadcast_to(const_arrays[a.name], (n, dim, dim))
                acc = m if acc is None else acc @ m
            tr = np.einsum("...ii->...", acc).real
            sums[wi] += tr.sum()
            sqsums[wi] += (tr * tr).sum()
        done += n
    out = []
    for wi in range(len(words)):
        mean = sums[wi] / samples
        var = max(sqsums[wi] / samples - mean * mean, 0.0)
        stderr = np.sqrt(var / (samples - 1))
        out.append((float(mean), float(stderr)))
    return out


def mc_trace_moment(word: Sequence[Atom], dim: int,
                    constants: Mapping[str, SignatureMatrix] | None = None,
                    samples: int = 10 ** 5, seed: int = 0) -> tuple[float, float]:
    """Monte Carlo mean and standard error of tr w; see mc_trace_moments."""
    return mc_trace_moments([word], dim, constants, samples, seed)[0]
