"""Exact Haar-unitary expectations of traces of words, plus a Monte Carlo
cross-check oracle.

A trace word is a cyclic sequence of atoms: Haar-unitary letters ``U`` / its
adjoint, and fixed signature matrices D = diag(I_r, -I_{dim-r}). The exact
value of E[Tr w] comes from the Weingarten expansion: each independent
unitary symbol with k occurrences of U and of U* pairs them by a row
permutation sigma and a column permutation tau; a configuration weighs
Wg(sigma tau^-1, dim) times the product of its loop traces. Gap g, the index
between atoms g - 1 and g, is the row index of atom g and the column index
of atom g - 1. With P[i] and Q[j] the positions of the i-th U and the j-th
U* of a symbol, a configuration gives every gap exactly one successor: gap
g + 1 for a constant at g (its diagonal forces equality), Q[sigma(i)] + 1
for P[i], and P[i] + 1 for Q[tau(i)]. The loops are the cycles of this
successor map; a cycle without constants gives dim, one with constants the
sum over index values of their signs. Constants being diagonal +-1 matrices
keeps loop values integer, so every result is an exact rational.

Block collapse. A symbol is a block symbol when every occurrence of it sits
in a cyclic triple U D U* with one signature constant D, the shape that a
hermitian-unitary letter b = U D U* expands to. The inner indices of its
blocks are joined only to each other, through tau, into one loop per cycle c
of tau carrying tr(D^|c|) (dim for even |c|, 2r - dim for odd |c|). Summing
tau out leaves the class function

    G_k(sigma) = sum_tau Wg(sigma tau^-1, dim) prod_{c in tau} tr(D^|c|),

``symcomb.block_weingarten``, so a block symbol costs k! terms instead of
(k!)^2; its sigma makes the right outer gap of block sigma(i) the successor
of the left outer gap of block i. Outer gaps only lead to outer gaps, so the
cycles walked are those of the outer gaps. Plain symbols keep the
(sigma, tau) pairs.

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

Word check. ``exact_trace_moment`` and the Monte Carlo oracle
``mc_trace_moments`` check a word through one helper (dim >= 1, a non-empty
word, known constants of size dim) and both work on its resolved atoms.

Monte Carlo. ``mc_trace_moments`` draws one batch of Haar unitaries per
symbol and chunk, then walks the distinct words in sorted order as a prefix
trie over their resolved atoms: a word starts from the deepest kept product
of a prefix it shares with the word before it, multiplies in all but its
last atom, and takes the trace of the product with that atom as an einsum
over the two factors (for a last U* over their real and imaginary parts, so
no conjugate is copied). A prefix product stays alive only while a later
word in the sorted order starts from it, and never when its last atom is a
constant: a constant is a diagonal +-1 matrix, so multiplying by it is an
exact column scaling that costs less to redo than the memory to keep. The
sample stream and the per-word sums do not depend on the order of the words.
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
_MC_CHUNK = 20000  # fixes the Monte Carlo sample stream


@dataclass(frozen=True)
class UnitaryAtom:
    symbol: str
    star: bool = False


@dataclass(frozen=True)
class ConstantAtom:
    name: str


Atom = UnitaryAtom | ConstantAtom


@dataclass(frozen=True)
class SignatureMatrix:
    """diag(I_r, -I_{dim-r}); trace = 2r - dim."""

    dim: int
    r: int

    def __post_init__(self):
        if not (0 <= self.r <= self.dim):
            raise InputError("signature needs 0 <= r <= dim")

    def sign(self, i: int) -> int:
        return 1 if i < self.r else -1


def _checked_atoms(word: Sequence[Atom], dim: int,
                   constants: Mapping[str, SignatureMatrix] | None) -> tuple:
    """The word as resolved atoms, ("u", symbol, star) or ("c", dim, r),
    after checking that it is a non-empty trace word at matrix size dim."""
    if dim < 1:
        raise InputError("dim must be >= 1")
    if not word:
        raise InputError("trace word must be non-empty")
    constants = constants or {}
    out = []
    for a in word:
        if isinstance(a, UnitaryAtom):
            out.append(("u", a.symbol, a.star))
        elif isinstance(a, ConstantAtom):
            try:
                m = constants[a.name]
            except KeyError:
                raise InputError(f"missing constant {a.name!r}") from None
            if m.dim != dim:
                raise InputError(f"constant of dim {m.dim} used at dim {dim}")
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


def exact_trace_moment(word: Sequence[Atom], dim: int,
                       constants: Mapping[str, SignatureMatrix] | None = None,
                       budget: int = DEFAULT_BUDGET) -> Fraction:
    """Exact value of E[tr w(U_1, ..., U_k, D_1, ...)] over independent Haar
    unitaries of size dim, with fixed signature-matrix constants."""
    resolved = _checked_atoms(word, dim, constants)
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
    for pos, a in enumerate(resolved):
        if a[0] == "u":
            (starred if a[2] else unstarred).setdefault(a[1], []).append(pos)
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

    # Successor map of the gaps: g + 1 is right for a constant in every
    # configuration; each configuration overwrites the unitary gaps. Block
    # constants and their inner gaps are already inside G, and outer gaps
    # only lead to outer gaps, so inner ones are never visited.
    nxt = [(g + 1) % L for g in range(L)]
    signs = [a[2] if a[0] == "c" else None for a in resolved]
    block_choices = []
    inner: set[int] = set()
    for s, table in tables.items():
        P = unstarred[s]
        # left outer gap of block i -> right outer gap of block sigma(i)
        block_choices.append([
            (g, [(P[i], (P[si] + 3) % L) for i, si in enumerate(sigma)])
            for sigma in itertools.permutations(range(len(P)))
            if (g := table[cycle_type(sigma)])])
        for p in P:
            inner.update(((p + 1) % L, (p + 2) % L))
    outer_gaps = [g for g in range(L) if g not in inner]

    total = Fraction(0)
    perm_lists = [list(itertools.permutations(range(k))) for k in counts]
    for choice in itertools.product(*block_choices):
        block_weight = math.prod((g for g, _ in choice), start=Fraction(1))
        for _, rows in choice:
            for a, b in rows:
                nxt[a] = b
        for sigmas in itertools.product(*perm_lists):
            # rows: gap P[i] -> gap Q[sigma(i)] + 1
            for s, sigma in zip(plain, sigmas):
                P, Q = unstarred[s], starred[s]
                for i, qi in enumerate(sigma):
                    nxt[P[i]] = (Q[qi] + 1) % L
            for taus in itertools.product(*perm_lists):
                weight = block_weight
                for s, sigma, tau in zip(plain, sigmas, taus):
                    P, Q = unstarred[s], starred[s]
                    # columns: gap Q[tau(i)] -> gap P[i] + 1
                    for i, ti in enumerate(tau):
                        nxt[Q[ti]] = (P[i] + 1) % L
                    weight *= weingarten(
                        cycle_type(compose(sigma, inverse(tau))), dim)
                total += weight * _loop_value(nxt, signs, outer_gaps, dim)
    return total


def _loop_value(nxt: list[int], signs: list[int | None], gaps: list[int],
                dim: int) -> int:
    """Product over the cycles of the successor map through the given gaps
    of the sum over index values of the signs of the constants (r, or None
    for a unitary) at the gaps of the cycle; a cycle with no constants gives
    dim."""
    seen = [False] * len(nxt)
    value = 1
    for g in gaps:
        if seen[g]:
            continue
        rs = []
        while not seen[g]:
            seen[g] = True
            if signs[g] is not None:
                rs.append(signs[g])
            g = nxt[g]
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


def mc_trace_moments(words: Sequence[Sequence[Atom]], dim: int,
                     constants: Mapping[str, SignatureMatrix] | None = None,
                     samples: int = 10 ** 5,
                     seed: int = 0) -> list[tuple[float, float]]:
    """Monte Carlo (estimate, stderr) of tr w for several words sharing one
    Haar sample stream, drawn _MC_CHUNK unitaries per symbol at a time.
    Deterministic given the seed."""
    if samples < 2:
        raise InputError("need samples >= 2")
    if seed < 0:
        raise InputError("seed must be >= 0")
    words = [_checked_atoms(w, dim, constants) for w in words]
    order = sorted(set(words))
    kept = _reused_depths(order)
    symbols = sorted({a[1] for w in order for a in w if a[0] == "u"})
    diags = {a: np.where(np.arange(dim) < a[2], 1.0, -1.0)
             for w in order for a in w if a[0] == "c"}
    rng = np.random.default_rng(seed)
    sums = np.zeros(len(order))
    sqsums = np.zeros(len(order))
    done = 0
    while done < samples:
        n = min(_MC_CHUNK, samples - done)
        us = {s: haar_sample(rng, n, dim) for s in symbols}
        eye = np.broadcast_to(np.eye(dim, dtype=complex), (n, dim, dim))
        stack = []  # (depth, product of that prefix), depths increasing
        for wi, (w, keep) in enumerate(zip(order, kept)):
            depth, acc = stack[-1] if stack else (0, None)
            stack = [e for e in stack if e[0] in keep]
            for k in range(depth, len(w) - 1):
                acc = _mc_times(acc, w[k], us, diags, eye)
                if k + 1 in keep:
                    stack.append((k + 1, acc))
            tr = _mc_trace(eye if acc is None else acc, w[-1], us, diags)
            sums[wi] += tr.sum()
            sqsums[wi] += (tr * tr).sum()
        done += n
    stats = {}
    for wi, w in enumerate(order):
        mean = sums[wi] / samples
        var = max(sqsums[wi] / samples - mean * mean, 0.0)
        stderr = np.sqrt(var / (samples - 1))
        stats[w] = (float(mean), float(stderr))
    return [stats[w] for w in words]


def _mc_times(acc: np.ndarray | None, atom: tuple, us: dict, diags: dict,
              eye: np.ndarray) -> np.ndarray:
    """acc times one resolved atom, per sample; None is the identity eye. A
    constant scales the columns of acc. A conjugate copy lives only until
    the return, so it never adds to the kept prefix products."""
    if atom[0] == "c":
        return (eye if acc is None else acc) * diags[atom]
    m = us[atom[1]]
    if atom[2]:
        m = m.conj().transpose(0, 2, 1)
    return m if acc is None else acc @ m


def _mc_trace(acc: np.ndarray, atom: tuple, us: dict,
              diags: dict) -> np.ndarray:
    """Real part of tr(acc atom), per sample, without forming the product."""
    if atom[0] == "c":
        return np.einsum("nii,i->n", acc.real, diags[atom])
    m = us[atom[1]]
    if atom[2]:  # tr(acc m*) = sum_ij acc_ij conj(m_ij)
        return (np.einsum("nij,nij->n", acc.real, m.real)
                + np.einsum("nij,nij->n", acc.imag, m.imag))
    return np.einsum("nij,nji->n", acc, m).real


def _reused_depths(order: list[tuple]) -> list[set[int]]:
    """For each word of a sorted list of distinct resolved words, the prefix
    lengths whose products a later word starts from. Word j > i shares with
    word i the shortest common prefix of the consecutive pairs between them
    and starts from the deepest kept product within it. A word computes no
    product past its second-to-last atom, and a product whose last atom is a
    constant is rebuilt by a column scaling instead of kept."""
    out = []
    later: list[int] = []  # shared-prefix lengths with later words, rising
    for i in reversed(range(len(order))):
        w = order[i]
        if i + 1 < len(order):
            common = 0
            for x, y in zip(w, order[i + 1]):
                if x != y:
                    break
                common += 1
            later = [s for s in later if s < common] + [common]
        keep = set()
        for k in later:
            k = min(k, len(w) - 1)
            while k and w[k - 1][0] == "c":
                k -= 1
            if k:
                keep.add(k)
        out.append(keep)
    return out[::-1]


def mc_trace_moment(word: Sequence[Atom], dim: int,
                    constants: Mapping[str, SignatureMatrix] | None = None,
                    samples: int = 10 ** 5, seed: int = 0) -> tuple[float, float]:
    """Monte Carlo mean and standard error of tr w; see mc_trace_moments."""
    return mc_trace_moments([word], dim, constants, samples, seed)[0]
