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
in a cyclic triple U D U* around one named signature constant D, the shape
that a hermitian-unitary letter b = U D U* expands to. The inner indices of
its blocks are joined only to each other, through tau, into one loop per
cycle c of tau carrying tr(D^|c|) (dim for even |c|, 2r - dim for odd |c|).
Summing tau out leaves the class function

    G_k(sigma) = sum_tau Wg(sigma tau^-1, dim) prod_{c in tau} tr(D^|c|),

``symcomb.block_weingarten``, so a block symbol costs k! terms instead of
(k!)^2; its sigma makes the right outer gap of block sigma(i) the successor
of the left outer gap of block i. Outer gaps only lead to outer gaps, so the
cycles walked are those of the outer gaps. Plain symbols keep the
(sigma, tau) pairs.

Histogram, then read. The dim enters a configuration only through
Wg(sigma_s tau_s^-1, dim) per plain symbol, G_k(sigma_s) per block symbol
and its loop values (Collins-Sniady, CMP 264, 2006). So
``weingarten_histogram`` enumerates the configurations once and counts them
in integers by a dim-free key: the cycle type of sigma_s tau_s^-1 per plain
symbol, the cycle type of sigma_s per block symbol, and the loops, each as
the sorted names of the constants it carries. ``read_histogram`` is the
short exact sum over the keys at one (dim, constants) point.
``exact_trace_moment`` builds and reads at one point; a combination of Haar
traces in ``states`` reads one histogram at each of its dims.

Parity pruning. When a block symbol has an odd number of blocks around a D
that is traceless (r = dim/2) at every point the histogram is built for,
its G_k vanishes on every cycle type, so the moment is 0 and nothing is
enumerated. The budget counts k! per block symbol and (k!)^2 per plain
symbol, after this pruning, once per build however many points it serves.

Memo. The engine keeps no memo: every build enumerates, so every build
checks its budget. The one moment memo is ``states._eval``, keyed on
(state, tracial class, algebra, budget). The tracial class
(``algebra.tracial_class``: cyclic cancellation and rotation within each
tensor factor, and the adjoint) keeps the value of every real tracial state,
and tr w depends only on the class of w under rotation and adjoint (the
constants being real diagonal), so a class has one moment, and each class
reaches this engine once per Haar trace or combination of them, algebra and
budget, already cyclically reduced: a memo here would never be hit.

Word check. ``weingarten_histogram``, at each of its points, and the Monte
Carlo oracle ``mc_trace_moments`` check a word through one helper
(dim >= 1, a non-empty word, known constants of size dim).

Monte Carlo. ``mc_trace_moments`` draws one batch of Haar unitaries per
symbol and chunk and transposes it once into a (dim, dim, n) array, the
sample axis last and contiguous. It then walks the distinct words in sorted
order as a prefix trie over their resolved atoms: a word starts from the
deepest kept product of a prefix it shares with the word before it,
multiplies in all but its last atom, and takes the trace of the product with
that atom without forming it. Each product is one einsum over the matrix
indices whose inner loop runs along the samples. NumPy's einsum never calls
BLAS, while a stacked (n, dim, dim) matmul calls it once per matrix, so this
layout is faster only at small dims: on the criterion-6 word sets (2-core
x86 VM, OpenBLAS 0.3.31) mc_trace_moments took 0.40 of the matmul layout's
time at dim 3 and 0.77 at dim 5, the same at dim 6, and 1.4, 2.3 and 4.4
times it at dims 8, 16 and 32. The trace is one real einsum over float
views of the two factors, where each sample's real and imaginary parts sit
side by side (for a last U* no conjugate is copied). A prefix product stays
alive only while a later word in the sorted order starts from it, and never
when its last atom is a constant: a constant is a diagonal +-1 matrix, so
multiplying by it is an exact column scaling that costs less to redo than
the memory to keep. The sample stream and the per-word sums do not depend on
the order of the words.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .algebra import exact_sum
from .errors import BudgetExceededError, InputError
from .symcomb import (block_weingarten, compose, cycle_type, inverse,
                      weingarten)

DEFAULT_BUDGET = 10 ** 8
_MC_CHUNK = 20000  # fixes the Monte Carlo sample stream
# chunk arrays that a draw or a product holds beyond the samples and the
# kept products: QR's input, its copy, Q and R, or a factor, its conjugate
# and the result, plus two for the per-sample vectors, as large at dim 1
_MC_SPARE = 6


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


def _block_symbols(word: Sequence[Atom],
                   unstarred: dict[str, list[int]]) -> dict[str, str]:
    """Symbol -> constant name for every symbol of a balanced word whose
    occurrences are all cyclic triples U D U* around one named constant D."""
    L = len(word)
    out = {}
    for s, P in unstarred.items():
        names = set()
        for p in P:
            mid, end = word[(p + 1) % L], word[(p + 2) % L]
            if not isinstance(mid, ConstantAtom) or end != UnitaryAtom(s, True):
                break
            names.add(mid.name)
        else:
            if len(names) == 1:
                out[s] = names.pop()
    return out


class Histogram(NamedTuple):
    """The dim-free Weingarten expansion of one trace word. ``counts`` maps
    (cycle type of sigma_s tau_s^-1 per plain symbol, cycle type of sigma_s
    per block symbol, loops) to its number of configurations; a loop is the
    sorted tuple of the names of the constants it carries. ``blocks`` names
    the constant of each block symbol, in key order."""

    blocks: tuple[str, ...]
    counts: dict[tuple, int]


def weingarten_histogram(
        word: Sequence[Atom],
        points: Sequence[tuple[int, Mapping[str, SignatureMatrix] | None]],
        budget: int = DEFAULT_BUDGET) -> Histogram:
    """Count the Weingarten configurations of E[tr w] by their dim-free key,
    for reading at each of the given (dim, constants) points. The word is
    checked at every point; the points also decide parity pruning."""
    for dim, constants in points:
        _checked_atoms(word, dim, constants)
    L = len(word)
    # occurrence lists per unitary symbol
    unstarred: dict[str, list[int]] = {}
    starred: dict[str, list[int]] = {}
    for pos, a in enumerate(word):
        if isinstance(a, UnitaryAtom):
            (starred if a.star else unstarred).setdefault(a.symbol, []).append(
                pos)
    symbols = sorted(set(unstarred) | set(starred))
    for s in symbols:
        if len(unstarred.get(s, ())) != len(starred.get(s, ())):
            return Histogram((), {})  # phase invariance kills unbalanced words
    blocks = _block_symbols(word, unstarred)
    plain = [s for s in symbols if s not in blocks]
    block_syms = sorted(blocks)
    # An odd number of blocks around a D that is traceless at every point
    # has G = 0 on every cycle type, so the moment ends here.
    for s in block_syms:
        if len(unstarred[s]) % 2 and all(
                2 * constants[blocks[s]].r == dim for dim, constants in points):
            return Histogram((), {})
    n_configs = 1
    for s in block_syms:
        n_configs *= math.factorial(len(unstarred[s]))
    for s in plain:
        n_configs *= math.factorial(len(unstarred[s])) ** 2
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
    names = [a.name if isinstance(a, ConstantAtom) else None for a in word]
    block_choices = []
    inner: set[int] = set()
    for s in block_syms:
        P = unstarred[s]
        # left outer gap of block i -> right outer gap of block sigma(i)
        block_choices.append([
            (cycle_type(sigma), [(P[i], (P[si] + 3) % L)
                                 for i, si in enumerate(sigma)])
            for sigma in itertools.permutations(range(len(P)))])
        for p in P:
            inner.update(((p + 1) % L, (p + 2) % L))
    outer_gaps = [g for g in range(L) if g not in inner]
    # per plain symbol: each sigma with its rows gap P[i] -> gap
    # Q[sigma(i)] + 1, each tau^-1 with its columns gap Q[tau(i)] -> gap
    # P[i] + 1, and the cycle type of every permutation, for sigma tau^-1
    sigma_choices, tau_choices, classes = [], [], []
    for s in plain:
        P, Q = unstarred[s], starred[s]
        perms = list(itertools.permutations(range(len(P))))
        sigma_choices.append([(p, [(P[i], (Q[qi] + 1) % L)
                                   for i, qi in enumerate(p)]) for p in perms])
        tau_choices.append([(inverse(p), [(Q[ti], (P[i] + 1) % L)
                                          for i, ti in enumerate(p)])
                            for p in perms])
        classes.append({p: cycle_type(p) for p in perms})

    hist: dict[tuple, int] = {}
    for choice in itertools.product(*block_choices):
        for _, edges in choice:
            for a, b in edges:
                nxt[a] = b
        nus = tuple(nu for nu, _ in choice)
        for sigmas in itertools.product(*sigma_choices):
            for _, edges in sigmas:
                for a, b in edges:
                    nxt[a] = b
            for taus in itertools.product(*tau_choices):
                for _, edges in taus:
                    for a, b in edges:
                        nxt[a] = b
                mus = tuple(c[compose(sigma, tau_inv)] for c, (sigma, _),
                            (tau_inv, _) in zip(classes, sigmas, taus))
                key = (mus, nus, _loops(nxt, names, outer_gaps))
                hist[key] = hist.get(key, 0) + 1
    return Histogram(tuple(blocks[s] for s in block_syms), hist)


def _loops(nxt: list[int], names: list[str | None], gaps: list[int]) -> tuple:
    """The cycles of the successor map through the given gaps, each as the
    sorted tuple of the constant names at its gaps, sorted."""
    seen = [False] * len(nxt)
    loops = []
    for g in gaps:
        if seen[g]:
            continue
        loop = []
        while not seen[g]:
            seen[g] = True
            if names[g] is not None:
                loop.append(names[g])
            g = nxt[g]
        loops.append(tuple(sorted(loop)))
    return tuple(sorted(loops))


def read_histogram(hist: Histogram, dim: int,
                   constants: Mapping[str, SignatureMatrix] | None = None
                   ) -> Fraction:
    """E[tr w] at one of the points the histogram of w was built for: each
    key weighs prod Wg(mu_s, dim) prod G(nu_s, dim, r_s) times its loop
    values, and counts as often as its configurations; the sum is exact in
    integers."""
    rs = {name: m.r for name, m in (constants or {}).items()}
    loop_values: dict[tuple, int] = {}
    terms = []
    for (mus, nus, loops), n in hist.counts.items():
        weights = [weingarten(mu, dim) for mu in mus]
        weights += [block_weingarten(nu, dim, rs[name])
                    for name, nu in zip(hist.blocks, nus)]
        for loop in loops:
            if loop not in loop_values:
                loop_values[loop] = _loop_value(loop, dim, rs)
            n *= loop_values[loop]
        den = 1
        for x in weights:
            n *= x.numerator
            den *= x.denominator
        terms.append((n, den))
    return exact_sum(terms)


def _loop_value(loop: tuple[str, ...], dim: int, rs: Mapping[str, int]) -> int:
    """Sum over index values of the product of the signs of the loop's
    constants; a loop with no constants gives dim."""
    s = 0
    for i in range(dim):
        prod = 1
        for name in loop:
            if i >= rs[name]:
                prod = -prod
        s += prod
    return s


def exact_trace_moment(word: Sequence[Atom], dim: int,
                       constants: Mapping[str, SignatureMatrix] | None = None,
                       budget: int = DEFAULT_BUDGET) -> Fraction:
    """Exact value of E[tr w(U_1, ..., U_k, D_1, ...)] over independent Haar
    unitaries of size dim, with fixed signature-matrix constants: the
    word's histogram, read at (dim, constants)."""
    hist = weingarten_histogram(word, [(dim, constants)], budget)
    return read_histogram(hist, dim, constants)


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
                     samples: int = 10 ** 5, seed: int = 0,
                     budget: int = DEFAULT_BUDGET) -> list[tuple[float, float]]:
    """Monte Carlo (estimate, stderr) of tr w for several words sharing one
    Haar sample stream, drawn _MC_CHUNK unitaries per symbol at a time.
    Deterministic given the seed. The budget caps the complex entries held
    at once: min(samples, _MC_CHUNK) dim^2 per chunk array, for one array of
    samples per Haar symbol, the most prefix products the trie keeps at
    once, and _MC_SPARE arrays that a draw or a product holds on top."""
    if samples < 2:
        raise InputError("need samples >= 2")
    if seed < 0:
        raise InputError("seed must be >= 0")
    words = [_checked_atoms(w, dim, constants) for w in words]
    order = sorted(set(words))
    kept = _reused_depths(order)
    symbols = sorted({a[1] for w in order for a in w if a[0] == "u"})
    arrays = len(symbols) + max(map(len, kept), default=0) + _MC_SPARE
    entries = min(samples, _MC_CHUNK) * dim * dim * arrays
    if entries > budget:
        raise BudgetExceededError(
            f"Monte Carlo needs {entries} complex entries at once "
            f"({arrays} chunk arrays of dim^2 entries per sample; "
            f"budget {budget})")
    diags = {a: np.where(np.arange(dim) < a[2], 1.0, -1.0)
             for w in order for a in w if a[0] == "c"}
    rng = np.random.default_rng(seed)
    sums = np.zeros(len(order))
    sqsums = np.zeros(len(order))
    us = {}
    done = 0
    while done < samples:
        n = min(_MC_CHUNK, samples - done)
        us.clear()  # the last chunk's samples go before the next are drawn
        for s in symbols:
            us[s] = np.ascontiguousarray(
                haar_sample(rng, n, dim).transpose(1, 2, 0))
        eye = np.broadcast_to(np.eye(dim, dtype=complex)[:, :, None],
                              (dim, dim, n))
        traces = _mc_word_traces(order, kept, us, diags, eye)
        for wi, tr in enumerate(traces):
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


def _mc_word_traces(order: list[tuple], kept: list[set[int]], us: dict,
                    diags: dict, eye: np.ndarray):
    """Real part of tr w per sample of one chunk, for each word of order in
    turn, walking the words as a prefix trie; the stack holds the kept
    prefix products, and all of them are freed when the walk ends."""
    stack = []  # (depth, product of that prefix), depths increasing
    for w, keep in zip(order, kept):
        depth, acc = stack[-1] if stack else (0, None)
        stack = [e for e in stack if e[0] in keep]
        for k in range(depth, len(w) - 1):
            acc = _mc_times(acc, w[k], us, diags, eye)
            if k + 1 in keep:
                stack.append((k + 1, acc))
        yield _mc_trace(acc, w[-1], us, diags, eye)


def _mc_times(acc: np.ndarray | None, atom: tuple, us: dict, diags: dict,
              eye: np.ndarray) -> np.ndarray:
    """acc times one resolved atom, per sample, on (dim, dim, n) arrays with
    the sample axis last; None is the identity eye. A product is one einsum
    whose inner loop runs along the contiguous samples; it beats a stacked
    (n, dim, dim) matmul only up to about dim 5 (see the module docstring).
    A constant scales the columns of acc. A conjugate copy lives only until
    the return, so it never adds to the kept prefix products."""
    if atom[0] == "c":
        return (eye if acc is None else acc) * diags[atom][None, :, None]
    m = us[atom[1]]
    if not atom[2]:
        return m if acc is None else np.einsum("ikn,kjn->ijn", acc, m)
    if acc is None:
        return m.conj().transpose(1, 0, 2)
    return np.einsum("ikn,jkn->ijn", acc, m.conj())  # sum_k acc_ik conj(m_jk)


def _mc_trace(acc: np.ndarray | None, atom: tuple, us: dict, diags: dict,
              eye: np.ndarray) -> np.ndarray:
    """Real part of tr(acc atom), per sample, without forming the product;
    None is the identity eye. Viewed as floats, a (dim, dim, n) complex
    array is (dim, dim, 2n) with each sample's real and imaginary parts side
    by side along the contiguous last axis, so one real einsum over i, j
    gives both halves of the real part of the trace."""
    if atom[0] == "c":
        return np.einsum("iin,i->n", (eye if acc is None else acc).real,
                         diags[atom])
    m = us[atom[1]]
    if acc is None:  # Re tr m* = Re tr m
        return np.einsum("iin->n", m.real)
    if atom[2]:  # tr(acc m*) = sum_ij acc_ij conj(m_ij)
        x = np.einsum("ijx,ijx->x", acc.view(float), m.view(float))
        return x[0::2] + x[1::2]
    x = np.einsum("ijx,jix->x", acc.view(float), m.view(float))
    return x[0::2] - x[1::2]


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
                    samples: int = 10 ** 5, seed: int = 0,
                    budget: int = DEFAULT_BUDGET) -> tuple[float, float]:
    """Monte Carlo mean and standard error of tr w; see mc_trace_moments."""
    return mc_trace_moments([word], dim, constants, samples, seed, budget)[0]
