"""Problem files: parsing, validation, serialization, bundled examples.

A problem file is JSON with rational coefficients as "p/q" strings:

    {
      "algebra": {"generators": [{"id": "b1", "kind": "hermitian-unitary",
                                  "factor": 0}, ...]},
      "objective": [{"coefficient": "-1/4",
                     "word": [{"gen": "b1"}, {"gen": "c1", "star": false}]},
                    ...],
      "state": {"kind": "haar-increasing", "dims": [1, 2]},
      "orders": [1, 2],
      "hierarchy": "both",
      "subset": ["b1", "b2", "c1", "c2"]
    }

State kinds: "canonical-trace", "haar" (fixed dims), "haar-sequence"
(plain per-order Haar state at dims[d-1], default dim d), "haar-increasing"
(order-dependent geometric combination of Haar states at dims[:d]),
"combination", "tensor", "free-product". Haar states on multi-factor
algebras are applied per tensor factor and tensored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Callable

from .algebra import (AlgebraSpec, GeneratorSpec, Letter, NCPolynomial, Word,
                      as_fraction, canonicalize, is_self_adjoint, word_str)
from .errors import InputError
from .states import (CanonicalTrace, Combination, FreeProductState, HaarTrace,
                     StateSpec, TensorProductState, make_increasing)

HIERARCHIES = ("lambda", "eta", "both")


@dataclass
class ProblemFile:
    algebra: AlgebraSpec
    objective: NCPolynomial
    state_decl: dict
    orders: list[int]
    hierarchy: str
    subset: list[str]

    def state_family(self, dims_override: list[int] | None = None
                     ) -> Callable[[int], StateSpec]:
        return build_state_family(self.state_decl, self.algebra, dims_override)


def parse_word_tokens(text: str, algebra: AlgebraSpec) -> Word:
    """Parse a word like 'b1 c1* b2' (token per letter, trailing * = adjoint).
    '1' or the empty string is the unit."""
    tokens = text.split()
    if tokens == ["1"]:
        tokens = []
    letters = []
    for t in tokens:
        starred = t.endswith("*")
        gid = t[:-1] if starred else t
        algebra.generator(gid)  # raises on unknown id
        letters.append(Letter(gid, starred))
    return canonicalize(tuple(letters), algebra)


def _parse_objective(entries, algebra: AlgebraSpec) -> NCPolynomial:
    p = NCPolynomial.zero()
    for t in entries:
        try:
            coeff = as_fraction(t["coefficient"])
            letters = tuple(Letter(l["gen"], bool(l.get("star", False)))
                            for l in t["word"])
        except (KeyError, TypeError) as e:
            raise InputError(f"malformed objective term {t!r}") from e
        w = canonicalize(letters, algebra)
        p = p + NCPolynomial.from_word(w, coeff)
    return p


def _integer(value, field: str) -> int:
    """A JSON integer as is; int() would truncate 2.5 and coerce "2" and
    true, so a float, a string or a bool raises InputError."""
    if type(value) is not int:
        raise InputError(f"{field} takes integers only, not {value!r}")
    return value


def _parse_algebra(obj) -> AlgebraSpec:
    try:
        gens = tuple(GeneratorSpec(g["id"], g["kind"],
                                   _integer(g.get("factor", 0), "factor"))
                     for g in obj["generators"])
    except (KeyError, TypeError) as e:
        raise InputError("malformed algebra declaration") from e
    return AlgebraSpec(gens)


# Fields that hold a JSON list wherever they appear; a string or an object
# in their place would otherwise be iterated as a sequence of characters or
# keys.
_LIST_FIELDS = frozenset({"orders", "subset", "dims", "generators", "terms",
                          "components", "objective", "word"})


def parse_problem_dict(data: dict) -> ProblemFile:
    """Validate and parse a decoded problem file. Every malformed field,
    whatever its type or value, raises InputError."""
    _require_lists(data)
    try:
        return _parse_problem_fields(data)
    except (LookupError, TypeError, ValueError, AttributeError,
            ArithmeticError) as e:
        raise InputError(
            f"malformed problem file ({type(e).__name__}: {e})") from e


def _require_lists(node):
    if isinstance(node, dict):
        for key, value in node.items():
            if key in _LIST_FIELDS and not isinstance(value, list):
                raise InputError(f"{key!r} must be a JSON list, "
                                 f"not {type(value).__name__}")
            _require_lists(value)
    elif isinstance(node, list):
        for value in node:
            _require_lists(value)


def _parse_problem_fields(data: dict) -> ProblemFile:
    if not isinstance(data, dict):
        raise InputError("problem file must hold a JSON object")
    for field in ("algebra", "objective"):
        if field not in data:
            raise InputError(f"problem file misses {field!r}")
    algebra = _parse_algebra(data["algebra"])
    objective = _parse_objective(data["objective"], algebra)
    if not is_self_adjoint(objective, algebra):
        raise InputError("objective must satisfy f = f*")
    state_decl = data.get("state", {"kind": "haar-increasing"})
    build_state_family(state_decl, algebra)  # raises on a malformed state
    orders = sorted(_integer(d, "orders") for d in data.get("orders", [1]))
    if not orders or orders[0] < 1:
        raise InputError("orders must be positive integers")
    hierarchy = data.get("hierarchy", "both")
    if hierarchy not in HIERARCHIES:
        raise InputError(f"hierarchy must be one of {HIERARCHIES}")
    subset = list(data.get("subset", [g.id for g in algebra.generators]))
    for gid in subset:
        algebra.generator(gid)
    return ProblemFile(algebra, objective, state_decl, orders, hierarchy,
                       subset)


def parse_problem(path: str | Path) -> ProblemFile:
    path = Path(path)
    if not path.exists():
        raise InputError(f"no such problem file: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"cannot read problem file {path}: {e}") from e
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"problem file {path} is not valid JSON: {e}") from e
    return parse_problem_dict(data)


def serialize_problem(problem: ProblemFile) -> dict:
    """Round-trippable dict form (rationals as 'p/q' strings)."""
    terms = []
    for w, c in sorted(problem.objective.terms.items(),
                       key=lambda kv: word_str(kv[0])):
        terms.append({
            "coefficient": str(c),
            "word": [{"gen": l.gen, "star": l.star} for l in w],
        })
    return {
        "algebra": {"generators": [
            {"id": g.id, "kind": g.kind, "factor": g.factor}
            for g in problem.algebra.generators]},
        "objective": terms,
        "state": problem.state_decl,
        "orders": problem.orders,
        "hierarchy": problem.hierarchy,
        "subset": problem.subset,
    }


# --- state declarations ----------------------------------------------------

def _tensored_per_factor(state: StateSpec, algebra: AlgebraSpec) -> StateSpec:
    tags = algebra.factor_tags
    if len(tags) <= 1:
        return state
    return TensorProductState(tuple((t, state) for t in tags))


def _parse_fixed_state(decl: dict, algebra: AlgebraSpec) -> StateSpec:
    kind = decl.get("kind")
    if kind == "canonical-trace":
        return CanonicalTrace()
    if kind == "haar":
        states = [HaarTrace(_integer(x, "dims"))
                  for x in decl.get("dims", [1])]
        psi = states[0] if len(states) == 1 else make_increasing(states)[-1]
        return _tensored_per_factor(psi, algebra)
    if kind == "combination":
        terms = tuple((as_fraction(t["weight"]),
                       _parse_fixed_state(t["state"], algebra))
                      for t in decl["terms"])
        return Combination(terms)
    if kind == "tensor":
        factors = tuple(sorted(
            (int(tag), _parse_fixed_state(s, algebra))
            for tag, s in decl["factors"].items()))
        return TensorProductState(factors)
    if kind == "free-product":
        comps = tuple((frozenset(c["generators"]),
                       _parse_fixed_state(c["state"], algebra))
                      for c in decl["components"])
        return FreeProductState(comps)
    raise InputError(f"unknown state kind {kind!r}")


def build_state_family(decl: dict, algebra: AlgebraSpec,
                       dims_override: list[int] | None = None
                       ) -> Callable[[int], StateSpec]:
    """Order-indexed state family d -> psi_d.

    Two kinds depend on the order: 'haar-increasing' takes the geometric
    combination of HaarTrace states at dims[:d] (default dims 1..d), and
    'haar-sequence' the HaarTrace at dims[d-1] (default dim d); both are
    applied per tensor factor and tensored. All other kinds are constant
    families.
    """
    if not isinstance(decl, dict) or "kind" not in decl:
        raise InputError("state declaration must be an object with a 'kind'")
    kind = decl["kind"]
    if kind in ("haar-increasing", "haar-sequence"):
        dims = dims_override or decl.get("dims")
        if dims is not None:
            dims = [_integer(x, "dims") for x in dims]
            if not dims or min(dims) < 1:
                raise InputError(f"{kind} dims must be positive")

        def family(d: int) -> StateSpec:
            if kind == "haar-sequence":
                psi = HaarTrace(dims[min(d, len(dims)) - 1] if dims else d)
            else:
                pool = dims[:d] if dims else range(1, d + 1)
                psi = make_increasing([HaarTrace(x) for x in pool])[-1]
            return _tensored_per_factor(psi, algebra)

        return family
    if dims_override:
        if kind != "haar":
            raise InputError("--dims only applies to haar, haar-sequence and "
                             "haar-increasing states")
        decl = dict(decl, dims=list(dims_override))
    fixed = _parse_fixed_state(decl, algebra)
    return lambda d: fixed


def bundled_problem_path(name: str) -> Path:
    """Path to a bundled example problem ('chsh', 'reflection', ...)."""
    fname = name if name.endswith(".problem") else f"{name}.problem"
    ref = resources.files("ncupper") / "problems" / fname
    with resources.as_file(ref) as p:
        return Path(p)
