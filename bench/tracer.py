"""Outside-in per-layer tracer for ncupper.

The tracer wraps public functions of the package from outside: it replaces
every module attribute that is bound to a traced function, because
``from .x import y`` copies the name into the importing module and patching
only the defining module would miss those calls. A span stack gives each
layer its self time (its wall time minus the time of traced calls nested
inside it), so recursion through ``evaluate_state`` is counted once.

Statistics are aggregated in memory per layer and read out once at the end
of a run with ``Tracer.report``; nothing is written while the run is timed.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

# (module, function, extra counters). An extra counter is
# (measure name, function(args getter, result) -> int added per call).
LAYERS = [
    ("haar", "exact_trace_moment", ()),
    ("symcomb", "weingarten", ()),
    ("states", "evaluate_state", ()),
    ("states", "evaluate_poly",
     (("terms", lambda arg, result: len(arg("p").terms)),)),
    ("algebra", "canonicalize", ()),
    ("algebra", "multiply", ()),
    ("algebra", "words_up_to",
     (("words", lambda arg, result: len(result)),)),
    ("hierarchy", "moment_matrix",
     # upper-triangle entries evaluated: n(n+1)/2 for an n-word basis
     (("entries", lambda arg, result: len(result.basis)
       * (len(result.basis) + 1) // 2),)),
    ("hierarchy", "scalar_moments", ()),
    ("hierarchy", "max_shift", ()),
    ("hierarchy", "lambda_sequence", ()),
    ("hierarchy", "eta_sequence", ()),
    ("haar", "mc_trace_moments",
     (("word_samples", lambda arg, result: len(arg("words"))
       * arg("samples")),)),
    ("haar", "haar_sample", ()),
    ("problems", "parse_problem", ()),
    ("cli", "run_solve", ()),
]

# Measures that count work rather than time; each must repeat exactly
# between runs of one input.
COUNT_MEASURES = ("calls", "distinct") + tuple(
    m for _, _, extra in LAYERS for m, _ in extra)


def _arg_getter(fn):
    """Return a function (args, kwargs) -> (name -> value) that reads one
    argument of fn by name, falling back to its declared default."""
    params = list(inspect.signature(fn).parameters.values())
    index = {p.name: i for i, p in enumerate(params)}
    default = {p.name: p.default for p in params}

    def getter(args, kwargs):
        def arg(name):
            if name in kwargs:
                return kwargs[name]
            i = index[name]
            return args[i] if i < len(args) else default[name]
        return arg

    return getter


def _moment_class(word, dim, constants) -> tuple:
    """Key of the moment E[tr w] up to trace cyclicity and adjoint symmetry
    (the constants are real diagonal, so tr w* = tr w): the smallest
    rotation of the word or of its adjoint."""
    constants = constants or {}
    atoms = tuple((0, a.symbol, a.star) if hasattr(a, "symbol")
                  else (1, repr(constants[a.name])) for a in word)
    adjoint = tuple((0, a[1], not a[2]) if a[0] == 0 else a
                    for a in reversed(atoms))
    return (dim, min(t[i:] + t[:i] for t in (atoms, adjoint)
                     for i in range(len(t))))


class Tracer:
    """Per-layer calls, self time and extra counters of one process."""

    def __init__(self):
        self.stats: dict[str, dict[str, float]] = {}
        self._stack: list[float] = []  # child time of each open span
        self._moments: list = []  # argument reader of each moment call
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, extra):
        stats = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0})
        for measure, _ in extra:
            stats[measure] = 0
        stack = self._stack
        moments = self._moments if name == "haar.exact_trace_moment" else None
        getter = _arg_getter(fn) if extra or moments is not None else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stats["self_s"] += dt - stack.pop()
                stats["calls"] += 1
                if stack:
                    stack[-1] += dt
            if getter is not None:
                arg = getter(args, kwargs)
                for measure, count in extra:
                    stats[measure] += count(arg, result)
                if moments is not None:
                    # keyed in report(), so that work lands in no span
                    moments.append(arg)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Patch every binding site of every traced function."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod, _, _ in LAYERS:
            importlib.import_module(f"ncupper.{mod}")
        sites = [m for n, m in list(sys.modules.items())
                 if m is not None and (n == "ncupper"
                                       or n.startswith("ncupper."))]
        for mod, func, extra in LAYERS:
            orig = getattr(sys.modules[f"ncupper.{mod}"], func)
            wrapper = self._wrap(f"{mod}.{func}", orig, extra)
            for site in sites:
                for attr, value in list(vars(site).items()):
                    if value is orig:
                        self._patches.append((site, attr, orig))
                        setattr(site, attr, wrapper)

    def uninstall(self):
        """Restore every patched binding."""
        for site, attr, orig in reversed(self._patches):
            setattr(site, attr, orig)
        self._patches.clear()

    def report(self) -> dict[str, float]:
        """Flat ``<module>.<function>.<measure>`` -> value."""
        out = {}
        for name, stats in self.stats.items():
            for measure, value in stats.items():
                out[f"{name}.{measure}"] = value
        out["haar.exact_trace_moment.distinct"] = len({
            _moment_class(arg("word"), arg("dim"), arg("constants"))
            for arg in self._moments})
        return out
