"""Command line interface.

Subcommands:
  solve       run the lambda / eta hierarchies on a problem file
  weingarten  print the exact Weingarten table for given n, d
  mc-check    compare exact vs Monte Carlo trace moments for a word
  eval-state  evaluate the problem's state on a word

Every optional flag is declared once in OPTIONS and takes its default from
an NCUPPER_<NAME> environment variable (NCUPPER_ORDER for --order), parsed
the same way; explicit flags win, and a subcommand reads only the variables
of its own flags. A bad value of either exits 2 with one line. The required
flags, weingarten --n/--d and mc-check --dim, have no mirror and keep
argparse's own check. Exit codes: 0 success, 2 input error, 3 budget
exceeded, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from itertools import islice
from math import isqrt

from . import __version__
from .algebra import word_str
from .errors import BudgetExceededError, NCUpperError, InputError
from .haar import DEFAULT_BUDGET, exact_trace_moment, mc_trace_moment
from .hierarchy import DEFAULT_TOL, eta_sequence, lambda_sequence
from .problems import (HIERARCHIES, ProblemFile, parse_problem,
                       parse_word_tokens, serialize_problem)
from .states import Evaluator, evaluate_state, trace_atoms
from .symcomb import partitions_within, weingarten_table


# The most (mu, lambda) pairs, p(n)^2, of a weingarten table: n = 21 has
# 627,264 and took 7.6 s and 164 MB at d = 21 on a 2-core VM.
WEINGARTEN_PAIRS = 10 ** 6


class _TooSmall(ValueError):
    """A well-formed number below its flag's minimum."""


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise _TooSmall(f"must be >= {low}")
        return value
    return parse


def _one_of(*choices: str):
    def parse(text: str) -> str:
        if text not in choices:
            raise ValueError
        return text
    parse.metavar = "|".join(choices)
    return parse


def _dims_list(text: str) -> list[int]:
    dims = [int(t) for t in text.split(",") if t.strip()]
    if not dims:
        raise ValueError
    if min(dims) < 1:
        raise _TooSmall("must be >= 1")
    return dims


# Per subcommand: (name, parse, fallback) of each optional flag --<name>,
# whose NCUPPER_<NAME> variable goes through the same parse. Only the chosen
# subcommand's variables are read, so a bad variable that another subcommand
# reads does not stop this one.
_ORDER = ("order", _int_at_least(1), None)
_DIMS = ("dims", _dims_list, None)
_BUDGET = ("budget", _int_at_least(0), DEFAULT_BUDGET)
_SEED = ("seed", _int_at_least(0), 0)
OPTIONS = {
    "solve": (_ORDER, ("hierarchy", _one_of(*HIERARCHIES), None),
              _DIMS, ("tol", float, DEFAULT_TOL), _BUDGET, _SEED,
              ("out", str, None),
              ("format", _one_of("table", "machine"), "table")),
    "weingarten": (),
    "mc-check": (("samples", _int_at_least(2), 10 ** 5), _SEED, _BUDGET),
    "eval-state": (_ORDER, _DIMS, _BUDGET),
}


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="ncupper",
                                  description="Upper bound hierarchies for "
                                  "noncommutative eigenvalue minimization")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the hierarchies on a problem")
    solve.add_argument("problem")

    wg = sub.add_parser("weingarten", help="print the Weingarten table")
    wg.add_argument("--n", type=int, required=True)
    wg.add_argument("--d", type=int, required=True)

    mc = sub.add_parser("mc-check", help="exact vs Monte Carlo for a word")
    mc.add_argument("problem")
    mc.add_argument("word", help="word in problem syntax, e.g. 'b1 b2' or 'u1 u2*'")
    mc.add_argument("--dim", type=int, required=True)

    ev = sub.add_parser("eval-state", help="evaluate the state on a word")
    ev.add_argument("problem")
    ev.add_argument("word")

    # argparse only collects the text of an optional flag; _resolve parses it
    for command, parser in sub.choices.items():
        for name, parse, _ in OPTIONS[command]:
            parser.add_argument(f"--{name}",
                                metavar=getattr(parse, "metavar", None))
    return top


def _parsed(parse, raw: str, source: str):
    try:
        return parse(raw)
    except _TooSmall as e:
        raise InputError(f"{source} {e}") from None
    except ValueError:
        raise InputError(f"bad value for {source}: {raw!r}") from None


def _resolve(args) -> None:
    """Set each optional flag of the chosen subcommand to its parsed flag
    text, else its parsed NCUPPER_<NAME> text, else its fallback. Every set
    variable is parsed, also when its flag wins."""
    for name, parse, fallback in OPTIONS[args.command]:
        env = f"NCUPPER_{name.upper()}"
        values = [_parsed(parse, raw, source) for source, raw in
                  ((f"--{name}", getattr(args, name)),
                   (env, os.environ.get(env))) if raw is not None]
        setattr(args, name, values[0] if values else fallback)


def _sig6(x: float) -> str:
    return f"{x:.6g}"


def _input_hash(problem: ProblemFile, flags: dict) -> str:
    src = json.dumps({"problem": serialize_problem(problem), "flags": flags},
                     sort_keys=True)
    return hashlib.sha256(src.encode()).hexdigest()


def run_solve(args) -> dict:
    problem = parse_problem(args.problem)
    if args.out and (os.path.isdir(args.out) or not os.path.isdir(
            os.path.dirname(args.out) or ".")):
        raise InputError(f"--out {args.out} is a directory or lies in a "
                         f"missing one")
    hierarchy = args.hierarchy or problem.hierarchy
    d_max = args.order or max(problem.orders)
    family = problem.state_family(args.dims)
    ev = Evaluator(problem.algebra, args.budget)  # shared by lambda and eta
    lam_rep = eta_rep = None
    if hierarchy in ("lambda", "both"):
        lam_rep = lambda_sequence(problem.objective, ev, problem.subset,
                                  family, d_max, tol=args.tol)
    if hierarchy in ("eta", "both"):
        eta_rep = eta_sequence(problem.objective, ev, family, d_max,
                               tol=args.tol)

    flags = {"order": d_max, "hierarchy": hierarchy,
             "dims": args.dims, "tol": args.tol, "budget": args.budget,
             "seed": args.seed}
    record = {
        "tool": "ncupper",
        "version": __version__,
        "input_hash": _input_hash(problem, flags),
        "flags": flags,
        "orders": [],
    }
    timings = {}
    for d in range(1, d_max + 1):
        row: dict = {"d": d}
        t = 0.0
        for key, rep in (("lambda", lam_rep), ("eta", eta_rep)):
            if rep:
                rec = rep.orders[d - 1]
                row[key] = {
                    "value": _sig6(rec.pencil.lam),
                    "basis_size": rec.basis_size,
                    "rank_b": rec.pencil.rank_b,
                    "kernel_residual": _sig6(rec.pencil.kernel_residual),
                    "pencil_digest": rec.pencil_digest,
                }
                t += rec.wall_time
        timings[d] = t
        record["orders"].append(row)

    machine = json.dumps(record, sort_keys=True, indent=2) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(machine)
        except OSError as e:
            raise InputError(f"cannot write --out {args.out}: {e.strerror}"
                             ) from e
    if args.format == "machine":
        sys.stdout.write(machine)
    else:
        _print_table(record, timings)
    return record


def _print_table(record: dict, timings: dict):
    cols = ["order", "lambda", "eta", "time_s"]
    print("  ".join(f"{c:>10}" for c in cols))
    for row in record["orders"]:
        d = row["d"]
        lam = row.get("lambda", {}).get("value", "-")
        eta = row.get("eta", {}).get("value", "-")
        print("  ".join(f"{str(v):>10}" for v in
                        (d, lam, eta, f"{timings[d]:.2f}")))


def run_weingarten(args):
    if args.n < 1 or args.d < 1:
        raise InputError("need --n >= 1 and --d >= 1")
    # each of the p(n) rows sums up to p(n) characters; p(n)^2 > cap exactly
    # when p(n) > isqrt(cap), so at most isqrt(cap) + 1 partitions are listed
    listed = islice(partitions_within(args.n, args.n),
                    isqrt(WEINGARTEN_PAIRS) + 1)
    if sum(1 for _ in listed) ** 2 > WEINGARTEN_PAIRS:
        raise BudgetExceededError(
            f"the Weingarten table for --n {args.n} has more (mu, lambda) "
            f"pairs, p(n)^2, than the cap {WEINGARTEN_PAIRS}")
    for mu, wg in weingarten_table(args.n, args.d):
        print(f"{mu} -> {wg}")


def run_mc_check(args):
    problem = parse_problem(args.problem)
    word = parse_word_tokens(args.word, problem.algebra)
    if not word:
        raise InputError("mc-check needs a non-identity word")
    atoms, constants = trace_atoms(word, problem.algebra, args.dim)
    exact = exact_trace_moment(atoms, args.dim, constants, budget=args.budget)
    est, err = mc_trace_moment(atoms, args.dim, constants,
                               samples=args.samples, seed=args.seed,
                               budget=args.budget)
    dev = abs(float(exact) - est)
    sigmas = dev / err if err > 0 else (0.0 if dev == 0 else float("inf"))
    print(f"word       : {word_str(word)}")
    print(f"exact      : {exact} = {_sig6(float(exact))}")
    print(f"monte-carlo: {_sig6(est)} +- {_sig6(err)} "
          f"({args.samples} samples, seed {args.seed})")
    print(f"deviation  : {_sig6(dev)} ({_sig6(sigmas)} sigma)")


def run_eval_state(args):
    problem = parse_problem(args.problem)
    word = parse_word_tokens(args.word, problem.algebra)
    state = problem.state_family(args.dims)(args.order or max(problem.orders))
    value = evaluate_state(state, word, problem.algebra, budget=args.budget)
    print(f"{value} = {_sig6(float(value))}")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _resolve(args)
        {"solve": run_solve, "weingarten": run_weingarten,
         "mc-check": run_mc_check,
         "eval-state": run_eval_state}[args.command](args)
        return 0
    except NCUpperError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
