"""Command line interface.

Subcommands:
  solve       run the lambda / eta hierarchies on a problem file
  weingarten  print the exact Weingarten table for given n, d
  mc-check    compare exact vs Monte Carlo trace moments for a word
  eval-state  evaluate the problem's state on a word

Every optional flag takes its default from an NCUPPER_<NAME> environment
variable (NCUPPER_ORDER for --order); explicit flags win, and a subcommand
reads only the variables of its own flags. The required flags,
weingarten --n/--d and mc-check --dim, have no mirror. Exit codes: 0 success,
2 input error, 3 budget exceeded, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from . import __version__
from .algebra import word_str
from .errors import NCUpperError, InputError
from .haar import DEFAULT_BUDGET, exact_trace_moment, mc_trace_moment
from .hierarchy import DEFAULT_TOL, eta_sequence, lambda_sequence
from .problems import (ProblemFile, parse_problem, parse_word_tokens,
                       serialize_problem)
from .states import evaluate_state, trace_atoms
from .symcomb import partitions, weingarten


def _env_default(name: str, cast, fallback=None):
    raw = os.environ.get(f"NCUPPER_{name}")
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError:
        raise InputError(f"bad value for NCUPPER_{name}: {raw!r}") from None


def _dims_list(text: str) -> list[int]:
    try:
        dims = [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        dims = []
    if not dims or min(dims) < 1:
        raise InputError(f"bad dims list {text!r}")
    return dims


# Per subcommand: (flag dest, cast, fallback) of each NCUPPER_<DEST> mirror.
# Only the chosen subcommand's variables are read, after parsing, so a bad
# variable that another subcommand reads does not stop this one.
_ENV_FLAGS = {
    "solve": (("order", int, None), ("hierarchy", str, None),
              ("dims", _dims_list, None), ("tol", float, DEFAULT_TOL),
              ("budget", int, DEFAULT_BUDGET), ("seed", int, 0),
              ("out", str, None), ("format", str, "table")),
    "weingarten": (),
    "mc-check": (("samples", int, 10 ** 5), ("seed", int, 0),
                 ("budget", int, DEFAULT_BUDGET)),
    "eval-state": (("order", int, None), ("dims", _dims_list, None),
                   ("budget", int, DEFAULT_BUDGET)),
}


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="ncupper",
                                  description="Upper bound hierarchies for "
                                  "noncommutative eigenvalue minimization")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the hierarchies on a problem")
    solve.add_argument("problem")
    solve.add_argument("--order", type=int)
    solve.add_argument("--hierarchy", choices=("lambda", "eta", "both"))
    solve.add_argument("--dims", type=_dims_list)
    solve.add_argument("--tol", type=float)
    solve.add_argument("--budget", type=int)
    solve.add_argument("--seed", type=int)
    solve.add_argument("--out")
    solve.add_argument("--format", choices=("table", "machine"))

    wg = sub.add_parser("weingarten", help="print the Weingarten table")
    wg.add_argument("--n", type=int, required=True)
    wg.add_argument("--d", type=int, required=True)

    mc = sub.add_parser("mc-check", help="exact vs Monte Carlo for a word")
    mc.add_argument("problem")
    mc.add_argument("word", help="word in problem syntax, e.g. 'b1 b2' or 'u1 u2*'")
    mc.add_argument("--dim", type=int, required=True)
    mc.add_argument("--samples", type=int)
    mc.add_argument("--seed", type=int)
    mc.add_argument("--budget", type=int)

    ev = sub.add_parser("eval-state", help="evaluate the state on a word")
    ev.add_argument("problem")
    ev.add_argument("word")
    ev.add_argument("--order", type=int)
    ev.add_argument("--dims", type=_dims_list)
    ev.add_argument("--budget", type=int)
    return top


def _apply_env(args) -> None:
    """Fill each flag of the chosen subcommand that was not given from its
    NCUPPER_* variable, else its fallback; every set variable is parsed."""
    for dest, cast, fallback in _ENV_FLAGS[args.command]:
        value = _env_default(dest.upper(), cast, fallback)
        if getattr(args, dest) is None:
            setattr(args, dest, value)


def _sig6(x: float) -> str:
    return f"{x:.6g}"


def _input_hash(problem: ProblemFile, flags: dict) -> str:
    src = json.dumps({"problem": serialize_problem(problem), "flags": flags},
                     sort_keys=True)
    return hashlib.sha256(src.encode()).hexdigest()


def _order(args, problem: ProblemFile) -> int:
    """--order (or NCUPPER_ORDER) if given, else the problem's top order."""
    d = max(problem.orders) if args.order is None else args.order
    if d < 1:
        raise InputError("--order must be >= 1")
    return d


def run_solve(args) -> dict:
    problem = parse_problem(args.problem)
    hierarchy = args.hierarchy or problem.hierarchy
    d_max = _order(args, problem)
    family = problem.state_family(args.dims)
    lam_rep = eta_rep = None
    if hierarchy in ("lambda", "both"):
        lam_rep = lambda_sequence(problem.objective, problem.algebra,
                                  problem.subset, family, d_max,
                                  tol=args.tol, budget=args.budget)
    if hierarchy in ("eta", "both"):
        eta_rep = eta_sequence(problem.objective, problem.algebra, family,
                               d_max, tol=args.tol, budget=args.budget)

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
        if lam_rep:
            rec = lam_rep.orders[d - 1]
            row["lambda"] = {
                "value": _sig6(rec.lam),
                "basis_size": rec.basis_size,
                "rank_b": rec.lam_report.rank_b,
                "kernel_residual": _sig6(rec.lam_report.kernel_residual),
                "pencil_digest": rec.pencil_digest,
            }
            t += rec.wall_time
        if eta_rep:
            rec = eta_rep.orders[d - 1]
            row["eta"] = {
                "value": _sig6(rec.eta),
                "basis_size": rec.basis_size,
                "rank_b": rec.eta_report.rank_b,
                "kernel_residual": _sig6(rec.eta_report.kernel_residual),
                "pencil_digest": rec.pencil_digest,
            }
            t += rec.wall_time
        timings[d] = t
        record["orders"].append(row)

    machine = json.dumps(record, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(machine)
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
    for mu in partitions(args.n):
        print(f"{mu} -> {weingarten(mu, args.d)}")


def run_mc_check(args):
    problem = parse_problem(args.problem)
    word = parse_word_tokens(args.word, problem.algebra)
    if not word:
        raise InputError("mc-check needs a non-identity word")
    atoms, constants = trace_atoms(word, problem.algebra, args.dim)
    exact = exact_trace_moment(atoms, args.dim, constants, budget=args.budget)
    est, err = mc_trace_moment(atoms, args.dim, constants,
                               samples=args.samples, seed=args.seed)
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
    d = _order(args, problem)
    state = problem.state_family(args.dims)(d)
    value = evaluate_state(state, word, problem.algebra, budget=args.budget)
    print(f"{value} = {_sig6(float(value))}")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _apply_env(args)
        if getattr(args, "budget", 0) < 0:
            raise InputError(f"--budget must be >= 0, got {args.budget}")
        if args.command == "solve":
            run_solve(args)
        elif args.command == "weingarten":
            run_weingarten(args)
        elif args.command == "mc-check":
            run_mc_check(args)
        elif args.command == "eval-state":
            run_eval_state(args)
        return 0
    except NCUpperError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
