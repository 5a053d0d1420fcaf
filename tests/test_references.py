"""The exact outputs the benchmark gates on, pinned in the test suite: each
solve run of the chsh-o3 and unitary-o3 workloads at order 3 on the bundled
problem files must reproduce ``bench/references.json`` (read only), so a
change to word handling or term order that moves ``input_hash``, a pencil
digest or a bound fails here and not only in the benchmark. The row shape,
each pencil's basis size and rank of B and the hierarchies a row carries,
is pinned here too."""

import hashlib
import json
from pathlib import Path

import pytest

from ncupper import cli
from ncupper.problems import bundled_problem_path

REFERENCES = json.loads((Path(__file__).resolve().parents[1] / "bench"
                         / "references.json").read_text())
ORDER = 3
BOUND_TOL = 1e-9
RUNS = [(workload, ref) for workload in ("chsh-o3", "unitary-o3")
        for ref in REFERENCES[workload]]
# (basis_size, rank_b) of each order's pencil, per problem and hierarchy
SHAPES = {
    "chsh": {"lambda": [(5, 5), (13, 13), (25, 25)],
             "eta": [(2, 2), (3, 3), (4, 4)]},
    "free-unitaries": {"lambda": [(5, 5), (17, 17), (53, 53)],
                       "eta": [(2, 2), (3, 3), (4, 4)]},
    "commutator-example": {"lambda": [(5, 5), (17, 17), (53, 53)]},
}


@pytest.mark.parametrize("workload, ref", RUNS, ids=[
    f"{w}-{ref['problem']}-{ref['hierarchy']}" for w, ref in RUNS])
def test_solve_matches_bench_references(capsys, monkeypatch, workload, ref):
    bounds = {}

    def capture(hierarchy, attr, fn):  # the unrounded bounds of each order
        def hook(*args, **kwargs):
            report = fn(*args, **kwargs)
            bounds[hierarchy] = [getattr(r, attr) for r in report.orders]
            return report
        return hook

    monkeypatch.setattr(cli, "lambda_sequence",
                        capture("lambda", "lam", cli.lambda_sequence))
    monkeypatch.setattr(cli, "eta_sequence",
                        capture("eta", "eta", cli.eta_sequence))
    assert cli.main(["solve", str(bundled_problem_path(ref["problem"])),
                     "--order", str(ORDER), "--hierarchy", ref["hierarchy"],
                     "--format", "machine"]) == 0
    machine = json.loads(capsys.readouterr().out)
    assert machine["input_hash"] == ref["input_hash"]
    for h in ("lambda", "eta"):
        want = ref.get(h, [])
        assert [row[h]["pencil_digest"] for row in machine["orders"]
                if h in row] == [w["pencil_digest"] for w in want]
        assert bounds.get(h, []) == pytest.approx(
            [w["value"] for w in want], rel=0, abs=BOUND_TOL)
    shapes = SHAPES[ref["problem"]]
    assert [set(row) for row in machine["orders"]] == [{"d", *shapes}] * ORDER
    for h, want in shapes.items():
        assert [(row[h]["basis_size"], row[h]["rank_b"])
                for row in machine["orders"]] == want


def test_eta_run_rows_carry_only_eta(capsys):
    assert cli.main(["solve", str(bundled_problem_path("chsh")),
                     "--order", "2", "--hierarchy", "eta",
                     "--format", "machine"]) == 0
    rows = json.loads(capsys.readouterr().out)["orders"]
    assert [set(row) for row in rows] == [{"d", "eta"}] * 2
    assert [(row["eta"]["basis_size"], row["eta"]["rank_b"])
            for row in rows] == SHAPES["chsh"]["eta"][:2]


# Exit code and sha256 of the --format machine stdout of every bundled
# problem under each --hierarchy at --order 3, recorded before charge grading
# skipped the words whose unitary charge is not zero. commutator-example's
# eta and both runs exit 3 on the Weingarten budget, with no stdout.
GOLDEN = json.loads(Path(__file__).with_name(
    "solve_order3_machine.json").read_text())
GOLDEN_RUNS = [(p, h) for p in sorted(GOLDEN) for h in sorted(GOLDEN[p])]


@pytest.mark.parametrize("problem, hierarchy", GOLDEN_RUNS,
                         ids=[f"{p}-{h}" for p, h in GOLDEN_RUNS])
def test_solve_order3_machine_output_is_pinned(capsys, problem, hierarchy):
    code = cli.main(["solve", str(bundled_problem_path(problem)),
                     "--order", str(ORDER), "--hierarchy", hierarchy,
                     "--format", "machine"])
    out = capsys.readouterr().out
    assert {"exit": code, "stdout_sha256": hashlib.sha256(
        out.encode()).hexdigest()} == GOLDEN[problem][hierarchy]
