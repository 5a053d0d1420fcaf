"""The exact outputs the benchmark gates on, pinned in the test suite: each
solve run of the chsh-o3 and unitary-o3 workloads at order 3 on the bundled
problem files must reproduce ``bench/references.json`` (read only), so a
change to word handling or term order that moves ``input_hash``, a pencil
digest or a bound fails here and not only in the benchmark."""

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
