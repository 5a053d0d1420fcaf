"""Capture ``references.json`` from the current source tree.

    python3 bench/capture_references.py

Run from the repository root, only when a change is meant to alter exact
results. It runs each solve workload once at seed 0 in a fresh interpreter
and records every bound at full precision, each ``pencil_digest`` and the
``input_hash`` of ``--format machine``; for the Monte Carlo workload it
records the exact rational value of every word. The CHSH bounds are checked
against the published lambda = (0.146447, -0.016398) and
eta = (0, -0.066667) before anything is written.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads
from run import run_child

PUBLISHED_CHSH = {"lambda": (0.146447, -0.016398), "eta": (0.0, -0.066667)}


def solve_references(root: Path, workload: str) -> list[dict]:
    job = workloads.prepare(workload, 0, root, root)
    rep = run_child(root, job, traced=False, timeout=600, refs=None)
    if rep.failures:
        raise SystemExit(f"{workload}: {rep.failures}")
    refs = []
    for spec, out in zip(job["runs"], rep.outputs["runs"]):
        machine = out["machine"]
        ref = {"problem": spec["problem"], "hierarchy": spec["hierarchy"],
               "input_hash": machine["input_hash"]}
        for h, values in out["bounds"].items():
            ref[h] = [{"value": v, "pencil_digest": row[h]["pencil_digest"]}
                      for v, row in zip(values, machine["orders"])]
        refs.append(ref)
    return refs


def mc_references() -> dict:
    from ncupper.haar import exact_trace_moment
    from child import mc_constants, parse_atoms

    dim = workloads.MC_DIM
    constants = mc_constants(dim)
    exact = {}
    for kind, words in workloads.mc_word_sets().items():
        for w in words:
            exact[w] = str(exact_trace_moment(parse_atoms(w), dim,
                                              constants[kind]))
    return {"dim": dim, "exact": exact}


def check_published(chsh: dict):
    for h, published in PUBLISHED_CHSH.items():
        for d, want in enumerate(published, 1):
            got = chsh[h][d - 1]["value"]
            if abs(got - want) > 5e-7:
                raise SystemExit(f"chsh {h}_{d} = {got!r}, published {want}")


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    refs = {w: solve_references(root, w) for w in workloads.SOLVE_WORKLOADS}
    check_published(refs["chsh-o3"][0])
    refs[workloads.MC_WORKLOAD] = mc_references()
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
