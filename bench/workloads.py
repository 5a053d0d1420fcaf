"""Workload definitions, input generation and output checks.

A workload is a list of solve runs over bundled problems, or the Monte Carlo
oracle over fixed word lists. ``prepare`` turns a workload name and seed into
a job (plain JSON) that ``child.py`` executes in a fresh interpreter;
``check`` compares what the child reports against committed references.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

ORDER = 3
# (bundled problem, --hierarchy) per solve run, executed in this order in one
# process so later runs see the module caches the earlier ones left.
SOLVE_WORKLOADS = {
    "chsh-o3": [("chsh", "both")],
    "unitary-o3": [("free-unitaries", "both"),
                   ("commutator-example", "lambda")],
}
MC_WORKLOAD = "mc-oracle"
MC_DIM = 3
MC_SAMPLES = 10 ** 4
WORKLOADS = (*SOLVE_WORKLOADS, MC_WORKLOAD)

BOUND_TOL = 1e-9
MC_SIGMAS = 5
MC_SLACK = 1e-10

REFERENCES = Path(__file__).with_name("references.json")


def bundled_path(root: Path, name: str) -> Path:
    return root / "src" / "ncupper" / "problems" / f"{name}.problem"


def relabel(data: dict, rng: random.Random) -> dict:
    """Rename the generators and shuffle generator declarations, objective
    terms and the basis subset. The bounds are invariant under this."""
    gens = [dict(g) for g in data["algebra"]["generators"]]
    fresh = [f"x{i}" for i in range(len(gens))]
    rng.shuffle(fresh)
    names = {g["id"]: new for g, new in zip(gens, fresh)}
    for g in gens:
        g["id"] = names[g["id"]]
    rng.shuffle(gens)
    terms = [{"coefficient": t["coefficient"],
              "word": [dict(l, gen=names[l["gen"]]) for l in t["word"]]}
             for t in data["objective"]]
    rng.shuffle(terms)
    subset = [names[g] for g in data["subset"]]
    rng.shuffle(subset)
    return dict(data, algebra={"generators": gens}, objective=terms,
                subset=subset)


def mc_word_sets() -> dict[str, list[str]]:
    """Criterion 6's word sets: all two-unitary words of length <= 4 and the
    signature words (U D U*)... of length <= 4, as strings of atoms."""
    atoms = ("a", "a*", "b", "b*")
    unitary = [" ".join(w) for n in range(1, 5)
               for w in itertools.product(atoms, repeat=n)]
    signature = [" ".join(f"{s} D {s}*" for s in w) for n in range(1, 5)
                 for w in itertools.product("ab", repeat=n)]
    return {"unitary": unitary, "signature": signature}


def prepare(workload: str, seed: int, root: Path, workdir: Path) -> dict:
    """Job for one workload at one seed. Seed 0 uses the bundled files;
    other seeds write relabeled copies into workdir."""
    if workload == MC_WORKLOAD:
        return {"workload": workload, "dim": MC_DIM, "samples": MC_SAMPLES,
                "seed": seed, "words": mc_word_sets()}
    if workload not in SOLVE_WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    runs = []
    for name, hierarchy in SOLVE_WORKLOADS[workload]:
        path = bundled_path(root, name)
        if seed != 0:
            data = relabel(json.loads(path.read_text()),
                           random.Random(f"{name}/{seed}"))
            path = workdir / f"{name}.problem"
            path.write_text(json.dumps(data, indent=1))
        runs.append({"problem": name, "path": str(path), "order": ORDER,
                     "hierarchy": hierarchy})
    return {"workload": workload, "seed": seed, "runs": runs}


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def check(job: dict, outputs: dict, refs: dict) -> list[str]:
    """Failed checks of one child's outputs against the references: bounds
    within BOUND_TOL at every seed, digests and input hashes byte-equal at
    seed 0, Monte Carlo means within 5 sigma + 1e-10 of the exact values."""
    if job["workload"] == MC_WORKLOAD:
        return _check_mc(job, outputs, refs[MC_WORKLOAD])
    return _check_solve(job, outputs, refs[job["workload"]])


def _check_solve(job, outputs, refs) -> list[str]:
    failures = []
    if len(outputs["runs"]) != len(refs):
        return [f"expected {len(refs)} solve runs, got {len(outputs['runs'])}"]
    for spec, out, ref in zip(job["runs"], outputs["runs"], refs):
        tag = f"{spec['problem']} --hierarchy {spec['hierarchy']}"
        for h in ("lambda", "eta"):
            got, want = out["bounds"].get(h, []), ref.get(h, [])
            if len(got) != len(want):
                failures.append(f"{tag}: {len(got)} {h} orders, "
                                f"expected {len(want)}")
                continue
            for d, (g, w) in enumerate(zip(got, want), 1):
                if not abs(g - w["value"]) <= BOUND_TOL:
                    failures.append(f"{tag}: {h}_{d} = {g!r}, "
                                    f"expected {w['value']!r}")
        if job["seed"] != 0:
            continue
        machine = out["machine"]
        if machine["input_hash"] != ref["input_hash"]:
            failures.append(f"{tag}: input_hash changed")
        for row in machine["orders"]:
            for h in ("lambda", "eta"):
                if h not in row:
                    continue
                want = ref[h][row["d"] - 1]["pencil_digest"]
                if row[h]["pencil_digest"] != want:
                    failures.append(f"{tag}: {h}_{row['d']} pencil_digest "
                                    f"{row[h]['pencil_digest']} != {want}")
    return failures


def _check_mc(job, outputs, refs) -> list[str]:
    failures = []
    if refs["dim"] != job["dim"]:
        return [f"references are for dim {refs['dim']}, job uses {job['dim']}"]
    for kind, words in job["words"].items():
        estimates = outputs["estimates"][kind]
        if len(estimates) != len(words):
            failures.append(f"{kind}: {len(estimates)} estimates for "
                            f"{len(words)} words")
            continue
        for word, (mean, stderr) in zip(words, estimates):
            exact = float(Fraction(refs["exact"][word]))
            dev = abs(mean - exact)
            if not dev <= MC_SIGMAS * stderr + MC_SLACK:
                sigmas = dev / stderr if stderr > 0 else math.inf
                failures.append(f"tr({word}) = {mean!r} +- {stderr!r}, exact "
                                f"{exact!r} ({sigmas:.2f} sigma)")
    return failures
