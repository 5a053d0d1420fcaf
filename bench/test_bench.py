"""Tests of the benchmark itself: output checks, tracer binding and count
repeatability.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import copy
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

import run
import workloads
from tracer import COUNT_MEASURES, Tracer

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def refs():
    return workloads.load_references()


def _solve_outputs(refs: list[dict]) -> dict:
    """Child outputs that match the references exactly."""
    runs = []
    for ref in refs:
        hierarchies = [h for h in ("lambda", "eta") if h in ref]
        orders = [{"d": d, **{h: {"pencil_digest":
                                  ref[h][d - 1]["pencil_digest"]}
                              for h in hierarchies}}
                  for d in range(1, len(ref[hierarchies[0]]) + 1)]
        runs.append({"machine": {"input_hash": ref["input_hash"],
                                 "orders": orders},
                     "bounds": {h: [o["value"] for o in ref[h]]
                                for h in hierarchies}})
    return {"runs": runs}


@pytest.mark.parametrize("workload", list(workloads.SOLVE_WORKLOADS))
def test_check_rejects_changed_bound_or_digest(workload, tmp_path, refs):
    job = workloads.prepare(workload, 0, ROOT, tmp_path)
    good = _solve_outputs(refs[workload])
    assert workloads.check(job, good, refs) == []

    bad = copy.deepcopy(good)
    bad["runs"][0]["bounds"]["lambda"][1] += 1e-8
    assert any("lambda_2" in f for f in workloads.check(job, bad, refs))

    bad = copy.deepcopy(good)
    bad["runs"][-1]["machine"]["orders"][2]["lambda"]["pencil_digest"] = "0"
    assert any("pencil_digest" in f for f in workloads.check(job, bad, refs))
    # digests depend on generator names and order, so only seed 0 checks them
    assert workloads.check(dict(job, seed=1), bad, refs) == []


def test_check_rejects_mc_mean_moved_by_6_sigma(refs):
    job = workloads.prepare(workloads.MC_WORKLOAD, 0, ROOT, ROOT)
    exact = refs[workloads.MC_WORKLOAD]["exact"]

    def outputs(shift_sigmas, moved_word):
        return {"estimates": {
            kind: [(float(Fraction(exact[w]))
                    + (shift_sigmas * 0.01 if w == moved_word else 0.0), 0.01)
                   for w in words]
            for kind, words in job["words"].items()}}

    word = job["words"]["signature"][7]
    assert workloads.check(job, outputs(4.9, word), refs) == []
    failures = workloads.check(job, outputs(6, word), refs)
    assert len(failures) == 1 and word in failures[0]


def test_chsh_references_match_published_bounds(refs):
    chsh = refs["chsh-o3"][0]
    assert [round(x["value"], 6) for x in chsh["lambda"][:2]] == [
        0.146447, -0.016398]
    assert [round(x["value"], 6) + 0.0 for x in chsh["eta"][:2]] == [
        0.0, -0.066667]


def test_tracer_counts_calls_through_reimported_names():
    import ncupper.algebra
    import ncupper.haar
    import ncupper.hierarchy
    import ncupper.states
    from ncupper.algebra import (AlgebraSpec, GeneratorSpec, Letter,
                                 NCPolynomial, Word)
    from ncupper.states import HaarTrace

    # generator names no other test uses, so the module caches are cold
    alg = AlgebraSpec((GeneratorSpec("bench_u", "unitary"),
                       GeneratorSpec("bench_v", "unitary")))
    u, v = Letter("bench_u"), Letter("bench_v")
    p = NCPolynomial.from_word(Word((u, v)))
    word = Word((u, v, Letter("bench_u", True), Letter("bench_v", True)))

    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        ncupper.hierarchy.multiply(p, p, alg)    # copy of algebra.multiply
        ncupper.states.evaluate_state(HaarTrace(3), word, alg)
        # evaluate_state reaches states.exact_trace_moment, a copy of
        # haar.exact_trace_moment, which reaches haar.weingarten
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    stats = tracer.report()
    # nested spans are not counted twice
    assert sum(v for k, v in stats.items() if k.endswith(".self_s")) <= wall
    assert stats["algebra.multiply.calls"] == 1
    assert stats["algebra.canonicalize.calls"] >= 2
    assert stats["states.evaluate_state.calls"] == 1
    assert stats["haar.exact_trace_moment.calls"] == 1
    assert stats["haar.exact_trace_moment.distinct"] == 1
    assert stats["symcomb.weingarten.calls"] > 0
    assert ncupper.hierarchy.multiply is ncupper.algebra.multiply
    assert not hasattr(ncupper.states.exact_trace_moment, "__wrapped__")


@pytest.fixture(scope="module")
def small_jobs(tmp_path_factory):
    """A chsh order-1 solve and a 200-sample Monte Carlo run on 20 words."""
    solve = workloads.prepare("chsh-o3", 0, ROOT,
                              tmp_path_factory.mktemp("jobs"))
    for spec in solve["runs"]:
        spec["order"] = 1
    mc = workloads.prepare(workloads.MC_WORKLOAD, 3, ROOT, ROOT)
    mc["samples"] = 200
    mc["words"] = {k: w[:10] for k, w in mc["words"].items()}
    return {"solve": solve, "mc": mc}


@pytest.mark.parametrize("kind", ["solve", "mc"])
def test_traced_counts_repeat_exactly(small_jobs, kind):
    reps = [run.run_child(ROOT, small_jobs[kind], True, 120, None)
            for _ in range(2)]
    assert [r.failures for r in reps] == [[], []]
    counts = [{k: v for k, v in r.trace.items()
               if k.rsplit(".", 1)[1] in COUNT_MEASURES} for r in reps]
    assert counts[0] == counts[1]
    if kind == "mc":
        assert counts[0]["haar.mc_trace_moments.word_samples"] == 200 * 20
    else:
        assert counts[0]["haar.exact_trace_moment.calls"] > 0
    # every metric the tracer reports is declared in BENCHMARK.json
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    assert declared == set(reps[0].trace) | {
        "trace.coverage", "trace.run_s", "trace.overhead_s"}
