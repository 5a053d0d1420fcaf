"""ncupper benchmark: one workload, one seed, checked outputs.

    python3 bench/run.py --workload chsh-o3 --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout. Repetitions of the workload run one
at a time, each in a fresh child interpreter (as ``ncupper solve`` pays cold
module caches on every invocation), until ``--seconds`` have passed. Every
repetition's outputs are checked against ``references.json``.

With ``--trace 0`` the last line reports the end-to-end metrics (medians over
repetitions); with ``--trace 1`` untraced and traced repetitions alternate
and it reports the per-layer metrics of the traced ones. Earlier lines are a
human-readable summary; failed checks go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import workloads
from tracer import COUNT_MEASURES

BENCH = Path(__file__).resolve().parent
MIN_REPS = 3          # repetitions per run even when --seconds is short
DEADLINE_S = 170      # a run must end within 180 s
COVERAGE_TOL = 0.05   # per-layer self times must sum to traced run_s +- 5%
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}


class Rep:
    """One child run: its timings, trace and failed checks."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.failures: list[str] = []
        self.setup_s = self.run_s = self.rss_mb = None
        self.trace: dict | None = None
        self.outputs: dict | None = None


def run_child(root: Path, job: dict, traced: bool, timeout: float,
              refs: dict | None) -> Rep:
    """Run the job once in a fresh interpreter; check its outputs against
    refs unless refs is None."""
    rep = Rep(traced)
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **CHILD_ENV)
    payload = json.dumps(dict(job, root=str(root), trace=traced))
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(BENCH / "child.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=root,
                            env=env)
    try:
        out, err = proc.communicate(payload, timeout=timeout)
    except subprocess.TimeoutExpired:
        rep.failures.append(f"timed out after {timeout:.0f} s")
        return rep
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or ["(no stderr)"]
        rep.failures.append(f"child exited {proc.returncode}: {tail[0]}")
        return rep
    record = json.loads(out.strip().splitlines()[-1])
    rep.setup_s = record["setup_end"] - t0
    rep.run_s = record["end"] - record["setup_end"]
    rep.rss_mb = record["rss_kb"] / 1024
    rep.trace = record["trace"]
    rep.outputs = record["outputs"]
    if refs is not None:
        rep.failures += workloads.check(job, rep.outputs, refs)
    return rep


def _untraced(reps: list[Rep]) -> list[Rep]:
    return [r for r in reps if r.run_s is not None and not r.traced]


def end_to_end(reps: list[Rep]) -> dict:
    timed = _untraced(reps)
    return {
        "run_s": {"value": median([r.run_s for r in timed]), "unit": "s"},
        "setup_s": {"value": median([r.setup_s for r in timed]),
                    "unit": "s"},
        "peak_rss_mb": {"value": median([r.rss_mb for r in timed]),
                        "unit": "MB"},
    }


def per_layer(reps: list[Rep]) -> dict:
    """Median self times, exact counts (checked to repeat) and tracer
    coverage and overhead over the traced repetitions."""
    traced = [r for r in reps if r.traced and r.trace is not None]
    first = traced[0].trace
    counts = {k: v for k, v in first.items()
              if k.rsplit(".", 1)[1] in COUNT_MEASURES}
    for r in traced[1:]:
        changed = sorted(k for k in counts if r.trace[k] != counts[k])
        if changed:
            r.failures.append(f"trace counts differ between runs: {changed}")
    metrics = {k: {"value": v, "unit": "count"} for k, v in counts.items()}
    for k in first:
        if k.endswith(".self_s"):
            metrics[k] = {"value": median([r.trace[k] for r in traced]),
                          "unit": "s"}
    coverage = []
    for r in traced:
        cov = sum(v for k, v in r.trace.items()
                  if k.endswith(".self_s")) / r.run_s
        coverage.append(cov)
        if abs(cov - 1) > COVERAGE_TOL:
            r.failures.append(f"per-layer self times cover {cov:.3f} of "
                              f"traced run_s")
    traced_run_s = median([r.run_s for r in traced])
    metrics["trace.coverage"] = {"value": median(coverage), "unit": "ratio"}
    metrics["trace.run_s"] = {"value": traced_run_s, "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": traced_run_s - median([r.run_s for r in _untraced(reps)]),
        "unit": "s"}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ncupper" / "__init__.py").is_file():
        print(f"error: {root} is not an ncupper checkout (no "
              f"src/ncupper); run from the repository root", file=sys.stderr)
        return 2
    refs = workloads.load_references()
    start = time.monotonic()
    reps: list[Rep] = []
    (BENCH / "_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "_work") as tmp:
        job = workloads.prepare(args.workload, args.seed, root, Path(tmp))
        pattern = (False, True) if args.trace else (False,)
        while (time.monotonic() - start < args.seconds
               or len(reps) < MIN_REPS * len(pattern)):
            for traced in pattern:
                timeout = DEADLINE_S - (time.monotonic() - start)
                reps.append(run_child(root, job, traced, timeout, refs))
    timed = sorted(r.run_s for r in _untraced(reps))
    if not timed or (
            args.trace and not any(r.traced and r.trace for r in reps)):
        for r in reps:
            print(f"error: {'; '.join(r.failures)}", file=sys.stderr)
        return 1
    metrics = per_layer(reps) if args.trace else end_to_end(reps)
    failed = sum(1 for r in reps if r.failures)
    for i, r in enumerate(reps):
        for f in r.failures:
            print(f"FAIL run {i} ({'traced' if r.traced else 'plain'}): {f}",
                  file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(reps)} runs, {failed} "
          f"failed, error_rate {failed / len(reps):g}; untraced run_s "
          f"min {timed[0]:.4f} median {median(timed):.4f} max "
          f"{timed[-1]:.4f} s over {len(timed)}")
    for name, m in metrics.items():
        print(f"  {name:45s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(reps),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
