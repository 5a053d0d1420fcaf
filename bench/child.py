"""One repetition of a benchmark job, run in a fresh interpreter.

Reads the job (see ``workloads.prepare``) as JSON on stdin, runs it, and
prints one JSON object on stdout: the monotonic clock at the end of set-up
and at the last result, this process's peak RSS, the outputs to check and,
for a traced job, the per-layer statistics. Set-up ends at the first
hierarchy call (solve workloads) or the first Monte Carlo call.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from workloads import MC_WORKLOAD


def _solve(job: dict, marks: dict) -> dict:
    from ncupper import cli

    bounds: dict[str, list[float]] = {}

    def capture(hierarchy, attr, fn):
        # full-precision bounds; --format machine rounds them to 6 digits
        def hook(*args, **kwargs):
            marks.setdefault("setup_end", time.monotonic())
            report = fn(*args, **kwargs)
            bounds[hierarchy] = [getattr(r, attr) for r in report.orders]
            return report
        return hook

    cli.lambda_sequence = capture("lambda", "lam", cli.lambda_sequence)
    cli.eta_sequence = capture("eta", "eta", cli.eta_sequence)
    raw = []
    for spec in job["runs"]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["solve", spec["path"],
                             "--order", str(spec["order"]),
                             "--hierarchy", spec["hierarchy"],
                             "--format", "machine"])
        if code != 0:
            raise SystemExit(f"ncupper solve {spec['path']} exited {code}")
        raw.append((buf.getvalue(), dict(bounds)))
        bounds.clear()
    marks["end"] = time.monotonic()
    return {"runs": [{"machine": json.loads(text), "bounds": b}
                     for text, b in raw]}


def parse_atoms(text: str) -> list:
    """Trace-word atoms of a word written as in ``mc_word_sets``."""
    from ncupper.haar import ConstantAtom, UnitaryAtom
    return [ConstantAtom(t) if t == "D"
            else UnitaryAtom(t.rstrip("*"), t.endswith("*"))
            for t in text.split()]


def mc_constants(dim: int) -> dict:
    """Constants of each Monte Carlo word set: D = diag(1, ..., -1) with
    dim // 2 plus signs for the signature words, none otherwise."""
    from ncupper.haar import SignatureMatrix
    return {"unitary": {}, "signature": {"D": SignatureMatrix(dim, dim // 2)}}


def _mc(job: dict, marks: dict) -> dict:
    from ncupper import haar

    dim = job["dim"]
    constants = mc_constants(dim)
    words = {kind: [parse_atoms(w) for w in job["words"][kind]]
             for kind in constants}
    marks["setup_end"] = time.monotonic()
    estimates = {
        kind: haar.mc_trace_moments(words[kind], dim, constants[kind],
                                    samples=job["samples"],
                                    seed=2 * job["seed"] + i)
        for i, kind in enumerate(constants)}
    marks["end"] = time.monotonic()
    return {"estimates": estimates}


def main() -> int:
    job = json.loads(sys.stdin.read())
    import ncupper

    src = Path(job["root"], "src", "ncupper").resolve()
    if Path(ncupper.__file__).resolve().parent != src:
        print(f"ncupper imported from {ncupper.__file__}, not {src}",
              file=sys.stderr)
        return 2
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    marks: dict[str, float] = {}
    run = _mc if job["workload"] == MC_WORKLOAD else _solve
    outputs = run(job, marks)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "setup_end": marks["setup_end"], "end": marks["end"],
        "rss_kb": rss_kb, "outputs": outputs,
        "trace": tracer.report() if tracer else None}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
