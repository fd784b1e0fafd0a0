"""One benchmark pass, run by run.py in a fresh interpreter.

    python3 bench/worker.py --workload W --seed N [--setup-only]
                            [--trace --spans PATH]

Set-up is interpreter start, ``import masseykit`` and building the pass's
inputs from the seed; the CLOCK_MONOTONIC time at which it ends is reported
as ``ready`` so that run.py can subtract its own spawn time.  Then every job
of the workload runs once, in order, and the oracles check the outputs.  A
fresh process per pass keeps the caches that live on input objects and in
``masseykit.lie`` cold, as a CLI user sees them.

From start to exit a hostspeed.Sampler times a reference kernel every
50 ms.  Its own time is left out of every time measured here, and the
samples taken during set-up and during the jobs give the factors that turn
the set-up and pass times into nominal-host seconds (bench/hostspeed.py).

The last line of stdout is one JSON object with the pass's measurements.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

import hostspeed
import tracing
import workloads


class _Capture(io.StringIO):
    """stdout of a CLI job; remembers when the first full line arrived."""

    def __init__(self, t0: float, clock):
        super().__init__()
        self.t0, self.clock = t0, clock
        self.first_line = None

    def write(self, text):
        n = super().write(text)
        if self.first_line is None and "\n" in text:
            self.first_line = self.clock() - self.t0
        return n


def run_jobs(jobs, cli, tracer=None, clock=time.perf_counter):
    """Run each job once; returns (wall seconds, records, outputs).  The
    wall time is the sum of the jobs' own times, read from ``clock``."""
    records, outputs = [], {}
    real = sys.stdin, sys.stdout, sys.stderr
    for idx, job in enumerate(jobs):
        rec = {"name": job.name, "ok": True, "error": None}
        out = None
        if tracer:
            tracer.job, tracer.active = idx, True
        t0 = clock()
        try:
            if job.argv is not None:
                cap, err = _Capture(t0, clock), io.StringIO()
                sys.stdin, sys.stdout, sys.stderr = \
                    io.StringIO(job.stdin), cap, err
                try:
                    code = cli.main(job.argv)
                except SystemExit as exc:  # argparse rejects bad arguments
                    code = exc.code
                finally:
                    sys.stdin, sys.stdout, sys.stderr = real
                out = cap.getvalue()
                if code != 0:
                    rec["ok"] = False
                    rec["error"] = f"exit {code}: {err.getvalue().strip()[-400:]}"
                first = cap.first_line
            else:
                out = job.call()
                first = None
        except Exception:  # a job that raises is a failed job, not a crash
            rec["ok"] = False
            rec["error"] = traceback.format_exc(limit=-3)[-800:]
            first = None
        rec["start"], rec["seconds"] = t0, clock() - t0
        if tracer:
            tracer.active = False
        if job.first_line:
            rec["first_line_s"] = rec["seconds"] if first is None else first
        text = out if isinstance(out, str) else json.dumps(out, sort_keys=True)
        rec["sha256"] = hashlib.sha256(text.encode()).hexdigest()
        records.append(rec)
        outputs[job.name] = out
    return sum(r["seconds"] for r in records), records, outputs


def score(records, outputs, oracles):
    """(attempted, failed, failure messages).  A job fails when it raised,
    exited non-zero, or an oracle over its output failed; oracles over a job
    that already failed to run are skipped."""
    errored = {r["name"] for r in records if not r["ok"]}
    failed = set(errored)
    messages = [f"{r['name']}: {r['error']}" for r in records if not r["ok"]]
    for oracle in oracles:
        if errored.intersection(oracle.jobs):
            continue
        try:
            msg = oracle.check(*(outputs[j] for j in oracle.jobs))
        except Exception as exc:  # a malformed output fails its oracle
            msg = f"oracle raised {type(exc).__name__}: {exc}"
        if msg:
            failed.update(oracle.jobs)
            messages.append(f"{oracle.name}: {msg}")
    return len(records), len(failed), messages


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None, help="write spans here")
    args = ap.parse_args(argv)

    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        return _measure(args, sampler)
    finally:
        sampler.stop()


def _measure(args, sampler) -> int:
    import masseykit
    from masseykit import cli

    src = os.environ.get("BENCH_SRC")
    if src and not os.path.abspath(masseykit.__file__).startswith(src):
        print(f"masseykit imported from {masseykit.__file__}, not {src}",
              file=sys.stderr)
        return 2
    work = workloads.build(args.workload, args.seed)
    result = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC),
              "setup_spent": sampler.spent}
    ready = sampler.clock()
    result["setup_scale"] = sampler.scale(float("-inf"), ready)
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer(sampler.clock)
        tracer.install()
    wall, records, outputs = run_jobs(work.jobs, cli, tracer, sampler.clock)
    done = sampler.clock()
    scale = sampler.scale(ready, done) or result["setup_scale"]
    for r in records:
        r["scale"] = sampler.scale(r["start"], r["start"] + r["seconds"]) \
            or scale
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted, failed, messages = score(records, outputs, work.oracles)
    first = [r for r in records if "first_line_s" in r]
    result.update({
        "wall_s": sum(r["seconds"] * r["scale"] for r in records),
        "raw_wall_s": wall,
        "scale": scale,
        "samples": sum(ready <= t <= done for t in sampler.at),
        "peak_rss_mb": peak_kib / 1024.0,
        "first_line_s": sum(r["first_line_s"] * r["scale"] for r in first),
        "raw_first_line_s": sum(r["first_line_s"] for r in first),
        "attempted": attempted,
        "failed": failed,
        "failures": messages,
        "jobs": records,
    })
    if tracer:
        layers = tracing.layer_metrics(tracer.self_times(), tracer.counts)
        units = {n: u for n, u, _b in tracing.PER_LAYER}
        result["layers"] = {n: v * scale if units[n] == "s" else v
                            for n, v in layers.items()}
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
