"""masseykit benchmark.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a masseykit checkout; the program is imported from its
``src/``.  Every pass runs in a fresh interpreter (bench/worker.py) with
``MASSEY_THREADS=1``.

--trace 0: a few set-up-only runs, then passes until ``--seconds`` is used
up (at least one).  Prints wall_s, setup_s, peak_rss_mb and first_line_s
(the medians over the passes) and failed_frac.  Times are in nominal-host
seconds: each pass scales its own by the host speed sampled while it ran
(bench/hostspeed.py); the raw medians are printed beside them.
--trace 1: one untraced and two traced passes.  Prints every per-layer
metric of bench/tracing.py, the tracing overhead, and checks that every
count repeats exactly between the two traced passes.

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  Details (per-job stdout digests, failures, environment) go to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402

# (name, unit, better, bound): the bound is the share of the parent's
# median by which the metric may worsen before a change is a regression
END_TO_END = [
    ("wall_s", "s", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("first_line_s", "s", "lower", 0.15),
]
SETUP_RUNS = 5        # set-up-only interpreters per untraced run
DEADLINE_S = 170      # every run ends well inside the 180 s limit


class HarnessError(Exception):
    """The harness could not measure (missing program, crashed worker)."""


def _env() -> dict:
    env = dict(os.environ)
    env.update({"PYTHONPATH": str(SRC), "MASSEY_THREADS": "1",
                "PYTHONHASHSEED": "0", "BENCH_SRC": str(SRC)})
    return env


def spawn(workload, seed, deadline, *extra) -> dict:
    """Run one worker; adds setup_s (spawn to inputs ready, less the host
    sampler's time, scaled) and the worker's total lifetime to its
    result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *extra]
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_env(), cwd=ROOT,
                            text=True)
    try:
        out, err = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise HarnessError(f"worker for {workload} passed the deadline")
    if proc.returncode != 0 or not out.strip():
        raise HarnessError(f"worker exited {proc.returncode}: "
                           f"{err.strip()[-1500:]}")
    res = json.loads(out.strip().splitlines()[-1])
    res["raw_setup_s"] = res["ready"] - t0 - res["setup_spent"]
    res["setup_s"] = res["raw_setup_s"] * res["setup_scale"]
    res["lifetime_s"] = time.clock_gettime(time.CLOCK_MONOTONIC) - t0
    return res


def high_percentile(values) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n/a (needs >= 11 passes, have {n})"
    k = n - 10
    return f"p{100 * k // n} = {sorted(values)[k - 1]:.4f}"


def environment(seed) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(),
            "seed": seed, "commit": commit,
            "src_sha256": digest.hexdigest()}


def untraced(workload, seed, seconds, deadline):
    spawn(workload, seed, deadline, "--setup-only")  # compiles bytecode
    bare = [spawn(workload, seed, deadline, "--setup-only")
            for _ in range(SETUP_RUNS)]
    passes = []
    start = time.monotonic()
    while True:
        passes.append(spawn(workload, seed, deadline))
        elapsed = time.monotonic() - start
        if elapsed + passes[-1]["lifetime_s"] > seconds:
            break
    setups = [p["setup_s"] for p in bare + passes]
    walls = [p["wall_s"] for p in passes]
    raw = {key: statistics.median(p["raw_" + key] for p in bare + passes
                                  if "raw_" + key in p)
           for key in ("wall_s", "setup_s", "first_line_s")}
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "first_line_s": statistics.median(p["first_line_s"] for p in passes),
    }
    lines = [
        f"wall_s {metrics['wall_s']:.4f} s  (median of {len(walls)} passes; "
        f"{high_percentile(walls)})",
        f"setup_s {metrics['setup_s']:.4f} s  (median of {len(setups)} "
        "set-ups)",
        f"peak_rss_mb {metrics['peak_rss_mb']:.2f} MiB",
        f"first_line_s {metrics['first_line_s']:.4f} s",
        "  (nominal-host seconds, see bench/hostspeed.py; raw medians: "
        + ", ".join(f"{k} {v:.4f} s" for k, v in raw.items()) + ")",
    ]
    return passes, metrics, lines, []


def traced(workload, seed, deadline):
    base = spawn(workload, seed, deadline)
    runs = [spawn(workload, seed, deadline, "--trace", "--spans",
                  str(OUT / f"spans-{workload}-{i}.jsonl")) for i in (1, 2)]
    counts = [n for n, unit, _b in tracing.PER_LAYER if unit != "s"]
    problems = [f"count {n} differs between traced passes: "
                f"{runs[0]['layers'][n]} vs {runs[1]['layers'][n]}"
                for n in counts if runs[0]["layers"][n] != runs[1]["layers"][n]]
    metrics = {}
    for name, unit, _b in tracing.PER_LAYER:
        if name == "trace.overhead_s":
            continue
        vals = [r["layers"][name] for r in runs]
        metrics[name] = vals[0] if unit != "s" else sum(vals) / 2
    traced_wall = sum(r["wall_s"] for r in runs) / 2
    metrics["trace.overhead_s"] = traced_wall - base["wall_s"]
    lines = [f"{name} {metrics[name]:.6g} {unit}"
             for name, unit, _b in tracing.PER_LAYER]
    lines.append(f"traced wall_s {traced_wall:.4f} s, untraced "
                 f"{base['wall_s']:.4f} s, spans per pass {runs[0]['spans']}")
    return [base] + runs, metrics, lines, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="masseykit benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "masseykit" / "__init__.py").is_file():
        print(f"error: no masseykit sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            passes, metrics, lines, problems = traced(
                args.workload, args.seed, deadline)
        else:
            passes, metrics, lines, problems = untraced(
                args.workload, args.seed, args.seconds, deadline)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = environment(args.seed)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    failures = sorted({m for p in passes for m in p["failures"]}) + problems
    digests = {j["name"]: j["sha256"] for j in passes[0]["jobs"]}
    combined = hashlib.sha256(json.dumps(digests, sort_keys=True).encode())
    units = {n: u for n, u, *_ in END_TO_END + tracing.PER_LAYER}
    record = {"workload": args.workload, "trace": args.trace, **env,
              "metrics": metrics, "attempted": attempted, "failed": failed,
              "failures": failures, "stdout_sha256": digests,
              "passes": [{k: v for k, v in p.items() if k != "jobs"}
                         for p in passes]}
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, sort_keys=True))

    print(f"# masseykit bench: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} python={env['python']} nproc={env['nproc']} "
          f"commit={env['commit']} src_sha256={env['src_sha256'][:16]}")
    for line in lines:
        print(line)
    print(f"failed_frac {failed / attempted:.6g}  ({failed} of {attempted} "
          "jobs failed)")
    for msg in failures[:20]:
        print(f"FAILED {msg}")
    print(f"stdout digest sha256:{combined.hexdigest()}  (per job: "
          f"{out_path.relative_to(ROOT)})")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
