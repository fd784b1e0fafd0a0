"""Fast self-check of the benchmark harness (not of masseykit).

    python3 bench/selfcheck.py

Checks that the metric names, units and directions in BENCHMARK.json match
the ones the harness prints, that span self times subtract child spans,
that the host-speed sampler samples while code runs and books its own
time, and that an injected oracle failure is counted in failed_frac.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
os.environ["MASSEY_THREADS"] = "1"

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def check_registry() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want_e2e = [{"name": n, "unit": u, "better": b, "bound": bound}
                for n, u, b, bound in run.END_TO_END]
    assert spec["end_to_end"] == want_e2e, "end_to_end differs from run.py"
    want_layer = [{"name": n, "unit": u, "better": b}
                  for n, u, b in tracing.PER_LAYER]
    assert spec["per_layer"] == want_layer, "per_layer differs from tracing.py"
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)), "metric names repeat"
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()), "setup_s bound"


def check_self_time() -> None:
    tr = tracing.Tracer()

    def leaf():
        return 1
    traced_leaf = tr.span("linalg.kernel_basis", leaf)

    def parent():
        return traced_leaf() + traced_leaf()
    traced_parent = tr.span("simplicial.hochster_table", parent)
    tr.active = True
    assert traced_parent() == 2
    tr.active = False
    # put the spans on a fixed clock: parent 0..10, children 2..3 and 5..7
    tr.spans[0][1:3] = [0.0, 10.0]
    tr.spans[1][1:3] = [2.0, 3.0]
    tr.spans[2][1:3] = [5.0, 7.0]
    times = tr.self_times()
    assert times["simplicial.hochster_table"] == (1, 7.0), times
    assert times["linalg.kernel_basis"] == (2, 3.0), times
    metrics = tracing.layer_metrics(times, {})
    assert set(metrics) == {n for n, _u, _b in tracing.PER_LAYER} - \
        {"trace.overhead_s"}
    assert metrics["simplicial.hochster_table.self_s"] == 7.0


def check_sampler() -> None:
    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        t0, begin, before = time.perf_counter(), sampler.clock(), sampler.spent
        while time.perf_counter() - t0 < 0.3:
            pass
        wall, spent = time.perf_counter() - t0, sampler.spent - before
        net = sampler.clock() - begin
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 0.3 / hostspeed.PERIOD_S, sampler.samples
    assert 0 < spent < wall / 4, (spent, wall)
    assert abs(net - (wall - spent)) < 1e-3, (net, wall, spent)
    assert sampler.scale(begin, begin + net) > 0
    assert sampler.scale(begin - 10, begin - 5) is None


def check_injected_failure() -> None:
    from masseykit import cli

    work = workloads.build("koszul", seed=0)
    wall, records, outputs = worker.run_jobs(work.jobs, cli)
    attempted, failed, messages = worker.score(records, outputs, work.oracles)
    assert (attempted, failed) == (len(work.jobs), 0), messages
    victim = work.oracles[0]
    work.oracles.append(workloads.Oracle(
        "injected", victim.jobs, lambda *outs: "injected failure"))
    attempted, failed, messages = worker.score(records, outputs, work.oracles)
    assert failed == len(set(victim.jobs)), (failed, messages)
    assert any(m.startswith("injected") for m in messages), messages
    # a job that raises is counted too, and its oracles are skipped
    records[0] = dict(records[0], ok=False, error="boom")
    attempted, failed, messages = worker.score(records, outputs, work.oracles)
    assert failed >= 1 and any("boom" in m for m in messages), messages


def main() -> int:
    for check in (check_registry, check_self_time, check_sampler,
                  check_injected_failure):
        check()
        print(f"ok {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
