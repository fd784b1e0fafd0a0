"""The traced benchmark (``bench/run.py --trace 1``) wraps masseykit names
from outside the package, so a renamed method or attribute breaks it without
breaking any library test.  This runs the tracer in a fresh interpreter on
one W+ triple product; it only reads ``bench/``."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
tracer = tracing.Tracer()
tracer.install()
from masseykit.lie import ce_window, witt_plus
from masseykit.massey import MasseyEngine
dga = ce_window(witt_plus(10), 3, 10)
e1 = dga.class_of(dga.one_form(1))
e2 = dga.class_of(dga.one_form(2))
tracer.active = True
out = MasseyEngine(dga, budget=8, homogeneous_aux=False).massey([e1, e2, e1])
tracer.active = False
layers = tracing.layer_metrics(tracer.self_times(), tracer.counts)
print(json.dumps({"triviality": out.triviality, "layers": layers}))
"""


def test_tracer_installs_and_counts_a_wplus_triple():
    res = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "bench"), str(ROOT / "src")],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert res.returncode == 0, res.stderr
    got = json.loads(res.stdout.splitlines()[-1])
    layers = got["layers"]
    assert layers["massey.params.class"] > 0
    assert layers["massey.find_defining_system.calls"] == 1
    assert layers[f"massey.outcomes.{got['triviality']}"] == 1
    # builds are counted by probing the window's caches (_coh, _dsolve) by
    # name: a renamed cache would count every call as a build
    for name in ("dga.cohomology_basis", "dga.d_solver"):
        assert 0 < layers[f"{name}.builds"] < layers[f"{name}.calls"], name


GUARD = """
import json, sys
from fractions import Fraction
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
tracer = tracing.Tracer()
tracer.install()
from masseykit.facerings import generator_class, zk_massey
from masseykit.generators import qn
from masseykit.lie import ce_window, m0, omega, witt_plus
from masseykit.massey import MasseyEngine
m = ce_window(m0(16), 3, 16)
e2 = m.class_of(m.one_form(2))
w3 = m.class_of({k: Fraction(c) for k, c in omega(3).form.items()})
w = ce_window(witt_plus(14), 3, 14)
g = {c: w.class_of(w.one_form(int(c))) for c in "12"}
K = qn(4)
tracer.active = True
outs = [MasseyEngine(m).massey([e2, w3, e2]),
        MasseyEngine(w, budget=40, homogeneous_aux=False).massey(
            [g[c] for c in "1112"]),
        zk_massey(K, [generator_class(K, (i, 4 + i)) for i in (1, 2, 3, 4)])]
tracer.active = False
layers = tracing.layer_metrics(tracer.self_times(), tracer.counts)
names = [tracer.names[rec[0]] for rec in tracer.spans]
in_search = sum(name == "massey.resolve" and rec[3] >= 0 and
                names[rec[3]] == "massey.find_defining_system"
                for name, rec in zip(names, tracer.spans))
print(json.dumps({"outcomes": [[o.status, o.triviality, o.inconclusive]
                               for o in outs], "layers": layers,
                  "resolve_in_search": in_search}))
"""


def test_tracer_sees_the_solver_and_every_verdict_kind():
    """A conclusive undefined, a sampled W+ product, and a strict 4-fold
    product: the tracer must see each search, the solver called inside a
    search, and the undefined outcome (it tells an ``Undefined`` from a
    family by the ``params`` attribute)."""
    res = subprocess.run(
        [sys.executable, "-c", GUARD, str(ROOT / "bench"), str(ROOT / "src")],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert res.returncode == 0, res.stderr
    got = json.loads(res.stdout.splitlines()[-1])
    assert got["outcomes"] == [["undefined", "unknown", False],
                               ["sampled", "trivial", False],
                               ["strict", "nontrivial", False]]
    layers = got["layers"]
    assert layers["massey.resolve.calls"] > 0
    # the undefined product's search sends its obstruction to the solver
    assert got["resolve_in_search"] > 0
    assert layers["massey.outcomes.undefined"] == 1
    assert layers["massey.find_defining_system.calls"] == len(got["outcomes"])


def test_bench_selfcheck_passes():
    """The harness's own self-check: metric registry, span self times, the
    host-speed sampler and an injected oracle failure."""
    res = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selfcheck.py")],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert res.returncode == 0, res.stdout + res.stderr


SCAN = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
tracer = tracing.Tracer()
tracer.install()
from masseykit.facerings import triple_massey_scan
from masseykit.generators import polygon
K = polygon(6)
tracer.active = True
rows = triple_massey_scan(K, support_mode="edges")
tracer.active = False
layers = tracing.layer_metrics(tracer.self_times(), tracer.counts)
print(json.dumps({"rows": len(rows), "layers": layers}))
"""


def test_tracer_sees_the_edge_scan():
    """The spans on the scan path of the ``zk-scan`` workload: a renamed
    ``zk_massey`` or ``ReducedCohomology.quotient`` would read 0 calls."""
    res = subprocess.run(
        [sys.executable, "-c", SCAN, str(ROOT / "bench"), str(ROOT / "src")],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert res.returncode == 0, res.stderr
    got = json.loads(res.stdout.splitlines()[-1])
    layers = got["layers"]
    assert got["rows"] > 0
    assert layers["facerings.zk_massey.calls"] == got["rows"]
    assert layers["simplicial.reduced_quotient.calls"] > 0
