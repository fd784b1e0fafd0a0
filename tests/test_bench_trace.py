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
