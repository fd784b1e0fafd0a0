"""Span tracer for the traced benchmark pass.

The tracer wraps public entry points of each masseykit module from the
outside (nothing under ``src/`` changes): every call into a wrapped function
records a span ``[name, start, end, parent, job, post]`` in memory, and a few
wrappers also bump counters (matrix shapes, parameter kinds, verdicts).
``post`` is the time the tracer itself spent on counters after ``end``; it
is charged to nobody, so a parent's self time excludes it.

Self time of a span is its duration minus the durations (and ``post``) of
its direct child spans.  ``layer_metrics`` folds spans and counters into the
per-layer metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types

FIELDS = ("q", "fp2")

# (metric name, unit, better); the order is the order of the printed result
PER_LAYER = [
    ("simplicial.faces_of_dim.calls", "count", "lower"),
    ("simplicial.faces_of_dim.self_s", "s", "lower"),
    ("simplicial.reduced_quotient.calls", "count", "lower"),
    ("simplicial.reduced_quotient.self_s", "s", "lower"),
    ("simplicial.hochster_table.self_s", "s", "lower"),
]
_ECHELON = [("calls", "count"), ("self_s", "s"), ("rows", "count"),
            ("cols", "count"), ("nnz", "count"), ("rank", "count")]
_QUOTIENT = [("calls", "count"), ("self_s", "s"), ("dim", "count"),
             ("reduced_frac", "frac")]
for _suffix in ("",) + tuple("." + f for f in FIELDS):
    for _stat, _unit in _ECHELON:
        PER_LAYER.append((f"linalg.echelon.{_stat}{_suffix}", _unit, "lower"))
    if not _suffix:
        PER_LAYER.append(("linalg.kernel_basis.self_s", "s", "lower"))
    for _stat, _unit in _QUOTIENT:
        better = "higher" if _stat == "reduced_frac" else "lower"
        PER_LAYER.append((f"linalg.quotient.{_stat}{_suffix}", _unit, better))
PER_LAYER += [
    ("dga.windows", "count", "lower"),
    ("dga.basis.self_s", "s", "lower"),
    ("dga.d_solver.calls", "count", "lower"),
    ("dga.d_solver.builds", "count", "lower"),
    ("dga.d_solver.self_s", "s", "lower"),
    ("dga.cohomology_basis.calls", "count", "lower"),
    ("dga.cohomology_basis.builds", "count", "lower"),
    ("dga.cohomology_basis.self_s", "s", "lower"),
    ("massey.find_defining_system.calls", "count", "lower"),
    ("massey.find_defining_system.self_s", "s", "lower"),
    ("massey.params.class", "count", "lower"),
    ("massey.params.boundary", "count", "lower"),
    ("massey.budget_hit_frac", "frac", "lower"),
    ("massey.resolve.calls", "count", "lower"),
    ("massey.resolve.self_s", "s", "lower"),
    ("massey.value_reduce.self_s", "s", "lower"),
    ("massey.verdict.self_s", "s", "lower"),
    ("massey.indeterminacy.self_s", "s", "lower"),
    ("massey.outcomes.trivial", "count", "higher"),
    ("massey.outcomes.nontrivial", "count", "higher"),
    ("massey.outcomes.unknown", "count", "lower"),
    ("massey.outcomes.undefined", "count", "lower"),
    ("params.value_terms", "count", "lower"),
    ("params.nonlinear_frac", "frac", "lower"),
    ("facerings.zk_massey.calls", "count", "lower"),
    ("facerings.zk_massey.self_s", "s", "lower"),
    ("facerings.zk_classes.self_s", "s", "lower"),
    ("facerings.triple_massey_scan.self_s", "s", "lower"),
    ("facerings.golod_test.self_s", "s", "lower"),
    ("lie.goncharova_table.self_s", "s", "lower"),
    ("lie.ce_window.self_s", "s", "lower"),
    ("lie.basis.self_s", "s", "lower"),
    ("monomial.koszul_homology.calls", "count", "lower"),
    ("monomial.koszul_homology.self_s", "s", "lower"),
    ("monomial.minimal_resolution_betti.calls", "count", "lower"),
    ("monomial.minimal_resolution_betti.self_s", "s", "lower"),
    ("cli.parse.self_s", "s", "lower"),
    ("cli.emit.self_s", "s", "lower"),
    # traced wall_s minus untraced wall_s, filled in by run.py
    ("trace.overhead_s", "s", "lower"),
]

# Span points: (span name, module, dotted attribute).  One name may cover
# several functions; a nested call under the same name is a child span, so
# its time is never counted twice.
SPAN_POINTS = [
    ("simplicial.faces_of_dim", "masseykit.simplicial",
     "SimplicialComplex.faces_of_dim"),
    ("simplicial.reduced_quotient", "masseykit.simplicial",
     "ReducedCohomology.quotient"),
    ("simplicial.hochster_table", "masseykit.simplicial", "hochster_table"),
    ("linalg.echelon", "masseykit.linalg", "EchelonSolver.__init__"),
    ("linalg.kernel_basis", "masseykit.linalg", "EchelonSolver.kernel_basis"),
    ("linalg.quotient", "masseykit.linalg", "QuotientBasis.__init__"),
    ("dga.basis", "masseykit.facerings", "RKAlgebra.basis"),
    ("dga.basis", "masseykit.monomial", "KoszulAlgebra.basis"),
    ("dga.d_solver", "masseykit.dga", "DGAlgebra.d_solver"),
    ("dga.cohomology_basis", "masseykit.dga", "DGAlgebra.cohomology_basis"),
    ("massey.find_defining_system", "masseykit.massey",
     "MasseyEngine.find_defining_system"),
    ("massey.resolve", "masseykit.massey", "MasseyEngine._resolve_constraints"),
    ("massey.value_reduce", "masseykit.massey",
     "MasseyEngine._reduce_family_value"),
    ("massey.verdict", "masseykit.massey", "MasseyEngine._triviality"),
    ("massey.verdict", "masseykit.massey", "MasseyEngine._zero_solvable"),
    ("massey.indeterminacy", "masseykit.massey",
     "MasseyEngine._triple_indeterminacy"),
    ("facerings.zk_massey", "masseykit.facerings", "zk_massey"),
    ("facerings.zk_classes", "masseykit.facerings", "zk_classes"),
    ("facerings.triple_massey_scan", "masseykit.facerings",
     "triple_massey_scan"),
    ("facerings.golod_test", "masseykit.facerings", "golod_test"),
    ("lie.goncharova_table", "masseykit.lie", "goncharova_table"),
    ("lie.ce_window", "masseykit.lie", "ce_window"),
    ("lie.basis", "masseykit.lie", "CEAlgebra.basis"),
    ("monomial.koszul_homology", "masseykit.monomial", "koszul_homology"),
    ("monomial.minimal_resolution_betti", "masseykit.monomial",
     "minimal_resolution_betti"),
    ("cli.parse", "masseykit.cli", "build_parser"),
    ("cli.parse", "argparse", "ArgumentParser.parse_args"),
    ("cli.parse", "masseykit.cli", "_read_input"),
    ("cli.parse", "masseykit.simplicial", "SimplicialComplex.from_json"),
    ("cli.parse", "masseykit.monomial", "MonomialQuotient.from_json"),
    ("cli.emit", "masseykit.cli", "_emit"),
    ("cli.emit", "masseykit.cli", "_outcome_json"),
]


def field_suffix(field) -> str:
    return "q" if field.p is None else f"fp{field.p}"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.job = None
        self.active = False

    def bump(self, key: str, by=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    # ---- wrappers ---------------------------------------------------------
    def span(self, name: str, fn, pre=None, post=None, split=None):
        """Wrap fn in a span; ``pre(args, kwargs)`` runs before the call and
        its value goes to ``post(args, kwargs, result, before)``.  With
        ``split``, the span is named ``name.<split(args, kwargs)>``."""
        spans, stack, clock = self.spans, self.stack, self.clock
        ids: dict = {}

        def name_id(key):
            got = ids.get(key)
            if got is None:
                got = ids[key] = len(self.names)
                self.names.append(key)
            return got
        fixed = None if split else name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            before = pre(args, kwargs) if pre else None
            nid = fixed if split is None else \
                name_id(f"{name}.{split(args, kwargs)}")
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1, self.job, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if post:
                post(args, kwargs, result, before)
                rec[5] = clock() - rec[2]
            return result
        return traced

    def counter(self, fn, post):
        """Wrap fn with a counter only (no span)."""
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.active:
                post(args, kwargs, result)
            return result
        return counted

    # ---- installation -----------------------------------------------------
    def install(self) -> None:
        post_hooks = {
            "EchelonSolver.__init__": self._after_echelon,
            "QuotientBasis.__init__": self._after_quotient,
            "MasseyEngine.find_defining_system": self._after_find,
            "MasseyEngine._reduce_family_value": self._after_value_reduce,
            "DGAlgebra.d_solver": self._after_cached("dga.d_solver"),
            "DGAlgebra.cohomology_basis":
                self._after_cached("dga.cohomology_basis"),
        }
        pre_hooks = {
            "DGAlgebra.d_solver": self._cache_has("_dsolve"),
            "DGAlgebra.cohomology_basis": self._cache_has("_coh"),
        }
        by_field = {"EchelonSolver.__init__", "QuotientBasis.__init__"}
        for name, module, attr in SPAN_POINTS:
            split = _field_of_args if attr in by_field else None
            _patch(module, attr, lambda fn, name=name, attr=attr, split=split:
                   self.span(name, fn, pre_hooks.get(attr),
                             post_hooks.get(attr), split))
        for attr in ("reduce", "reduce_generic", "project"):
            _patch("masseykit.linalg", f"QuotientBasis.{attr}",
                   lambda fn: self.counter(fn, self._after_ask))
        for module, cls in (("masseykit.facerings", "RKAlgebra"),
                            ("masseykit.lie", "CEAlgebra"),
                            ("masseykit.monomial", "KoszulAlgebra")):
            _patch(module, f"{cls}.__init__", lambda fn: self.counter(
                fn, lambda a, k, r: self.bump("dga.windows")))
        _patch("masseykit.massey", "MasseyEngine.massey",
               lambda fn: self.counter(fn, self._after_massey))
        # cli writes scan lines with json.dumps directly; give cli its own
        # json module whose dumps is traced
        cli = importlib.import_module("masseykit.cli")
        proxy = types.ModuleType("json")
        proxy.__dict__.update(json.__dict__)
        proxy.dumps = self.span("cli.emit", json.dumps)
        cli.json = proxy

    # ---- counter hooks ----------------------------------------------------
    def _after_echelon(self, args, kwargs, result, before):
        solver = args[0]
        rows = args[3] if len(args) > 3 else kwargs["rows"]
        sfx = field_suffix(solver.field)
        stats = {"rows": solver.n_rows, "cols": solver.n_cols,
                 "nnz": sum(len(r) for r in rows), "rank": solver.rank}
        for key, value in stats.items():
            self.bump(f"linalg.echelon.{key}", value)
            self.bump(f"linalg.echelon.{key}.{sfx}", value)

    def _after_quotient(self, args, kwargs, result, before):
        qb = args[0]
        sfx = field_suffix(qb.field)
        for key in ("linalg.quotient.dim", f"linalg.quotient.dim.{sfx}"):
            self.bump(key, qb.dim)

    def _after_ask(self, args, kwargs, result):
        qb = args[0]
        if not qb.__dict__.get("_bench_asked"):
            qb._bench_asked = True
            self.bump("linalg.quotient.asked")
            self.bump(f"linalg.quotient.asked.{field_suffix(qb.field)}")

    @staticmethod
    def _cache_has(attr):
        def pre(args, kwargs):
            deg = args[1] if len(args) > 1 else kwargs["deg"]
            return deg in args[0].__dict__.get(attr, {})
        return pre

    def _after_cached(self, name):
        def post(args, kwargs, result, hit):
            if not hit:
                self.bump(f"{name}.builds")
        return post

    def _after_find(self, args, kwargs, fam, before):
        params = getattr(fam, "params", None)
        if params is None:  # Undefined
            return
        self.bump("massey.families")
        for p in params:
            self.bump(f"massey.params.{p.kind}")
        if not fam.complete and len(params) >= args[0].budget:
            self.bump("massey.budget_hits")

    def _after_value_reduce(self, args, kwargs, coords, before):
        for p in coords.values():
            self.bump("params.value_polys")
            self.bump("params.value_terms", len(p.terms))
            if not p.is_affine():
                self.bump("params.nonlinear")

    def _after_massey(self, args, kwargs, out):
        key = "undefined" if out.status == "undefined" else out.triviality
        self.bump(f"massey.outcomes.{key}")

    # ---- results ----------------------------------------------------------
    def self_times(self) -> dict:
        """{span name: (calls, self seconds)} over all recorded spans."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1] + rec[5]
        out: dict = {}
        for idx, rec in enumerate(self.spans):
            name = self.names[rec[0]]
            calls, secs = out.get(name, (0, 0.0))
            out[name] = (calls + 1, secs + (rec[2] - rec[1]) - child[idx])
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, job."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps([self.names[rec[0]], rec[1], rec[2],
                                     rec[3], rec[4]]) + "\n")


def layer_metrics(self_times: dict, counts: dict) -> dict:
    """Fold span self times and counters into every PER_LAYER metric
    (trace.overhead_s excepted, which needs an untraced pass)."""
    out = dict(counts)
    for name, (calls, secs) in self_times.items():
        base, _, sfx = name.rpartition(".")
        if base in ("linalg.echelon", "linalg.quotient"):
            # spans split by field: name.<field>
            for key, value in (("calls", calls), ("self_s", secs)):
                out[f"{base}.{key}.{sfx}"] = value
                out[f"{base}.{key}"] = out.get(f"{base}.{key}", 0) + value
        else:
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = secs
    for sfx in ("",) + tuple("." + f for f in FIELDS):
        built = out.get(f"linalg.quotient.calls{sfx}", 0)
        asked = out.get(f"linalg.quotient.asked{sfx}", 0)
        out[f"linalg.quotient.reduced_frac{sfx}"] = asked / built if built else 0.0
    fams = out.get("massey.families", 0)
    out["massey.budget_hit_frac"] = \
        out.get("massey.budget_hits", 0) / fams if fams else 0.0
    polys = out.get("params.value_polys", 0)
    out["params.nonlinear_frac"] = \
        out.get("params.nonlinear", 0) / polys if polys else 0.0
    return {name: out.get(name, 0) for name, _unit, _b in PER_LAYER
            if name != "trace.overhead_s"}


def _field_of_args(args, kwargs) -> str:
    return field_suffix(args[1] if len(args) > 1 else kwargs["field"])


def _patch(module_name: str, dotted: str, make) -> None:
    """Replace module_name.dotted by make(original) everywhere masseykit
    refers to it: on its class, or in every masseykit module that imported
    the function by name."""
    module = importlib.import_module(module_name)
    owner_name, _, attr = dotted.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        raw = owner.__dict__[attr]
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))
        return
    orig = getattr(module, attr)
    wrapped = make(orig)
    for name, mod in list(sys.modules.items()):
        if name == "masseykit" or name.startswith("masseykit."):
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
