"""Batch front-end: load complexes, algebras and rings, run computations,
emit machine-readable reports.

Reports are JSON (schema 1) with sorted keys and exact scalars rendered as
strings; scan subcommands stream one JSON object per line.  Exit codes:
0 success (also when the reader closes stdout early, as ``| head`` does),
2 bad input, 3 cap exceeded, 1 internal inconsistency.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import CapExceeded, InvalidInput, MasseyKitError
from .fields import Field, QQ, integer, rational
from .facerings import (generator_class, golod_test, iter_triple_massey_scan,
                        mainlemma_check, rk_cohomology, zk_massey)
from .generators import anr, cube, dodecahedron_nerve, multiwedge, polygon, qn
from .lie import (GradedLie, ce_window, cohomology_table,
                  goncharova_table)
from .massey import MasseyEngine
from .monomial import (MonomialQuotient, koszul_homology,
                       minimal_resolution_betti, serre_bound, serre_equality)
from .simplicial import SimplicialComplex, check_vertices, hochster_table

SCHEMA = 1


def _read_input(path: str | None):
    if path in (None, "-"):
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(payload, out_path: str | None):
    text = json.dumps(payload, sort_keys=True, indent=2) \
        if not isinstance(payload, str) else payload
    if out_path in (None, "-"):
        sys.stdout.write(text + "\n")
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _supports_and_dims(args, m: int, default_dim) -> tuple[list, list]:
    """``--supports`` ("1,4;2,5;3,6") and ``--dims`` ("0;0;0", else
    default_dim per support), checked against a complex on m vertices:
    every vertex lies in 1..m and there is one degree per support."""
    supports = [tuple(integer(v, "support vertex")
                      for v in part.replace(",", " ").split())
                for part in args.supports.split(";") if part.strip()]
    check_vertices(m, (v for I in supports for v in I))
    dims = [integer(v, "degree") for v in args.dims.split(";")] if args.dims \
        else [default_dim] * len(supports)
    if len(dims) != len(supports):
        raise InvalidInput("need one degree per support")
    return supports, dims


def _outcome_json(outcome) -> dict:
    data = {
        "status": outcome.status,
        "n": outcome.n,
        "triviality": outcome.triviality,
        "complete": outcome.complete,
        "inconclusive": outcome.inconclusive,
    }
    if outcome.status == "affine":
        data["indeterminacy_dim"] = len(outcome.indeterminacy)
        data["strict"] = not outcome.indeterminacy
    if outcome.status == "strict":
        data["strict"] = True
    rep = outcome.representative
    if rep is not None:  # an R(K) monomial is a pair (v-face, u-support)
        data["representative"] = [
            {"c": str(c), **({"v": list(m[0]), "u": list(m[1])}
                             if len(m) == 2 and isinstance(m[0], tuple)
                             else {"mono": list(m)})}
            for m, c in sorted(rep.rep.items(), key=lambda kv: repr(kv[0]))]
    return data


# ---- subcommand implementations ---------------------------------------------

def _report(args, **data) -> int:
    """Emit the schema-1 report of the command ``args`` ran: ``data`` and
    the envelope every report carries (schema, command, field)."""
    _emit({"schema": SCHEMA, "command": args.command,
           "field": args.field.tag, **data}, args.out)
    return 0


def _table_entries(table: dict) -> list:
    return [{"q": q, "w": w, "dim": d} for (q, w), d in table.items() if d]


def cmd_goncharova(args) -> int:
    table = goncharova_table(args.qmax, args.wmax, args.field)
    return _report(args, qmax=args.qmax, wmax=args.wmax,
                   entries=_table_entries(table))


def cmd_cohomology(args) -> int:
    lie = GradedLie.from_json(_read_input(args.infile))
    table = cohomology_table(lie, args.qmax, args.wmax, args.field)
    return _report(args, name=lie.name, entries=_table_entries(table))


def cmd_betti(args) -> int:
    K = SimplicialComplex.from_json(_read_input(args.infile))
    table = hochster_table(K, args.field)
    hoch = table.entries
    if K.m <= 7 and (rk := rk_cohomology(K, args.field).entries) != hoch:
        (i, I), _ = min(hoch.items() ^ rk.items())
        raise AssertionError(
            f"model tables disagree at i = {i}, I = {list(I)}: Hochster "
            f"dim {hoch.get((i, I), 0)}, R(K) dim {rk.get((i, I), 0)}")
    if args.format == "csv":
        _emit(table.to_csv().rstrip("\n"), args.out)
        return 0
    return _report(args, **table.to_json(), m=K.m, total={
        str(k): v for k, v in sorted(table.total().items())})


def cmd_massey(args) -> int:
    K = SimplicialComplex.from_json(_read_input(args.infile))
    supports, dims = _supports_and_dims(args, K.m, None)
    classes = [generator_class(K, I, args.field, q=q)
               for I, q in zip(supports, dims)]
    outcome = zk_massey(K, classes, args.field, budget=args.budget)
    return _report(args, **_outcome_json(outcome), seed=args.seed,
                   supports=[list(I) for I in supports])


def cmd_kstep(args) -> int:
    lie = GradedLie.from_json(_read_input(args.infile) if args.lie is None
                              else args.lie)
    scalars = []
    for part in args.classes.split(";"):
        if not part.strip():
            continue
        if part.count(",") != 1:
            raise InvalidInput(
                f"class entry {part!r} is not of the form alpha,beta")
        scalars.append(tuple(rational(v, "class coefficient")
                             for v in part.split(",")))
    n = len(scalars)
    w_max = max(2 * n + 4, args.wmax)
    dga = ce_window(GradedLie.from_json({"name": lie.name, "W": w_max})
                    if lie.name in ("m0", "witt_plus") else lie,
                    3, w_max, args.field)
    from .lie import one_dim_classes
    classes = one_dim_classes(
        dga, [(args.field.of(a), args.field.of(b)) for a, b in scalars])
    engine = MasseyEngine(dga, budget=args.budget, homogeneous_aux=False)
    out = engine.k_step(classes, args.k)
    values = {"tuple": [[{"mono": list(m), "c": str(c)}
                         for m, c in sorted(cls.rep.items())]
                        for cls in out.classes]} if out.defined else {}
    return _report(
        args, k=args.k, n=n, defined=out.defined, triviality=out.triviality,
        complete=out.complete, inconclusive=out.inconclusive, seed=args.seed,
        classes=[[str(a), str(b)] for a, b in scalars],
        **values)


def cmd_golod(args) -> int:
    K = SimplicialComplex.from_json(_read_input(args.infile))
    verdict = golod_test(K, args.field, order_cap=args.order_cap,
                         budget=args.budget)
    witness = {}
    if verdict.witness is not None:
        kind, *rest = verdict.witness  # ("product", x, y), ("massey", cs, _)
        witness = {"witness_kind": kind, "witness_supports": [
            list(c.I) for c in (rest if kind == "product" else rest[0])]}
    return _report(
        args, m=K.m, status=verdict.status, order_cap=verdict.order_cap,
        multiplication_trivial=verdict.multiplication_trivial,
        massey_trivial_up_to_cap=verdict.massey_trivial_up_to_cap, **witness)


def cmd_triple_scan(args) -> int:
    K = SimplicialComplex.from_json(_read_input(args.infile))
    stream = sys.stdout if args.out in (None, "-") else \
        open(args.out, "w", encoding="utf-8")
    try:
        for (e1, e2, e3, outcome) in iter_triple_massey_scan(
                K, args.field, budget=args.budget):
            line = _outcome_json(outcome)
            line.update({"schema": SCHEMA, "supports":
                         [list(e1), list(e2), list(e3)]})
            stream.write(json.dumps(line, sort_keys=True) + "\n")
            stream.flush()
    finally:
        if stream is not sys.stdout:
            stream.close()
    return 0


def cmd_mainlemma(args) -> int:
    K = SimplicialComplex.from_json(_read_input(args.infile))
    supports, dims = _supports_and_dims(args, K.m, 0)
    res = mainlemma_check(K, supports, dims, args.field)
    return _report(args, supports=[list(I) for I in supports], dims=dims,
                   cond1=res["cond1"], cond2=res["cond2"])


def cmd_poincare(args) -> int:
    ring = MonomialQuotient.from_json(_read_input(args.infile))
    _alg, betti = koszul_homology(ring, args.field)
    tor = minimal_resolution_betti(ring, args.order, args.field)
    bound = serre_bound(ring.n_vars, betti, args.order)
    return _report(
        args, n=ring.n_vars, order=args.order,
        koszul_betti={str(i): b for i, b in sorted(betti.items())},
        tor_dims=tor, serre_bound=[str(c) for c in bound],
        golod_equality=serre_equality(tor, bound))


def _multiwedge(args) -> SimplicialComplex:
    base = SimplicialComplex.from_json(_read_input(args.infile))
    return multiwedge(base, args.j.replace(",", " ").split())


# kind -> (the size options it needs, its builder); multiwedge also reads
# its base complex, from --in or stdin
GENERATORS = {
    "cube": (("n",), lambda args: cube(args.n)),
    "qn": (("n",), lambda args: qn(args.n)),
    "multiwedge": (("j",), _multiwedge),
    "anr": (("n", "r"), lambda args: anr(args.n, args.r)),
    "polygon": (("m",), lambda args: polygon(args.m)),
    "dodecahedron-nerve": ((), lambda args: dodecahedron_nerve()),
}
SIZE_OPTIONS = tuple(dict.fromkeys(
    opt for needs, _build in GENERATORS.values() for opt in needs))


def cmd_generate(args) -> int:
    needs, build = GENERATORS[args.kind]
    unread = [f"--{opt}" for opt in SIZE_OPTIONS
              if opt not in needs and getattr(args, opt) is not None]
    if args.infile is not None and args.kind != "multiwedge":
        unread.append("--in")
    if unread:
        raise InvalidInput(
            f"generate {args.kind} does not read {' or '.join(unread)}")
    missing = [f"--{opt}" for opt in needs if getattr(args, opt) is None]
    if missing:
        raise InvalidInput(
            f"generate {args.kind} needs {' and '.join(missing)}")
    _emit(json.loads(build(args).to_json()), args.out)
    return 0


# ---- argument wiring ---------------------------------------------------------

def _field_arg(text: str) -> Field:
    try:
        return Field.from_tag(text)
    except MasseyKitError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _count_arg(text: str) -> int:
    """An integer >= 0 (orders, order caps, budgets, window sizes),
    checked at parse time so that a bad value exits 2."""
    try:
        count = int(text)
    except ValueError:
        count = -1
    if count < 0:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 0, got {text!r}")
    return count


_FIELD = ("--field", {"type": _field_arg, "default": QQ,
                      "help": "q or fp:<prime>"})
_OUT = ("--out", {"default": None})
_IN = ("--in", {"dest": "infile", "default": None,
                "help": "input path (default: stdin)"})
_BUDGET = ("--budget", {"type": _count_arg, "default": 8})
_SEED = ("--seed", {"type": int, "default": 0})

# command -> (help, function, its arguments as (name, add_argument keywords))
COMMANDS = {
    "goncharova": ("dim H^q_w of the positive Witt algebra", cmd_goncharova, (
        _FIELD, _OUT, ("--qmax", {"type": _count_arg, "required": True}),
        ("--wmax", {"type": _count_arg, "required": True}))),
    "cohomology": ("CE cohomology of a Lie presentation", cmd_cohomology, (
        _FIELD, _OUT, _IN, ("--qmax", {"type": _count_arg, "default": 3}),
        ("--wmax", {"type": _count_arg, "default": 12}))),
    "betti": ("per-subset Betti table of a complex", cmd_betti, (
        _FIELD, _OUT, _IN,
        ("--format", {"choices": ("json", "csv"), "default": "json"}))),
    "massey": ("Massey product of face-ring classes", cmd_massey, (
        _FIELD, _OUT, _IN,
        ("--supports", {"required": True, "help": 'e.g. "1,4;2,5;3,6"'}),
        ("--dims", {"default": None, "help": 'e.g. "0;0;0"'}),
        _BUDGET, _SEED)),
    "kstep": ("k-step product of 1-classes over a Lie algebra", cmd_kstep, (
        _FIELD, _OUT, _IN,
        ("--lie", {"default": None,
                   "help": 'e.g. {"name":"m0","W":12} (default: stdin)'}),
        ("--classes", {"required": True,
                       "help": 'alpha,beta pairs: "1,0;0,1;1,2"'}),
        ("--k", {"type": int, "required": True}),
        ("--wmax", {"type": _count_arg, "default": 12}), _BUDGET, _SEED)),
    "golod": ("Golod certification up to an order cap", cmd_golod, (
        _FIELD, _OUT, _IN, ("--order-cap", {"type": _count_arg}), _BUDGET)),
    "triple-scan": ("scan ordered triples of disjoint missing edges",
                    cmd_triple_scan, (_FIELD, _OUT, _IN, _BUDGET)),
    "mainlemma": ("definedness/strictness conditions", cmd_mainlemma, (
        _FIELD, _OUT, _IN, ("--supports", {"required": True}),
        ("--dims", {"default": None}))),
    "poincare": ("resolution dims against the Serre bound", cmd_poincare, (
        _FIELD, _OUT, _IN, ("--order", {"type": _count_arg, "default": 6}))),
    "generate": ("built-in complexes and rings", cmd_generate, (
        _OUT, ("--in", {"dest": "infile", "default": None, "help":
                        "multiwedge only: base complex (default: stdin)"}),
        ("kind", {"choices": tuple(GENERATORS)}),
        ("--n", {"type": int, "default": None}),
        ("--r", {"type": int, "default": None}),
        ("--m", {"type": int, "default": None}),
        ("--j", {"default": None, "help": "copy counts for multiwedge"}))),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of the top level and of every command, or, when
    ``command`` is one of ``COMMANDS``, of that command alone.  The
    metavar lists every command either way, so usage, help and error
    text are the full parser's."""
    top = argparse.ArgumentParser(
        prog="masseykit",
        description="exact cohomology and Massey product computations")
    one = command in COMMANDS
    sub = top.add_subparsers(dest="command", required=True, metavar=(
        "{%s}" % ",".join(COMMANDS) if one else None))
    for name in (command,) if one else COMMANDS:
        text, func, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=text)
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return top


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so that the flush at
        # interpreter exit has somewhere to write and stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvalidInput, json.JSONDecodeError, KeyError, TypeError,
            ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MasseyKitError, AssertionError) as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
