import json
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "masseykit.cli"]


def run_cli(args, stdin=None):
    return subprocess.run(CLI + args, input=stdin, capture_output=True,
                          text=True)


def test_goncharova_cli():
    res = run_cli(["goncharova", "--qmax", "2", "--wmax", "8"])
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["schema"] == 1
    got = {(e["q"], e["w"]) for e in data["entries"]}
    assert got == {(1, 1), (1, 2), (2, 5), (2, 7)}


def test_generate_and_betti_pipe():
    gen = run_cli(["generate", "polygon", "--m", "4"])
    assert gen.returncode == 0
    res = run_cli(["betti"], stdin=gen.stdout)
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["total"] == {"0": 1, "3": 2, "6": 1}


def test_betti_simplex_single_unit():
    simplex = json.dumps({"m": 3, "minimal_nonfaces": []})
    res = run_cli(["betti"], stdin=simplex)
    data = json.loads(res.stdout)
    assert data["entries"] == [{"i": 0, "I": [], "dim": 1}]


def test_betti_csv():
    res = run_cli(["betti", "--format", "csv"],
                  stdin=json.dumps({"m": 2, "minimal_nonfaces": [[1, 2]]}))
    assert res.returncode == 0
    assert res.stdout.splitlines()[0] == "i,I,dim"


def test_betti_names_the_first_entry_the_models_disagree_on(
        monkeypatch, tmp_path, capsys):
    """Exit 1 when the R(K) table differs from Hochster's, naming the
    first differing entry (i, I) in key order with both dims."""
    from masseykit import cli

    real = cli.rk_cohomology

    def perturbed(K, field):
        table = real(K, field)
        table.entries[(1, (1, 3))] += 1  # differs first
        del table.entries[(2, (1, 2, 3, 4))]
        return table

    monkeypatch.setattr(cli, "rk_cohomology", perturbed)
    path = tmp_path / "square.json"
    path.write_text(json.dumps({"m": 4, "minimal_nonfaces": [[1, 3], [2, 4]]}))
    assert cli.main(["betti", "--in", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.strip() == ("internal inconsistency: model tables disagree at "
                           "i = 1, I = [1, 3]: Hochster dim 1, R(K) dim 2")


def test_generate_qn_pipe_massey():
    gen = run_cli(["generate", "qn", "--n", "3"])
    assert gen.returncode == 0
    res = run_cli(["massey", "--supports", "1,4;2,5;3,6"], stdin=gen.stdout)
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["status"] == "strict"
    assert data["triviality"] == "nontrivial"
    assert data["strict"] is True


def test_kstep_cli():
    res = run_cli(["kstep", "--lie", '{"name": "m0", "W": 12}',
                   "--classes", "0,1;1,0;0,1", "--k", "1"])
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["defined"] is True
    assert len(data["tuple"]) == 2


def test_kstep_cli_says_whether_undefined_is_proven():
    # on m0 the 3-step product of e2,e2,e2,e2,e1 is undefined: at budget 8
    # the search stops early, at budget 40 it proves it
    args = ["kstep", "--lie", '{"name": "m0", "W": 12}',
            "--classes", "0,1;0,1;0,1;0,1;1,0", "--k", "3"]
    for budget, inconclusive in (("8", True), ("40", False)):
        res = run_cli(args + ["--budget", budget])
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["defined"] is False
        assert data["inconclusive"] is inconclusive
        assert data["complete"] is False


def test_mainlemma_cli():
    gen = run_cli(["generate", "qn", "--n", "3"])
    res = run_cli(["mainlemma", "--supports", "1,4;2,5;3,6",
                   "--dims", "0;0;0"], stdin=gen.stdout)
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["cond1"] and data["cond2"]


def test_golod_cli():
    res = run_cli(["golod", "--order-cap", "3"],
                  stdin=json.dumps({"m": 4,
                                    "minimal_nonfaces": [[1, 3], [2, 4]]}))
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["status"] == "not-golod"


def test_golod_bad_order_cap_exit_2():
    points = json.dumps({"m": 3, "minimal_nonfaces": [[1, 2], [1, 3], [2, 3]]})
    for cap in ("-5", "x"):
        res = run_cli(["golod", "--order-cap", cap], stdin=points)
        assert res.returncode == 2, cap
        assert "--order-cap" in res.stderr and "Traceback" not in res.stderr
        assert not res.stdout
    res = run_cli(["golod", "--order-cap", "3"], stdin=points)
    assert res.returncode == 0
    assert json.loads(res.stdout)["status"] == "golod-up-to-cap"


def test_triple_scan_cli_streams_jsonl():
    gen = run_cli(["generate", "polygon", "--m", "6"])
    res = run_cli(["triple-scan"], stdin=gen.stdout)
    assert res.returncode == 0
    lines = [json.loads(l) for l in res.stdout.splitlines() if l.strip()]
    assert lines
    assert all("status" in l and "supports" in l for l in lines)


def test_poincare_cli():
    ring = json.dumps({"n": 1, "gens": [[2]]})
    res = run_cli(["poincare", "--order", "5"], stdin=ring)
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["tor_dims"] == [1] * 6
    assert data["golod_equality"] is True


def test_poincare_negative_order_exit_2():
    ring = json.dumps({"n": 1, "gens": [[2]]})
    for order in ("-1", "x"):
        res = run_cli(["poincare", "--order", order], stdin=ring)
        assert res.returncode == 2, order
        assert "--order" in res.stderr and "Traceback" not in res.stderr
    res = run_cli(["poincare", "--order", "0"], stdin=ring)
    assert res.returncode == 0
    assert json.loads(res.stdout)["tor_dims"] == [1]


def test_poincare_resolves_once(monkeypatch, tmp_path, capsys):
    from masseykit import cli, monomial

    calls = []
    real = monomial.minimal_resolution_betti

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (cli, monomial):
        monkeypatch.setattr(module, "minimal_resolution_betti", counting)
    path = tmp_path / "ring.json"
    path.write_text(json.dumps({"n": 3, "gens": [[3, 0, 0], [0, 3, 0],
                                                 [0, 0, 3], [1, 1, 1]]}))
    assert cli.main(["poincare", "--order", "6", "--in", str(path)]) == 0
    assert len(calls) == 1
    monkeypatch.undo()
    data = json.loads(capsys.readouterr().out)
    ring = monomial.MonomialQuotient.from_json(path.read_text())
    assert data["golod_equality"] == monomial.golod_series_check(ring, 6)


def test_bad_input_exit_2():
    res = run_cli(["betti"], stdin="{not json")
    assert res.returncode == 2


@pytest.mark.parametrize("command,payload,size", [
    ("betti", {"m": -1, "minimal_nonfaces": []}, "m >= 0"),
    ("betti", {"m": -1, "facets": []}, "m >= 0"),
    ("golod", {"m": -2, "minimal_nonfaces": []}, "m >= 0"),
    ("triple-scan", {"m": -2, "minimal_nonfaces": []}, "m >= 0"),
    ("poincare", {"n": -1, "gens": []}, "n >= 0"),
])
def test_negative_size_exit_2(command, payload, size):
    res = run_cli([command], stdin=json.dumps(payload))
    assert res.returncode == 2, res.stderr
    assert size in res.stderr and not res.stdout


def test_empty_complex_and_ring_run():
    res = run_cli(["betti"], stdin=json.dumps({"m": 0,
                                               "minimal_nonfaces": []}))
    assert res.returncode == 0 and json.loads(res.stdout)["m"] == 0
    res = run_cli(["poincare"], stdin=json.dumps({"n": 0, "gens": []}))
    assert res.returncode == 0 and json.loads(res.stdout)["n"] == 0


@pytest.mark.parametrize("args,missing", [
    (["polygon"], "--m"),
    (["cube"], "--n"),
    (["qn"], "--n"),
    (["anr", "--r", "2"], "--n"),
    (["anr", "--n", "2"], "--r"),
    (["multiwedge"], "--j"),
])
def test_generate_without_its_size_exit_2(args, missing):
    res = run_cli(["generate"] + args,
                  stdin=json.dumps({"m": 2, "minimal_nonfaces": []}))
    assert res.returncode == 2, res.stderr
    assert f"needs {missing}" in res.stderr and not res.stdout


@pytest.mark.parametrize("args,unread", [
    (["cube", "--n", "2", "--m", "5", "--r", "9"], "--r or --m"),
    (["polygon", "--m", "5", "--n", "3"], "--n"),
    (["anr", "--n", "2", "--r", "2", "--j", "1,1"], "--j"),
    (["dodecahedron-nerve", "--m", "3"], "--m"),
    (["qn", "--n", "3", "--in", "base.json"], "--in"),
    (["multiwedge", "--j", "1,1", "--m", "4"], "--m"),
])
def test_generate_rejects_options_its_kind_does_not_read(args, unread):
    res = run_cli(["generate"] + args,
                  stdin=json.dumps({"m": 2, "minimal_nonfaces": []}))
    assert res.returncode == 2, res.stderr
    assert f"does not read {unread}" in res.stderr and not res.stdout


def test_generate_field_is_not_an_option_and_in_is_multiwedge_only(tmp_path):
    """No kind reads a field, so generate has no --field (as --budget on
    betti); --in is read by multiwedge alone, in place of stdin."""
    res = run_cli(["generate", "polygon", "--m", "5", "--field", "fp:2"])
    assert res.returncode == 2
    assert "unrecognized arguments: --field" in res.stderr
    base = tmp_path / "base.json"
    base.write_text(json.dumps({"m": 2, "minimal_nonfaces": []}))
    from_file = run_cli(["generate", "multiwedge", "--j", "1,2",
                         "--in", str(base)])
    from_stdin = run_cli(["generate", "multiwedge", "--j", "1,2"],
                         stdin=base.read_text())
    assert from_file.returncode == 0 and from_stdin.returncode == 0
    assert from_file.stdout == from_stdin.stdout and from_file.stdout


def test_budget_and_seed_only_where_read():
    """--budget and --seed are options of the subcommands that read them
    only; elsewhere they are bad input."""
    simplex = json.dumps({"m": 3, "minimal_nonfaces": []})
    for opt in ("--budget", "--seed"):
        res = run_cli(["betti", opt, "3"], stdin=simplex)
        assert res.returncode == 2, opt
        assert "unrecognized arguments" in res.stderr, opt
    gen = run_cli(["generate", "qn", "--n", "3"]).stdout
    res = run_cli(["massey", "--seed", "5", "--budget", "3",
                   "--supports", "1,4;2,5;3,6"], stdin=gen)
    assert res.returncode == 0
    assert json.loads(res.stdout)["seed"] == 5


def test_negative_budget_exit_2():
    """--budget is checked where it is parsed: a negative or non-integer
    budget is bad input for every subcommand that reads it, and 0 runs."""
    gen = run_cli(["generate", "polygon", "--m", "6"]).stdout
    commands = {
        "massey": ["massey", "--supports", "1,3;2,5;4,6"],
        "kstep": ["kstep", "--lie", '{"name":"m0","W":8}',
                  "--classes", "1,0;0,1;1,0", "--k", "2"],
        "golod": ["golod"],
        "triple-scan": ["triple-scan"],
    }
    for name, args in commands.items():
        for budget in ("-1", "x"):
            res = run_cli(args + ["--budget", budget], stdin=gen)
            assert res.returncode == 2, (name, budget)
            assert "--budget" in res.stderr and "Traceback" not in res.stderr
            assert not res.stdout
    res = run_cli(commands["triple-scan"] + ["--budget", "0"], stdin=gen)
    assert res.returncode == 0
    assert res.stdout.strip()


@pytest.mark.parametrize("args,opt", [
    (["goncharova", "--qmax", "-2", "--wmax", "8"], "--qmax"),
    (["goncharova", "--qmax", "2", "--wmax", "-1"], "--wmax"),
    (["cohomology", "--qmax", "-1"], "--qmax"),
    (["cohomology", "--wmax", "-1"], "--wmax"),
    (["kstep", "--lie", '{"name":"m0","W":8}', "--classes", "1,0;0,1;1,0",
      "--k", "2", "--wmax", "-5"], "--wmax"),
])
def test_negative_window_size_exit_2(args, opt):
    """--qmax and --wmax are checked where they are parsed: a negative
    window size is bad input, not an empty table or a silent default."""
    res = run_cli(args, stdin=json.dumps({"name": "m0", "W": 12}))
    assert res.returncode == 2, res.stdout
    assert opt in res.stderr and "Traceback" not in res.stderr
    assert not res.stdout


@pytest.mark.parametrize("dims", ["0;0", "0;0;0;0"],
                         ids=["too_few", "too_many"])
def test_massey_dims_one_per_support_exit_2(dims):
    """--dims gives one degree per support; another count is bad input."""
    gen = run_cli(["generate", "polygon", "--m", "6"]).stdout
    res = run_cli(["massey", "--supports", "1,3;2,5;4,6", "--dims", dims],
                  stdin=gen)
    assert res.returncode == 2
    assert "need one degree per support" in res.stderr
    assert "Traceback" not in res.stderr
    assert not res.stdout


@pytest.mark.parametrize("dims,message", [
    ("-3;-3;-3", "no class on support (1, 3) in degree -3"),
    ("0;0;1", "no class on support (4, 6) in degree 1")],
    ids=["negative", "size-minus-one"])
def test_mainlemma_degree_without_classes_exit_2(dims, message):
    gen = run_cli(["generate", "polygon", "--m", "6"]).stdout
    res = run_cli(["mainlemma", "--supports", "1,3;2,5;4,6",
                   f"--dims={dims}"], stdin=gen)
    assert res.returncode == 2
    assert message in res.stderr
    assert "Traceback" not in res.stderr and not res.stdout


@pytest.mark.parametrize("command", ["massey", "mainlemma"])
@pytest.mark.parametrize("vertex", ["9", "0"])
def test_support_vertex_out_of_range_exit_2(command, vertex):
    """Every support vertex lies in 1..m; another is bad input, named in
    the message, for both commands that read --supports."""
    gen = run_cli(["generate", "polygon", "--m", "6"]).stdout
    res = run_cli([command, "--supports", f"1,3;2,5;4,{vertex}"], stdin=gen)
    assert res.returncode == 2
    assert f"support vertex {vertex} is not in 1..6" in res.stderr
    assert "Traceback" not in res.stderr
    assert not res.stdout


@pytest.mark.parametrize("command", ["massey", "mainlemma"])
@pytest.mark.parametrize("args,message", [
    (["--supports", "1,x;2,5"], "support vertex 'x' is not an integer"),
    (["--supports", "1,3;2,5.0"], "support vertex '5.0' is not an integer"),
    (["--supports", "1,3;2,5", "--dims", "a;0"],
     "degree 'a' is not an integer"),
    (["--supports", "1,3;2,5", "--dims", "0.5;0"],
     "degree '0.5' is not an integer")],
    ids=["vertex", "float-vertex", "degree", "float-degree"])
def test_support_and_degree_entries_are_integers_exit_2(command, args,
                                                         message):
    gen = run_cli(["generate", "polygon", "--m", "6"]).stdout
    res = run_cli([command] + args, stdin=gen)
    assert res.returncode == 2
    assert message in res.stderr
    assert "Traceback" not in res.stderr and not res.stdout


def _parse_outcome(call, capsys):
    """(stdout, stderr, exit code) of a call that ends in SystemExit."""
    with pytest.raises(SystemExit) as exc:
        call()
    out, err = capsys.readouterr()
    return out, err, exc.value.code


def test_one_command_parser_matches_the_full_parser(monkeypatch, capsys):
    """``main`` builds the parser of the invoked command alone; its help,
    its error on a missing required argument, a missing option value and
    an unrecognized argument are the full parser's, byte for byte.  With
    no command (help, no arguments, an unknown one) all are built."""
    from masseykit import cli

    built = []
    real = cli.build_parser

    def recording(command=None):
        parser = real(command)
        built.append(parser._subparsers._group_actions[0].choices)
        return parser

    monkeypatch.setattr(cli, "build_parser", recording)
    cases = [["--help"], [], ["nope"], ["-h", "betti"]]
    for name, (_help, _func, arguments) in cli.COMMANDS.items():
        cases += [[name, "-h"], [name, "--out"], [name, "--bogus", "1"]]
        if any(kw.get("required") or not flag.startswith("-")
               for flag, kw in arguments):
            cases.append([name])
    for argv in cases:
        built.clear()
        got = _parse_outcome(lambda: cli.main(list(argv)), capsys)
        want = _parse_outcome(lambda: real().parse_args(argv), capsys)
        assert got == want, argv
        assert got[1] or got[0].startswith("usage: masseykit"), argv
        expect = [argv[0]] if argv and argv[0] in cli.COMMANDS \
            else list(cli.COMMANDS)
        assert [list(choices) for choices in built] == [expect], argv


def test_closed_stdout_exits_0_silently(tmp_path):
    """A reader that stops early, as ``triple-scan ... | head -1`` does,
    ends the scan with exit 0 and nothing on stderr."""
    octagon = tmp_path / "octagon.json"
    octagon.write_text(run_cli(["generate", "polygon", "--m", "8"]).stdout)
    with subprocess.Popen(CLI + ["triple-scan", "--in", str(octagon)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        assert json.loads(proc.stdout.readline())["supports"]
        proc.stdout.close()
        assert proc.wait(timeout=120) == 0
        assert proc.stderr.read() == ""


def test_cap_exceeded_exit_3():
    big = json.dumps({"m": 15, "minimal_nonfaces": [[1, 2]]})
    res = run_cli(["betti"], stdin=big)
    assert res.returncode == 3


def test_deterministic_output():
    gen = run_cli(["generate", "qn", "--n", "3"]).stdout
    a = run_cli(["massey", "--supports", "1,4;2,5;3,6"], stdin=gen).stdout
    b = run_cli(["massey", "--supports", "1,4;2,5;3,6"], stdin=gen).stdout
    assert a == b


def test_cohomology_cli_named_algebra():
    lie = json.dumps({
        "name": "m0", "W": 8,
    })
    res = run_cli(["cohomology", "--qmax", "2", "--wmax", "8"], stdin=lie)
    assert res.returncode == 0
    data = json.loads(res.stdout)
    dims = {(e["q"], e["w"]): e["dim"] for e in data["entries"]}
    assert dims[(1, 1)] == 1 and dims[(1, 2)] == 1
    assert dims.get((2, 5)) == 1 and (2, 4) not in dims


def test_cohomology_cli_explicit_presentation():
    # three-generator two-step algebra: [e1, e2] = e3
    lie = json.dumps({
        "W": 4,
        "generators": [{"i": 1, "w": 1}, {"i": 2, "w": 1}, {"i": 3, "w": 2}],
        "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "c": "1"}]}],
    })
    res = run_cli(["cohomology", "--qmax", "2", "--wmax", "4"], stdin=lie)
    assert res.returncode == 0
    data = json.loads(res.stdout)
    dims = {(e["q"], e["w"]): e["dim"] for e in data["entries"]}
    # H^1 is spanned by e^1, e^2 (weight 1); e^3 is not closed
    assert dims.get((1, 1)) == 2
    assert (1, 2) not in dims
    # H^2: e^1 ^ e^3 and e^2 ^ e^3 are closed and not exact (weight 3)
    assert dims.get((2, 3)) == 2


def test_cohomology_negative_weight_exit_2():
    lie = json.dumps({"generators": [{"i": 1, "w": 5}, {"i": 2, "w": -3}],
                      "brackets": [], "W": 6})
    res = run_cli(["cohomology", "--qmax", "2", "--wmax", "6"], stdin=lie)
    assert res.returncode == 2
    assert "negative weight" in res.stderr


def _two_step(terms, gens=3, i=1, j=2):
    """[e_i, e_j] = terms on generators 1..gens of weight 1, 1, 2, ..."""
    return json.dumps({
        "W": 4,
        "generators": [{"i": g, "w": 1 if g < 3 else 2}
                       for g in range(1, gens + 1)],
        "brackets": [{"i": i, "j": j, "terms": terms}]})


@pytest.mark.parametrize("c", ["1/0", "x"])
def test_cohomology_bad_bracket_coefficient_exit_2(c):
    res = run_cli(["cohomology", "--qmax", "2", "--wmax", "4"],
                  stdin=_two_step([{"k": 3, "c": c}]))
    assert res.returncode == 2
    assert f"bracket coefficient {c!r} is not a rational number" in res.stderr


@pytest.mark.parametrize("lie, missing", [
    (_two_step([{"k": 9, "c": "1"}], gens=2), "[1,2] names 9"),
    (_two_step([], gens=2, j=5), "[1,5] names 5"),
    (_two_step([{"k": 2, "c": "1"}], gens=2, j=5), "[1,5] names 5")],
    ids=["term", "key", "key-with-term"])
def test_cohomology_bracket_outside_the_generators_exit_2(lie, missing):
    res = run_cli(["cohomology", "--qmax", "2", "--wmax", "4"], stdin=lie)
    assert res.returncode == 2
    assert f"bracket {missing}, which is not a generator" in res.stderr


def test_cohomology_bracket_violating_jacobi_exit_2():
    # [e1, e2] = e4, [e3, e4] = e5: the Jacobi sum on (1, 2, 3) is -e5, so
    # d d != 0 on the window and its ranks would print a meaningless H^3_3
    lie = json.dumps({
        "W": 3,
        "generators": [{"i": g, "w": w} for g, w in
                       ((1, 1), (2, 1), (3, 1), (4, 2), (5, 3))],
        "brackets": [{"i": 1, "j": 2, "terms": [{"k": 4, "c": "1"}]},
                     {"i": 3, "j": 4, "terms": [{"k": 5, "c": "1"}]}]})
    res = run_cli(["cohomology", "--qmax", "3", "--wmax", "3"], stdin=lie)
    assert res.returncode == 2
    assert "Jacobi identity on generators 1, 2, 3" in res.stderr
    assert "Traceback" not in res.stderr and not res.stdout


@pytest.mark.parametrize("c", ["1/0", "x"])
def test_kstep_bad_class_coefficient_exit_2(c):
    res = run_cli(["kstep", "--lie", '{"name": "m0", "W": 12}',
                   "--classes", f"{c},1;1,0;0,1", "--k", "1"])
    assert res.returncode == 2
    assert f"class coefficient {c!r} is not a rational number" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("classes, entry", [
    ("1,2,3;1,0", "1,2,3"), ("1;0,1", "1")], ids=["three", "one"])
def test_kstep_class_entry_of_wrong_length_exit_2(classes, entry):
    res = run_cli(["kstep", "--lie", '{"name": "m0", "W": 12}',
                   "--classes", classes, "--k", "1"])
    assert res.returncode == 2
    assert f"class entry {entry!r} is not of the form alpha,beta" in res.stderr
    assert "Traceback" not in res.stderr and not res.stdout


@pytest.mark.parametrize("args,stdin,message", [
    (["poincare"], '{"n": 1, "gens": [[2.7]]}',
     "generator exponent 2.7 is not an integer"),
    (["poincare"], '{"n": 1.0, "gens": [[2]]}',
     "variable count n 1.0 is not an integer"),
    (["betti"], '{"m": 3.9, "minimal_nonfaces": []}',
     "vertex count m 3.9 is not an integer"),
    (["betti"], '{"m": 3, "facets": [[1, 2], [true, 3]]}',
     "vertex True is not an integer"),
    (["kstep", "--lie", '{"name": "m0", "W": 12.9}', "--classes",
      "1,0;0,1;1,0", "--k", "2"], None,
     "W 12.9 is not an integer"),
    (["cohomology", "--qmax", "2", "--wmax", "4"], json.dumps({
        "W": 4, "generators": [{"i": 1, "w": 1.6}, {"i": 2, "w": 1}],
        "brackets": []}), "Lie weight 1.6 is not an integer"),
    (["cohomology", "--qmax", "2", "--wmax", "4"],
     _two_step([{"k": 3.0, "c": "1"}]), "bracket index 3.0 is not an integer"),
    (["cohomology", "--qmax", "2", "--wmax", "4"],
     _two_step([{"k": 3, "c": 0.1}]),
     "bracket coefficient 0.1 is not a rational number"),
    (["cohomology", "--qmax", "2", "--wmax", "4"],
     _two_step([{"k": 3, "c": True}]),
     "bracket coefficient True is not a rational number"),
], ids=["exponent", "n", "m", "vertex", "W", "weight", "index", "float",
        "bool"])
def test_json_number_read_inexactly_exit_2(args, stdin, message):
    """A JSON number is read exactly or rejected: a float is not cut to an
    int or taken as its binary value, and a bool is not 1."""
    res = run_cli(args, stdin=stdin)
    assert res.returncode == 2
    assert message in res.stderr
    assert "Traceback" not in res.stderr and not res.stdout


def test_json_integer_strings_and_fraction_strings_are_read():
    as_ints = run_cli(["betti"], stdin=json.dumps(
        {"m": 4, "minimal_nonfaces": [[1, 3], [2, 4]]}))
    as_strings = run_cli(["betti"], stdin=json.dumps(
        {"m": "4", "minimal_nonfaces": [[1, "3"], ["2", 4]]}))
    assert as_ints.returncode == as_strings.returncode == 0
    assert as_strings.stdout == as_ints.stdout
    res = run_cli(["cohomology", "--qmax", "2", "--wmax", "4"],
                  stdin=_two_step([{"k": "3", "c": "1/2"}]))
    assert res.returncode == 0


@pytest.mark.parametrize("j", ["1,x", "1,2.0"])
def test_generate_multiwedge_copy_count_not_an_integer_exit_2(j):
    res = run_cli(["generate", "multiwedge", "--j", j],
                  stdin=json.dumps({"m": 2, "minimal_nonfaces": []}))
    assert res.returncode == 2
    assert "copy count" in res.stderr and "is not an integer" in res.stderr
    assert "Traceback" not in res.stderr and not res.stdout


@pytest.mark.parametrize("tag", ["fp:2x", "fp:", "fp:2.0"])
def test_field_modulus_not_an_integer_exit_2(tag):
    res = run_cli(["goncharova", "--qmax", "1", "--wmax", "2",
                   "--field", tag])
    assert res.returncode == 2
    assert "field modulus" in res.stderr and not res.stdout


@pytest.mark.parametrize("args, stdin, message", [
    (["betti"], "[1, 2]", "complex JSON must be an object, not list"),
    (["betti"], '{"minimal_nonfaces": []}', "complex JSON needs the key 'm'"),
    (["poincare"], '{"n": 2}', "ring JSON needs the key 'gens'"),
    (["poincare"], '"ring"', "ring JSON must be an object, not str"),
    (["kstep", "--lie", '{"name": "m0"}', "--classes", "1,0;0,1;1,0",
      "--k", "2"], None, "Lie presentation 'm0' JSON needs the key 'W'"),
    (["cohomology"], '{"generators": []}',
     "Lie presentation JSON needs the key 'brackets'"),
    (["cohomology"], "3", "Lie presentation JSON must be an object, not int"),
    (["poincare"], '{"n": 2, "gens": [3]}',
     "ring JSON gens[0] must be a list, not int"),
    (["poincare"], '{"n": 2, "gens": 3}', "ring JSON gens must be a list, "
     "not int"),
    (["betti"], '{"m": 3, "facets": [1]}',
     "complex JSON facets[0] must be a list, not int"),
    (["betti"], '{"m": 3, "minimal_nonfaces": "[[1, 2]]"}',
     "complex JSON minimal_nonfaces must be a list, not str"),
    (["cohomology"], '{"generators": [{"i": 1}], "brackets": []}',
     "Lie presentation JSON generators[0] needs the key 'w'"),
    (["cohomology"], '{"generators": ["x"], "brackets": []}',
     "Lie presentation JSON generators[0] must be an object, not str"),
    (["cohomology"], '{"generators": [{"i": 1, "w": 1}], '
     '"brackets": [{"i": 1, "j": 1}]}',
     "Lie presentation JSON brackets[0] needs the key 'terms'"),
    (["cohomology"], '{"generators": [], "brackets": [[1, 1]]}',
     "Lie presentation JSON brackets[0] must be an object, not list"),
    (["cohomology"], '{"generators": [], "brackets": [{"i": 1, "j": 1, '
     '"terms": [{"k": 1}]}]}',
     "Lie presentation JSON brackets[0] terms[0] needs the key 'c'"),
    (["cohomology"], '{"generators": [], "brackets": [{"i": 1, "j": 1, '
     '"terms": ["{\\"k\\": 1, \\"c\\": 1}"]}]}',
     "Lie presentation JSON brackets[0] terms[0] must be an object, not str"),
], ids=["betti-list", "betti-m", "poincare-gens", "poincare-str", "kstep-W",
        "cohomology-brackets", "cohomology-int", "poincare-gen-int",
        "poincare-gens-int", "betti-facet-int", "betti-nonfaces-str",
        "cohomology-gen-w", "cohomology-gen-str", "cohomology-terms",
        "cohomology-bracket-list", "cohomology-term-c",
        "cohomology-term-json-str"])
def test_json_reader_names_what_is_wrong_exit_2(args, stdin, message):
    """A JSON document that is not an object, or lacks a key its reader
    needs, is bad input, and the message names the key; so is a nested
    entry (a generator, a bracket, a bracket term, a ring generator, a
    face) of the wrong type or without a key, and the message names the
    entry.  A nested entry given as a JSON string is not parsed again."""
    res = run_cli(args, stdin=stdin)
    assert res.returncode == 2
    assert f"error: {message}" in res.stderr
    assert "Traceback" not in res.stderr and not res.stdout


_QN3 = json.dumps({"m": 6, "minimal_nonfaces": [[1, 4], [2, 5], [3, 6]]})


# command -> (its arguments, its stdin), one per command with a JSON report
_REPORTS = {
    "goncharova": (["--qmax", "1", "--wmax", "3"], None),
    "cohomology": (["--qmax", "1", "--wmax", "3"], '{"name": "m0", "W": 4}'),
    "betti": ([], _QN3),
    "massey": (["--supports", "1,4;2,5;3,6"], _QN3),
    "kstep": (["--lie", '{"name": "m0", "W": 8}', "--classes", "1,0;0,1",
               "--k", "1"], None),
    "golod": (["--order-cap", "3"], _QN3),
    "mainlemma": (["--supports", "1,4;2,5;3,6"], _QN3),
    "poincare": (["--order", "2"], '{"n": 1, "gens": [[2]]}'),
}


@pytest.mark.parametrize("command", _REPORTS)
@pytest.mark.parametrize("tag", ["q", "fp:3"])
def test_every_json_report_carries_the_envelope(command, tag):
    """Every JSON report names its schema, the command that wrote it and
    the field it was computed over."""
    args, stdin = _REPORTS[command]
    res = run_cli([command, *args, "--field", tag], stdin=stdin)
    assert res.returncode == 0, res.stderr
    data = json.loads(res.stdout)
    assert (data["schema"], data["command"], data["field"]) == \
        (1, command, tag)
