"""Every argv ends in a documented exit code, never a traceback.

The fixed repros are flag values that once crashed or checked nothing;
the Hypothesis test draws argv for every subcommand on a 3-graph dataset,
with every size-like value capped so that no draw asks for real work.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from treesample import ConfigError, Graph, make_dataset, random_gin, save_jsonl
from treesample.cli import main
from treesample.synth import random_pairs, synthetic_dataset

from helpers import relabelled_pair

EXIT_CODES = {0, 1, 2, 3, 4, 70}


@pytest.mark.parametrize("argv", [
    ["verify", "--mode", "erm-nodes", "--synthetic", "6", "--hidden", "0"],
    ["verify", "--mode", "stability", "--synthetic", "6", "--hidden", "-1"],
    ["verify", "--mode", "stability", "--synthetic", "6", "--pairs", "-3"],
    ["verify", "--mode", "stability", "--synthetic", "6", "--pairs", "0"],
    ["treenorm", "--weights", "const:inf", "--dataset"],
    ["treenorm", "--depth", "3", "--weights", "table:1,inf", "--dataset"],
    # the sweep's largest preset, const:4*eta, is infinite
    ["verify", "--mode", "erm-nodes", "--synthetic", "6", "--eta", "1e308"],
    ["verify", "--mode", "wl-counterexample", "--eta", "nan"],
    ["verify", "--mode", "wl-counterexample", "--eta", "inf"],
    ["verify", "--mode", "wl-counterexample", "--eta", "0"],
    ["verify", "--mode", "wl-counterexample", "--depth", "0"],
    ["verify", "--mode", "wl-counterexample", "--depth", "-3"],
], ids=["erm-hidden-0", "stability-hidden-minus-1", "pairs-minus-3", "pairs-0",
        "weight-const-inf", "weight-table-inf", "erm-eta-1e308", "wl-eta-nan",
        "wl-eta-inf", "wl-eta-0", "wl-depth-0", "wl-depth-minus-3"])
def test_cli_rejects_non_positive_sizes(argv, tmp_path, capsys):
    if argv[-1] == "--dataset":
        argv = [*argv, str(_dataset_path(tmp_path))]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["dist", "--cache", "@", "--seed", "3"],
    ["treenorm", "--seed", "3"],
    ["treenorm", "--cache", "@"],
    ["subsample-nodes", "--frac", "0.5", "--cache", "@"],
    ["verify", "--mode", "erm-graphs", "--synthetic", "6", "--cache", "@"],
], ids=["dist-seed", "treenorm-seed", "treenorm-cache", "subsample-nodes-cache",
        "verify-cache"])
def test_cli_rejects_flags_the_command_does_not_read(argv, tmp_path, capsys):
    cache = tmp_path / "d.tmdc"
    argv = [str(cache) if arg == "@" else arg for arg in argv]
    assert main([*argv, "--dataset", str(_dataset_path(tmp_path))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unrecognized arguments: ") and "Traceback" not in err
    assert not cache.exists()


@pytest.mark.parametrize("argv, unread", [
    (["stability", "--k", "3"], "--k"),
    (["stability", "--frac", "0.5", "--hypotheses", "2"], "--frac, --hypotheses"),
    (["erm-graphs", "--pairs", "5"], "--pairs"),
    (["erm-graphs", "--frac", "0.5"], "--frac"),
    (["erm-nodes", "--k", "2", "--pairs", "5"], "--k, --pairs"),
    (["wl-counterexample", "--dataset", "/nonexistent.jsonl"], "--dataset"),
    (["wl-counterexample", "--synthetic", "6"], "--synthetic"),
    (["wl-counterexample", "--seed", "5", "--norm", "l1", "--hidden", "4"],
     "--hidden, --norm, --seed"),
], ids=["stability-k", "stability-frac-hypotheses", "erm-graphs-pairs", "erm-graphs-frac",
        "erm-nodes-k-pairs", "wl-dataset", "wl-synthetic", "wl-seed-norm-hidden"])
def test_cli_verify_rejects_flags_its_mode_does_not_read(argv, unread, tmp_path, capsys):
    mode, *flags = argv
    if mode != "wl-counterexample":
        flags += ["--synthetic", "6"]
    out = tmp_path / "report.json"
    assert main(["verify", "--mode", mode, *flags, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: verify --mode {mode} does not read {unread}\n"
    assert not out.exists()


@pytest.mark.parametrize("mode, dataset", [
    ("stability", "/nonexistent.jsonl"),
    ("erm-graphs", "@"),
    ("erm-nodes", "/nonexistent"),
], ids=["stability-dataset", "erm-graphs-dataset", "erm-nodes-dataset"])
def test_cli_verify_synthetic_refuses_the_dataset_flags(mode, dataset, tmp_path, capsys):
    if dataset == "@":  # a dataset that would load
        dataset = str(_dataset_path(tmp_path))
    out = tmp_path / "report.json"
    assert main(["verify", "--mode", mode, "--synthetic", "6", "--depth", "2",
                 "--dataset", dataset, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: verify --synthetic does not read --dataset\n"
    assert not out.exists()


@pytest.mark.parametrize("eta", ["1e306", "1e308"])
def test_cli_wl_counterexample_probe_overflow_exits_2(eta, capsys):
    assert main(["verify", "--mode", "wl-counterexample", "--eta", eta, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "not finite" in captured.err


@pytest.mark.parametrize("mode", ["stability", "erm-graphs", "erm-nodes"])
def test_cli_verify_names_the_eta_whose_largest_preset_overflows(mode, capsys):
    # this said "weight must be a finite real number, got inf"
    assert main(["verify", "--mode", mode, "--synthetic", "6", "--eta", "1e308"]) == 1
    assert capsys.readouterr().err == ("error: --eta 1e+308 puts the preset const:4*eta "
                                       "past the float range\n")


@pytest.mark.parametrize("mode", ["stability", "erm-graphs", "erm-nodes"])
def test_cli_verify_names_the_eta_whose_smallest_preset_underflows(mode, capsys):
    # this said "weight must be > 0, got 0.0"
    assert main(["verify", "--mode", mode, "--synthetic", "6", "--eta", "5e-324"]) == 1
    assert capsys.readouterr().err == ("error: --eta 5e-324 puts the preset const:0.5*eta "
                                       "below the smallest positive float\n")


@pytest.mark.parametrize("eta, message", [
    ("inf", "must be a finite real number, got inf"),
    ("nan", "must be a finite real number, got nan"),
    ("0", "must be > 0, got 0.0"),
    ("-1", "must be > 0, got -1.0"),
    ("x", "invalid float value: 'x'"),
])
def test_cli_eta_goes_through_the_real_gate(eta, message, capsys):
    assert main(["verify", "--mode", "wl-counterexample", f"--eta={eta}"]) == 1
    assert capsys.readouterr().err == f"error: argument --eta: {message}\n"


def test_library_rejects_non_positive_sizes():
    with pytest.raises(ConfigError, match="hidden must be >= 1"):
        random_gin(0, 3, 0, 2)
    assert random_gin(0, 3, 0, 1).out_dim == 1  # a readout-only model has no hidden layer
    with pytest.raises(ConfigError, match="feature_dim must be >= 1"):
        random_gin(0, 0, 8, 2)  # an empty dataset's width
    ds = synthetic_dataset(3, 0)
    for count in (0, -3):
        with pytest.raises(ConfigError, match=f"^count must be >= 1, got {count}$"):
            random_pairs(ds, count, 0)


def _dataset_path(directory):
    rng = np.random.default_rng(5)
    graphs = [Graph(n, [(u, u + 1) for u in range(n - 1)], rng.uniform(0, 2, (n, 2)),
                    label=i % 2) for i, n in enumerate((3, 5, 4))]
    path = directory / "ds.jsonl"
    save_jsonl(make_dataset(graphs), path)
    return path


def _ints(low, top):
    """Valid values ``low .. top`` and invalid ones from -3 up to ``low - 1``."""
    return st.integers(low, top).map(str), st.integers(-3, low - 1).map(str)


def _choices(valid, invalid):
    return st.sampled_from(valid), st.sampled_from(invalid)


JUNK = st.sampled_from(["", "x", "1.5", "-", "1e3", "0x10", "nan", "--json"])
FRACS = _choices(["0.2", "0.5", "1"], ["nan", "inf", "-inf", "0", "-0.5", "1e-300", "1.5"])
WEIGHTS = ("--weights", *_choices(
    ["const:1.0", "const:0.5", "table:1,2,3", "const:1e200"],
    ["const:inf", "const:0", "const:-1", "const:nan", "table:", "table:1,x",
     "zipf:2", "pascal"]), False)

SEED = ("--seed", *_ints(0, 3), False)
CACHE = ("--cache", None, None, False)  # a path, which the test fills in

# per subcommand: (flag, valid values, invalid values, required)
COMMON = [("--depth", *_ints(1, 4), False),
          ("--norm", *_choices(["l1", "l2"], ["l3"]), False)]
FLAGS = {
    "dist": [WEIGHTS, CACHE],
    "treenorm": [WEIGHTS],
    "subsample-graphs": [
        WEIGHTS, SEED, CACHE, ("--k", *_ints(1, 4), True),
        ("--method", *_choices(["tmd", "wl", "feature", "random"], ["x"]), False)],
    "subsample-nodes": [WEIGHTS, SEED, ("--frac", *FRACS, True)],
    "verify": [
        SEED, ("--mode", *_choices(["stability", "erm-graphs", "erm-nodes",
                                    "wl-counterexample"], ["x"]), True),
        ("--synthetic", *_ints(1, 12), False), ("--pairs", *_ints(1, 20), False),
        ("--hypotheses", *_ints(1, 4), False), ("--k", *_ints(1, 4), False),
        ("--frac", *FRACS, False), ("--hidden", *_ints(1, 8), False),
        ("--eta", *_choices(["0.5", "1", "4", "1e200"],
                            ["1e308", "inf", "nan", "0", "-1"]), False)],
}


@st.composite
def argvs(draw):
    """argv with each flag's value invalid in about one draw of six."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    for flag, valid, invalid, required in FLAGS[command] + COMMON:
        if valid is None:  # a path flag, in three draws of four
            if draw(st.integers(0, 3)) < 3:
                argv.append(flag)
        elif required or draw(st.integers(0, 2)) == 0:
            kind = draw(st.sampled_from(["valid"] * 10 + ["invalid", "junk"]))
            argv += [flag, draw({"valid": valid, "invalid": invalid, "junk": JUNK}[kind])]
    if draw(st.integers(0, 4)) < 4:  # without a dataset, only --synthetic loads
        argv.append("--dataset")
    if draw(st.integers(0, 3)) < 3:
        argv += ["--out", "--json"]
    return argv


@settings(max_examples=250, deadline=None, derandomize=True)
@given(argvs())
@example(["subsample-nodes", "--frac", "0.5", "--seed", "-1", "--dataset"])
@example(["verify", "--mode", "stability", "--eta", "1e308", "--dataset"])
@example(["verify", "--mode", "erm-nodes", "--eta", "1e308", "--dataset"])
@example(["verify", "--mode", "erm-graphs", "--k", "2", "--eta", "1e154", "--depth", "3",
          "--dataset"])
@example(["verify", "--mode", "wl-counterexample", "--eta", "1e308", "--json"])
def test_cli_argv_fuzz_exits_with_a_documented_code(argv):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = {"--dataset": str(_dataset_path(tmp)), "--cache": str(tmp / "d.tmdc"),
                 "--out": str(tmp / "out.json")}
        argv = [part for arg in argv
                for part in ([arg, paths[arg]] if arg in paths else [arg])]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in EXIT_CODES, (argv, code, err)
    assert "Traceback" not in err + out, argv
    if code in (1, 2):
        assert err.startswith("error: "), (argv, err)
    if "--json" in argv and code in (0, 4, 70):  # NaN and Infinity are no JSON
        json.loads(out.splitlines()[-1], parse_constant=_reject_constant)


def _reject_constant(name):
    raise AssertionError(f"stdout holds {name}, which is not JSON")


def _set(key, value):
    return lambda rec: {**rec, key: value}


def _drop(key):
    return lambda rec: {k: v for k, v in rec.items() if k != key}


def _more_edges(*edges):
    return lambda rec: {**rec, "edges": rec["edges"] + [list(e) for e in edges]}


def _map_rows(fn):
    return lambda rec: {**rec, "features": [fn(row) for row in rec["features"]]}


# one fault of a dataset record each: bad edges, a bad n, a missing key, an
# odd label, huge, non-finite or mixed-width features, or a line that is no
# record; "label-null" and "extra-key" are valid records
RECORD_FAULTS = {
    "self-loop": _more_edges((0, 0)),
    "duplicate-edge": _more_edges((1, 0)),
    "endpoint-past-n": _more_edges((0, 9)),
    "negative-endpoint": _more_edges((-1, 0)),
    "float-endpoint": _more_edges((0, 1.5)),
    "string-endpoint": _more_edges(("0", 1)),
    "edge-triple": _more_edges((0, 1, 2)),
    "edges-not-a-list": _set("edges", 3),
    "n-float": lambda rec: {**rec, "n": rec["n"] + 0.5},
    "n-string": lambda rec: {**rec, "n": str(rec["n"])},
    "n-negative": _set("n", -1),
    "n-bool": _set("n", True),
    "n-huge": _set("n", 10 ** 20),
    "no-n": _drop("n"),
    "no-edges": _drop("edges"),
    "no-features": _drop("features"),
    "label-float": _set("label", 1.5),
    "label-string": _set("label", "x"),
    "label-bool": _set("label", True),
    "label-huge": _set("label", 10 ** 30),
    "label-null": _set("label", None),
    "extra-key": _set("note", "kept"),
    "features-1e308": _map_rows(lambda row: [1e308] * len(row)),
    "features-nan": _map_rows(lambda row: [float("nan")] * len(row)),
    "features-inf": _map_rows(lambda row: [float("-inf")] * len(row)),
    "features-wider": _map_rows(lambda row: row + [0.5]),
    "features-ragged": lambda rec: {**rec, "features": rec["features"][:-1]
                                    + [rec["features"][-1][:1]]},
    "features-one-row-short": lambda rec: {**rec, "features": rec["features"][:-1]},
    "features-strings": _map_rows(lambda row: ["a"] * len(row)),
    "record-a-list": lambda rec: [rec["n"]],
    "record-empty": lambda rec: {},
    "not-json": lambda rec: "{",
}


# valid commands, each a few milliseconds on the three-graph dataset; "@c"
# is a cache path that the requests share
_BASE_ARGVS = [
    ["dist", "--cache", "@c"],
    ["treenorm"],
    ["subsample-graphs", "--k", "2", "--cache", "@c"],
    ["subsample-graphs", "--k", "1", "--method", "wl"],
    ["subsample-nodes", "--frac", "0.5"],
    ["verify", "--mode", "stability", "--pairs", "3"],
    ["verify", "--mode", "erm-graphs", "--k", "2", "--hypotheses", "2"],
    ["verify", "--mode", "erm-nodes", "--frac", "0.5", "--hypotheses", "2"],
    ["verify", "--mode", "wl-counterexample"],
]
# what a request adds: flag values, valid or not, flags the command may not
# read or that no command has (--format, --heuristics), both spellings of a
# negative infinity, and stray tokens
_EXTRAS = [
    ["--depth", "1"], ["--depth", "3"], ["--depth", "0"], ["--depth", "x"],
    ["--weights", "const:2"], ["--weights", "table:1,2,3"], ["--weights", "const:inf"],
    ["--weights", "zipf:2"], ["--norm", "l1"], ["--norm", "l3"], ["--format", "tu"],
    ["--seed", "2"], ["--seed", "-1"], ["--k", "9"], ["--k", "0"], ["--method", "feature"],
    ["--method", "random"], ["--frac", "1e-300"], ["--frac", "1.5"], ["--frac", "nan"],
    ["--frac", "-inf"], ["--frac=-inf"], ["--heuristics", "bfs"], ["--heuristics", ","],
    ["--synthetic", "6"], ["--synthetic", "0"], ["--pairs", "2"], ["--hypotheses", "1"],
    ["--hidden", "2"], ["--eta", "1e308"], ["--eta", "-inf"], ["--eta=-inf"],
    ["--eta", "5e-324"], ["--cache", "@c"], ["--json"], ["--out", "@out"], ["--dataset"],
    ["junk"],
]
_STDERR_LINE = {1: "error: ", 2: "error: ", 3: "cache mismatch: ",
                4: "preset-conditional failure: ", 70: "verification failed: "}


def test_cli_exit_code_contract_holds_on_faulty_records_and_reused_caches(tmp_path):
    # 640 seeded requests, 20 per record fault: a valid command plus up to
    # three extras (none in three requests of seven), on the clean file, the
    # faulty one or none.  Every call ends in a documented code; a failing
    # one writes one stderr line of its code's kind, and only verify fails
    # with 4 or 70.  Two cache paths persist across requests, and one is
    # deleted after a mismatch, as its message asks
    rng = np.random.default_rng(19)
    clean = _dataset_path(tmp_path)
    clean_records = [json.loads(line) for line in clean.read_text().splitlines()]
    caches = [tmp_path / "a.tmdc", tmp_path / "b.tmdc"]
    seen = set()
    for case, fault in enumerate(sorted(RECORD_FAULTS) * 20):
        records = list(clean_records)  # a fault builds a new record
        line = int(rng.integers(3))
        records[line] = RECORD_FAULTS[fault](records[line])
        faulty = tmp_path / "faulty.jsonl"
        faulty.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        argv = list(_BASE_ARGVS[rng.integers(len(_BASE_ARGVS))])
        for pick in rng.integers(len(_EXTRAS), size=rng.choice([0, 0, 0, 1, 1, 2, 3])):
            argv += _EXTRAS[pick]
        dataset = rng.choice(["clean", "faulty", "faulty", "faulty", "none"])
        if dataset != "none":
            argv += ["--dataset", str(clean if dataset == "clean" else faulty)]
        cache = caches[rng.integers(2)]
        paths = {"@c": str(cache), "@out": str(tmp_path / "out.json")}
        argv = [paths.get(arg, arg) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        err = err.getvalue()
        assert code in EXIT_CODES, (case, argv, code, err)
        if code == 0:
            assert err == "", (case, argv, err)
        else:
            assert err.count("\n") == 1 and err.endswith("\n"), (case, argv, err)
            assert err.startswith(_STDERR_LINE[code]), (case, argv, code, err)
            assert code in (1, 2, 3) or argv[0] == "verify", (case, argv, code)
        if code == 3:
            cache.unlink()
        seen.add(code)
    assert {0, 1, 2, 3} <= seen


@pytest.mark.parametrize("argv, message", [
    (["subsample-nodes", "--frac", "-inf"], "argument --frac: expected one argument"),
    (["subsample-nodes", "--frac=-inf"], "frac must be a finite real number, got -inf"),
    (["verify", "--mode", "wl-counterexample", "--eta", "-inf"],
     "argument --eta: expected one argument"),
    (["verify", "--mode", "wl-counterexample", "--eta=-inf"],
     "argument --eta: must be a finite real number, got -inf"),
], ids=["frac-space", "frac-equals", "eta-space", "eta-equals"])
def test_cli_negative_infinity_reaches_the_gate_only_after_an_equals_sign(argv, message,
                                                                          tmp_path, capsys):
    # argparse reads "-inf" after a space as a flag, so the value never
    # reaches the flag's check; README documents the --frac=-inf spelling
    if argv[0] == "subsample-nodes":
        argv = [*argv, "--dataset", str(_dataset_path(tmp_path))]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")


# datasets whose distances are each finite while a sum of them is not: the
# mean distance to the subgraphs, the k-medoids row sums, an exact sum inside
# the distance kernel, and the ERM chain over readout gaps past 1e154 (their
# squares overflow); and a zero-distance pair whose readouts differ in the
# last bits (seed 1: at depth 3 every stability preset printed Infinity);
# each with the depth that shows it
_HARD_DATA = {
    "subgraph-mean": ([Graph(2, [], [[0.85e308], [0.85e308]], label=i % 2)
                       for i in range(3)], "1"),
    "row-sums": ([Graph(1, [], [[f]], label=i % 2)
                  for i, f in enumerate((-0.8e308, 0.8e308, 0.8e308, -0.8e308))], "1"),
    "kernel-sum": ([Graph(3, [(0, 1), (1, 2)], np.full((3, 1), f), label=i % 2)
                    for i, f in enumerate((1.0, 1.5e308, 2.0))], "2"),
    "readout-gaps": ([Graph(4, [(0, 1), (1, 2), (2, 3)], np.full((4, 2), (i + 1) * 1e200),
                            label=i % 2) for i in range(4)], "2"),
    "relabelled-pair": (relabelled_pair(1), "3"),
}
_JSON_COMMANDS = [
    ["dist", "--cache", "@"],
    ["treenorm"],
    *(["subsample-graphs", "--k", "1", "--method", m] for m in ("tmd", "wl", "feature")),
    ["subsample-graphs", "--k", "1", "--method", "random", "--cache", "@"],
    ["subsample-nodes", "--frac", "0.5"],
    ["verify", "--mode", "stability", "--pairs", "3"],
    ["verify", "--mode", "erm-graphs", "--k", "1", "--hypotheses", "2"],
    ["verify", "--mode", "erm-nodes", "--frac", "0.5", "--hypotheses", "2"],
]


@pytest.mark.parametrize("argv", _JSON_COMMANDS, ids=[
    "dist", "treenorm", "graphs-tmd", "graphs-wl", "graphs-feature", "graphs-random",
    "nodes", "stability", "erm-graphs", "erm-nodes"])
@pytest.mark.parametrize("data", ["normal", *_HARD_DATA])
def test_cli_json_is_strict_or_the_command_exits_2(data, argv, tmp_path, capsys):
    if data == "normal":
        path, depth = _dataset_path(tmp_path), "2"
    else:
        graphs, depth = _HARD_DATA[data]
        path = tmp_path / "ds.jsonl"
        save_jsonl(make_dataset(graphs), path)
    argv = [str(tmp_path / "d.tmdc") if arg == "@" else arg for arg in argv]
    code = main([*argv, "--dataset", str(path), "--depth", depth, "--json"])
    out, err = capsys.readouterr()
    assert "Traceback" not in err + out
    if code == 2:
        assert err.startswith("error: ") and out == "", err
    else:
        assert code in (0, 4, 70), (code, err)
        json.loads(out.splitlines()[-1], parse_constant=_reject_constant)


_DEGENERATE = {
    "empty-file": [],
    "two-0-node-graphs": [Graph(0, [], np.zeros((0, 2)), label=i) for i in range(2)],
    "one-2-node-graph": [Graph(2, [(0, 1)], [[1.0], [2.0]], label=0)],
    "isolated-nodes": [Graph(n, [], np.full((n, 2), n / 2), label=n % 2) for n in (1, 3, 2)],
}


@pytest.mark.parametrize("argv", _JSON_COMMANDS, ids=[
    "dist", "treenorm", "graphs-tmd", "graphs-wl", "graphs-feature", "graphs-random",
    "nodes", "stability", "erm-graphs", "erm-nodes"])
@pytest.mark.parametrize("data", list(_DEGENERATE))
def test_cli_degenerate_dataset_exits_with_a_documented_code(data, argv, tmp_path, capsys):
    path = tmp_path / "ds.jsonl"
    save_jsonl(make_dataset(_DEGENERATE[data]), path)
    argv = [str(tmp_path / "d.tmdc") if arg == "@" else arg for arg in argv]
    code = main([*argv, "--dataset", str(path)])  # raises nothing
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3, 4), (code, err)
    if code in (1, 2):
        assert err.startswith("error: "), err


@pytest.mark.parametrize("heuristics", ["bogus", ","], ids=["bogus", "comma"])
@pytest.mark.parametrize("data", ["empty-file", "two-0-node-graphs"])
def test_cli_subsample_nodes_checks_heuristics_without_a_graph(data, heuristics,
                                                                tmp_path, capsys):
    # the candidate pool is always the BFS balls, the walk and the core pick,
    # so --heuristics is an unknown flag, refused before any graph is read
    path = tmp_path / "ds.jsonl"
    save_jsonl(make_dataset(_DEGENERATE[data]), path)
    code = main(["subsample-nodes", "--dataset", str(path), "--frac", "0.5",
                 "--heuristics", heuristics])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == f"error: unrecognized arguments: --heuristics {heuristics}\n"


@pytest.mark.parametrize("mode", ["erm-graphs", "erm-nodes"])
def test_cli_verify_erm_names_the_empty_dataset(mode, tmp_path, capsys):
    path = tmp_path / "ds.jsonl"
    save_jsonl(make_dataset([]), path)
    code = main(["verify", "--mode", mode, "--dataset", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == f"error: {mode} needs graphs; the dataset is empty\n"


def test_cli_erm_bound_past_the_float_range_exits_2(tmp_path, capsys):
    # keeping 1 of 3 isolated nodes puts epsilon at 1.18e308, finite, but
    # 2 c epsilon is not
    path = tmp_path / "ds.jsonl"
    save_jsonl(make_dataset([Graph(3, [], np.full((3, 1), 5.9e307), label=0)]), path)
    code = main(["verify", "--mode", "erm-nodes", "--dataset", str(path),
                 "--frac", "0.1", "--hypotheses", "2", "--json"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: the ERM bound 2 c eps overflowed") and "not finite" in err
