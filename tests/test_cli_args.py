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

EXIT_CODES = {0, 1, 2, 3, 4, 70}


@pytest.mark.parametrize("argv", [
    ["verify", "--mode", "erm-nodes", "--synthetic", "6", "--hidden", "0"],
    ["verify", "--mode", "stability", "--synthetic", "6", "--hidden", "-1"],
    ["verify", "--mode", "stability", "--synthetic", "6", "--pairs", "-3"],
    ["verify", "--mode", "stability", "--synthetic", "6", "--pairs", "0"],
    ["treenorm", "--weights", "const:inf", "--dataset"],
    ["treenorm", "--depth", "3", "--weights", "table:1,inf", "--dataset"],
    # the sweep's const:2*eta preset is infinite
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
    (["wl-counterexample", "--format", "jsonl", "--tu-name", "X"], "--format, --tu-name"),
    (["wl-counterexample", "--seed", "5", "--norm", "l1", "--hidden", "4"],
     "--hidden, --norm, --seed"),
], ids=["stability-k", "stability-frac-hypotheses", "erm-graphs-pairs", "erm-graphs-frac",
        "erm-nodes-k-pairs", "wl-dataset", "wl-synthetic", "wl-format-tu-name",
        "wl-seed-norm-hidden"])
def test_cli_verify_rejects_flags_its_mode_does_not_read(argv, unread, tmp_path, capsys):
    mode, *flags = argv
    if mode != "wl-counterexample":
        flags += ["--synthetic", "6"]
    out = tmp_path / "report.json"
    assert main(["verify", "--mode", mode, *flags, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: verify --mode {mode} does not read {unread}\n"
    assert not out.exists()


@pytest.mark.parametrize("eta", ["1e306", "1e308"])
def test_cli_wl_counterexample_probe_overflow_exits_2(eta, capsys):
    assert main(["verify", "--mode", "wl-counterexample", "--eta", eta, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "not finite" in captured.err


def test_library_rejects_non_positive_sizes():
    with pytest.raises(ConfigError, match="hidden must be >= 1"):
        random_gin(0, 3, 0, 2)
    assert random_gin(0, 3, 0, 1).out_dim == 1  # a readout-only model has no hidden layer
    ds = synthetic_dataset(3, 0)
    for count in (0, -3):
        with pytest.raises(ConfigError, match="at least one pair"):
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
          ("--norm", *_choices(["l1", "l2"], ["l3"]), False),
          ("--format", *_choices(["jsonl"], ["tu"]), False)]
FLAGS = {
    "dist": [WEIGHTS, CACHE],
    "treenorm": [WEIGHTS],
    "subsample-graphs": [
        WEIGHTS, SEED, CACHE, ("--k", *_ints(1, 4), True),
        ("--method", *_choices(["tmd", "wl", "feature", "random"], ["x"]), False)],
    "subsample-nodes": [
        WEIGHTS, SEED, ("--frac", *FRACS, True),
        ("--heuristics", *_choices(["bfs,rw,kcore", "bfs", "kcore,rw"], [",", "bfs,x"]),
         False)],
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
