"""Corrupted dataset files end in a documented exit code, never a traceback.

Each example takes one valid dataset (JSON lines, or one file of a TU
directory) through one byte mutation: a bit flip, a truncation, a deletion
or an insertion.  ``treenorm`` and ``subsample-nodes`` must then call the
loader once and return 0 (the bytes still hold a valid dataset), 1, 2 or 3.
"""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

import treesample.cli as cli
from treesample import Graph, make_dataset, save_jsonl
from treesample.cli import main

COMMANDS = (["treenorm", "--depth", "3"],
            ["subsample-nodes", "--depth", "2", "--frac", "0.5"])
EXIT_CODES = {0, 1, 2, 3}

MUTATIONS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(0, 7)),
    st.tuples(st.just("truncate"), st.integers(0, 10**6)),
    st.tuples(st.just("delete"), st.integers(0, 10**6), st.integers(1, 4)),
    st.tuples(st.just("insert"), st.integers(0, 10**6),
              st.binary(min_size=1, max_size=4)),
)


def mutate(data: bytes, op) -> bytes:
    kind, pos = op[0], op[1] % (len(data) + 1)
    if kind == "flip":
        pos %= len(data)
        return data[:pos] + bytes([data[pos] ^ (1 << op[2])]) + data[pos + 1:]
    if kind == "truncate":
        return data[:pos]
    if kind == "delete":
        return data[:pos] + data[pos + op[2]:]
    return data[:pos] + op[2] + data[pos:]


def _graphs():
    rng = np.random.default_rng(3)
    out = []
    for i, n in enumerate((3, 5, 4)):
        edges = [(u, u + 1) for u in range(n - 1)] + [(0, n - 1)] * (n > 3)
        out.append(Graph(n, edges, np.round(rng.uniform(0, 2, (n, 2)), 1),
                         label=i % 2))
    return out


def _jsonl_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ds.jsonl"
        save_jsonl(make_dataset(_graphs()), path)
        return path.read_bytes()


def _tu_files() -> dict[str, bytes]:
    indicator, edges, attrs, labels = [], [], [], []
    offset = 0
    for gid, g in enumerate(_graphs(), start=1):
        indicator += [gid] * g.node_count
        edges += [(offset + u + 1, offset + v + 1) for u, v in g.edges]
        attrs += g.features.tolist()
        labels.append(g.label)
        offset += g.node_count
    lines = {"graph_indicator": indicator,
             "A": [f"{a}, {b}" for a, b in edges],
             "node_attributes": [", ".join(map(str, row)) for row in attrs],
             "graph_labels": labels}
    return {suffix: "".join(f"{x}\n" for x in rows).encode()
            for suffix, rows in lines.items()}


JSONL = _jsonl_bytes()
TU = _tu_files()


def _run_all(dataset_args) -> None:
    for command in COMMANDS:
        # spies on the names cli._load looks up (Hypothesis refuses the
        # function-scoped monkeypatch): exit 1 from a call that stops before
        # the loader, at argparse say, must not pass as a clean exit
        with (mock.patch.object(cli, "load_jsonl", wraps=cli.load_jsonl) as jsonl,
              mock.patch.object(cli, "load_tu", wraps=cli.load_tu) as tu):
            code = main(command + dataset_args)
        assert code in EXIT_CODES, (command, code)
        assert jsonl.call_count + tu.call_count == 1, (command, code)


def test_unmutated_datasets_load():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ds.jsonl"
        path.write_bytes(JSONL)
        for command in COMMANDS:
            assert main(command + ["--dataset", str(path)]) == 0
        for suffix, data in TU.items():
            (Path(tmp) / f"T_{suffix}.txt").write_bytes(data)
        for command in COMMANDS:
            assert main(command + ["--dataset", str(Path(tmp) / "T")]) == 0


@settings(max_examples=150, deadline=None, derandomize=True)
@given(MUTATIONS)
@example(("flip", 0, 7))  # '{' becomes 0xfb, which is not UTF-8
@example(("insert", 40, b"\xc3"))  # a truncated two-byte sequence
def test_corrupt_jsonl_dataset_exits_cleanly(op):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ds.jsonl"
        path.write_bytes(mutate(JSONL, op))
        _run_all(["--dataset", str(path)])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(TU)), MUTATIONS)
@example("graph_indicator", ("insert", 0, b"\xff"))
@example("graph_indicator", ("flip", 0, 6))  # '1' becomes 'q'
@example("graph_labels", ("insert", 0, b"x"))
def test_corrupt_tu_dataset_exits_cleanly(suffix, op):
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in TU.items():
            (Path(tmp) / f"T_{name}.txt").write_bytes(
                mutate(data, op) if name == suffix else data)
        _run_all(["--dataset", str(Path(tmp) / "T")])
