import dataclasses
import hashlib
import json
import math
import os
import stat
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from treesample import (CacheMismatchError, DistanceMatrix, ErmReport, Graph, StabilityReport,
                        clustered_dataset, const_weights, feature_distance_matrix,
                        kmedoids, load_or_compute, make_dataset, pairwise_matrix,
                        random_gin, random_pairs, random_selection, read_matrix,
                        save_jsonl, stability_sweep, subsample_dataset, synthetic_dataset,
                        wl_pseudometric_matrix, write_matrix)
import treesample.cache as cache
from treesample.cli import LAMBDA_SWEEP, main

from helpers import cfg, random_graph, relabelled_pair


@pytest.fixture
def small_ds():
    rng = np.random.default_rng(0)
    return make_dataset([random_graph(rng, n_max=5) for _ in range(6)])


def test_binary_round_trip_is_bit_exact(tmp_path, small_ds):
    c = cfg(2)
    dm = pairwise_matrix(small_ds, c)
    path = str(tmp_path / "d.tmdc")
    write_matrix(path, dm, norm="l2", dataset_hash="abc")
    back, norm, dataset_hash = read_matrix(path)
    assert (back.n, back.metric, back.depth, back.weight_preset) == \
        (dm.n, dm.metric, dm.depth, dm.weight_preset)
    assert back.values.tobytes() == dm.values.tobytes()
    assert (norm, dataset_hash) == ("l2", "abc")
    assert os.listdir(tmp_path) == ["d.tmdc"]  # one file, no temp left behind


def test_cache_file_bytes_are_pinned(tmp_path):
    # the layout in cache.py's docstring, byte for byte: a changed writer
    # must not orphan the caches already on disk
    dm = DistanceMatrix(5, "tmd", 3, "const:0.5", np.arange(10) / 8.0)
    path = tmp_path / "d.tmdc"
    write_matrix(str(path), dm, norm="l1", dataset_hash="ab" * 32)
    blob = path.read_bytes()
    assert len(blob) == 262 and blob.endswith(dm.values.tobytes())
    assert hashlib.sha256(blob).hexdigest() == (
        "ddb49e678459805976e888f6db05b1831b9fe175f1cbfc611b9efbb8ff2671c1")


def test_write_matrix_hashes_and_writes_the_values_without_a_copy(tmp_path):
    # the values go from their array to the hash and the file: a bytes copy
    # joined to the header would peak at twice their size
    n = 1000
    dm = DistanceMatrix(n, "tmd", 2, "const:1.0",
                        np.random.default_rng(0).uniform(0, 9, n * (n - 1) // 2))
    tracemalloc.start()
    try:
        write_matrix(str(tmp_path / "d.tmdc"), dm, norm="l2", dataset_hash="abc")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dm.values.nbytes / 8, f"{peak} bytes for {dm.values.nbytes} of values"
    assert read_matrix(str(tmp_path / "d.tmdc"))[0].values.tobytes() == dm.values.tobytes()


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_cache_file_mode_follows_the_umask(tmp_path, small_ds, umask):
    # as an --out file: 0o644 under umask 022, so another account that shares
    # the cache directory can read it
    dm = pairwise_matrix(small_ds, cfg(2))
    old = os.umask(umask)
    try:
        write_matrix(str(tmp_path / "d.tmdc"), dm, norm="l2", dataset_hash="abc")
        (tmp_path / "plain.txt").write_text("")
    finally:
        os.umask(old)
    modes = {name: stat.S_IMODE(os.stat(tmp_path / name).st_mode)
             for name in ("d.tmdc", "plain.txt")}
    assert modes == {"d.tmdc": 0o666 & ~umask, "plain.txt": 0o666 & ~umask}


def test_failed_rename_removes_the_temp_file_and_keeps_the_old_cache(
        tmp_path, small_ds, monkeypatch):
    path = str(tmp_path / "d.tmdc")
    write_matrix(path, pairwise_matrix(small_ds, cfg(2)), norm="l2", dataset_hash="abc")
    before = Path(path).read_bytes()

    def fail(src, dst):
        raise OSError("rename failed")
    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename failed"):
        write_matrix(path, pairwise_matrix(small_ds, cfg(3)), norm="l2", dataset_hash="abc")
    assert os.listdir(tmp_path) == ["d.tmdc"]
    assert Path(path).read_bytes() == before


def test_read_rejects_foreign_bytes(tmp_path):
    path = tmp_path / "junk.tmdc"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CacheMismatchError, match="bad magic"):
        read_matrix(str(path))


def test_read_rejects_truncated_files(tmp_path, small_ds):
    path = str(tmp_path / "d.tmdc")
    write_matrix(path, pairwise_matrix(small_ds, cfg(2)), norm="l2", dataset_hash="abc")
    blob = Path(path).read_bytes()
    # inside the header, inside a string, inside the value block
    for cut in (10, 22, len(blob) - 3):
        Path(path).write_bytes(blob[:cut])
        with pytest.raises(CacheMismatchError, match="truncated"):
            read_matrix(path)


def _refuse():
    raise AssertionError("a rejected cache must not trigger a recompute")


def test_every_corruption_of_a_cache_is_a_mismatch(tmp_path):
    ds = make_dataset([random_graph(np.random.default_rng(s), n_max=4) for s in range(3)])
    c = cfg(2)
    path = tmp_path / "d.tmdc"
    load_or_compute(str(path), ds, "tmd", c, lambda: pairwise_matrix(ds, c))
    blob = path.read_bytes()
    copies = [blob[:cut] for cut in range(len(blob))] + [blob + bytes(8)]
    for i in range(len(blob)):
        for bit in (0, 7):
            copies.append(blob[:i] + bytes([blob[i] ^ (1 << bit)]) + blob[i + 1:])
    for bad in copies:
        path.write_bytes(bad)
        with pytest.raises(CacheMismatchError):
            load_or_compute(str(path), ds, "tmd", c, _refuse)
    path.write_bytes(blob + bytes(8))  # caught by the length check itself
    with pytest.raises(CacheMismatchError, match="bytes, expected"):
        read_matrix(str(path))
    path.write_bytes(blob)  # the intact file is still a hit
    assert load_or_compute(str(path), ds, "tmd", c, _refuse)[1] is False


def test_load_or_compute_hit_skips_work(tmp_path, small_ds):
    c = cfg(2)
    path = str(tmp_path / "d.tmdc")
    calls = []

    def compute():
        calls.append(1)
        return pairwise_matrix(small_ds, c)

    dm1, recomputed1 = load_or_compute(path, small_ds, "tmd", c, compute)
    dm2, recomputed2 = load_or_compute(path, small_ds, "tmd", c, compute)
    assert (recomputed1, recomputed2) == (True, False)
    assert len(calls) == 1  # the hit never re-enters the compute closure
    assert np.array_equal(dm1.values, dm2.values)


def test_load_or_compute_flags_stale_keys(tmp_path, small_ds):
    c = cfg(2)
    path = str(tmp_path / "d.tmdc")
    load_or_compute(path, small_ds, "tmd", c, lambda: pairwise_matrix(small_ds, c))
    with pytest.raises(CacheMismatchError, match="depth"):
        load_or_compute(path, small_ds, "tmd", cfg(3),
                        lambda: pairwise_matrix(small_ds, cfg(3)))
    with pytest.raises(CacheMismatchError, match="preset"):
        load_or_compute(path, small_ds, "tmd", cfg(2, w=2.0),
                        lambda: pairwise_matrix(small_ds, cfg(2, w=2.0)))
    other = make_dataset(small_ds.graphs[:-1])
    with pytest.raises(CacheMismatchError, match="hash|n "):
        load_or_compute(path, other, "tmd", c, lambda: pairwise_matrix(other, c))


def test_load_or_compute_without_path_always_computes(small_ds, monkeypatch):
    def no_hash(ds):  # the fingerprint keys a cache file, and there is none
        raise AssertionError("hashed the dataset without a cache path")

    monkeypatch.setattr(cache, "dataset_fingerprint", no_hash)
    c = cfg(2)
    dm, recomputed = load_or_compute(None, small_ds, "tmd", c,
                                     lambda: pairwise_matrix(small_ds, c))
    assert recomputed
    assert dm.values.tobytes() == pairwise_matrix(small_ds, c).values.tobytes()


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

@pytest.fixture
def ds_path(tmp_path):
    ds = clustered_dataset(10, 5, seed=0)
    path = tmp_path / "ds.jsonl"
    save_jsonl(ds, path)
    return str(path)


def test_cli_dist_caches_and_hits(tmp_path, ds_path, capsys):
    cache = str(tmp_path / "d.tmdc")
    args = ["dist", "--dataset", ds_path, "--cache", cache, "--depth", "2", "--json"]
    assert main(args) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["recomputed"] == 1
    before = Path(cache).read_bytes()
    assert main(args) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["recomputed"] == 0
    assert second["checksum"] == first["checksum"]
    assert Path(cache).read_bytes() == before
    # the whole key lives in the one file: no metadata file, no temp file
    assert sorted(os.listdir(tmp_path)) == ["d.tmdc", "ds.jsonl"]


def test_cli_dist_requires_cache(ds_path, capsys):
    assert main(["dist", "--dataset", ds_path]) == 1


def test_cli_exit_codes(tmp_path, ds_path, capsys):
    cache = str(tmp_path / "d.tmdc")
    assert main(["dist", "--dataset", ds_path, "--cache", cache]) == 0
    # config errors: bad weights, bad flag value, reserved preset name
    assert main(["dist", "--dataset", ds_path, "--cache", cache,
                 "--weights", "zipf:2"]) == 1
    assert main(["dist", "--dataset", ds_path, "--cache", cache,
                 "--weights", "pascal"]) == 1
    assert main(["treenorm", "--dataset", ds_path, "--norm", "l3"]) == 1
    # I/O errors: missing dataset
    assert main(["treenorm", "--dataset", str(tmp_path / "nope.jsonl")]) == 2
    # cache mismatch: same file, different depth
    assert main(["dist", "--dataset", ds_path, "--cache", cache,
                 "--depth", "3"]) == 3
    capsys.readouterr()


def test_cli_dist_truncated_or_corrupt_cache_is_a_mismatch(tmp_path, ds_path, capsys):
    cache = str(tmp_path / "d.tmdc")
    args = ["dist", "--dataset", ds_path, "--cache", cache]
    assert main(args) == 0
    blob = Path(cache).read_bytes()
    Path(cache).write_bytes(blob[:-5])
    assert main(args) == 3
    assert "truncated" in capsys.readouterr().err
    # one flipped bit in the last value fails the checksum
    Path(cache).write_bytes(blob[:-1] + bytes([blob[-1] ^ 1]))
    assert main(args) == 3
    err = capsys.readouterr().err
    assert "checksum" in err and "delete the file" in err


@pytest.mark.parametrize("command", [["dist"], ["subsample-graphs", "--k", "2"]],
                         ids=["dist", "subsample-graphs"])
def test_cli_cache_holding_a_nan_is_a_mismatch(tmp_path, ds_path, capsys, command):
    cache = tmp_path / "d.tmdc"
    args = [*command, "--dataset", ds_path, "--cache", str(cache)]
    assert main(args) == 0
    # one value turned NaN under a checksum that matches it
    blob = cache.read_bytes()
    m = 10 * 9 // 2
    head, values = blob[:-8 * m], blob[-8 * m:]
    nan_values = struct.pack("<d", math.nan) + values[8:]
    head = head.replace(hashlib.sha256(values).hexdigest().encode(),
                        hashlib.sha256(nan_values).hexdigest().encode())
    cache.write_bytes(head + nan_values)
    capsys.readouterr()
    assert main(args) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("cache mismatch: ") and "non-finite" in err


def test_cli_dist_rejects_a_version_1_cache(tmp_path, ds_path, capsys):
    ds = clustered_dataset(10, 5, seed=0)
    dm = pairwise_matrix(ds, cfg(2))
    cache = tmp_path / "d.tmdc"
    # the version-1 layout: magic, version, n, depth, metric, preset, values
    cache.write_bytes(b"TMDC" + struct.pack("<IQI", 1, dm.n, 2)
                      + struct.pack("<I", 3) + b"tmd"
                      + struct.pack("<I", 9) + b"const:1.0"
                      + dm.values.astype("<f8").tobytes())
    code = main(["dist", "--dataset", ds_path, "--cache", str(cache), "--depth", "2"])
    assert code == 3
    err = capsys.readouterr().err
    assert "version 1" in err and "delete the file" in err and "Traceback" not in err


@pytest.mark.filterwarnings("error")
def test_cli_dist_overflow_exits_2(tmp_path, capsys):
    ds = make_dataset([Graph(3, [(0, 1), (1, 2)], np.full((3, 2), 1e306)),
                       Graph(2, [(0, 1)], np.full((2, 2), -1e306))])
    path = tmp_path / "big.jsonl"
    save_jsonl(ds, path)
    code = main(["dist", "--dataset", str(path), "--weights", "const:1000",
                 "--cache", str(tmp_path / "d.tmdc")])
    assert code == 2
    err = capsys.readouterr().err
    assert "overflow" in err and "Traceback" not in err


@pytest.mark.filterwarnings("error")
def test_cli_dist_overflow_in_the_middle_of_a_dataset_exits_2(tmp_path, capsys):
    rng = np.random.default_rng(59)
    chains = [Graph(n, [(u, u + 1) for u in range(n - 1)],
                    np.full((n, 1), 1e306) if n == 5 else rng.uniform(0, 2, (n, 1)))
              for n in (2, 3, 5, 4, 6)]
    path = tmp_path / "big.jsonl"
    save_jsonl(make_dataset(chains), path)
    cache = tmp_path / "d.tmdc"
    code = main(["dist", "--dataset", str(path), "--depth", "3", "--norm", "l1",
                 "--weights", "const:1000", "--cache", str(cache)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "overflowed (n=2 vs n=5)" in err
    assert "Traceback" not in err and not cache.exists()


@pytest.mark.filterwarnings("error")
def test_cli_treenorm_overflow_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.jsonl"
    save_jsonl(make_dataset([Graph(3, [(0, 1), (1, 2)], np.full((3, 1), 1.5e308))]),
               path)
    # no np.errstate: a numpy overflow warning would be raised as an error
    code = main(["treenorm", "--dataset", str(path), "--depth", "1", "--norm", "l1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "overflow" in err and "Traceback" not in err
    # a finite weight whose depth-3 product w(2) w(1) is not
    save_jsonl(make_dataset([Graph(2, [(0, 1)], np.ones((2, 1)))]), path)
    code = main(["treenorm", "--dataset", str(path), "--depth", "3",
                 "--weights", "const:1e308"])
    assert code == 2
    err = capsys.readouterr().err
    assert "overflow" in err and "Traceback" not in err


@pytest.mark.parametrize("edges", ['[["0", "1"]]', "[[0, 1.5]]", "[[0, true]]"])
def test_cli_rejects_non_integer_edge_endpoints(tmp_path, capsys, edges):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"n": 2, "edges": [[0, 1]], "features": [[1.0], [2.0]]}\n'
                    f'{{"n": 2, "edges": {edges}, "features": [[1.0], [2.0]]}}\n')
    assert main(["treenorm", "--dataset", str(path)]) == 2
    err = capsys.readouterr().err
    assert "bad.jsonl:2" in err and "Traceback" not in err


@pytest.mark.parametrize("fields, problem", [
    ('"n": 2.7, "edges": [], "features": [[1.0], [2.0]]', "node_count"),
    ('"n": 2, "edges": [], "features": [[1.0], [2.0]], "label": 1.5', "label 1.5"),
    ('"n": 2, "edges": [], "features": [[1.0], [2.0]], "label": true', "label True"),
    ('"n": 2, "edges": [[0, 1], [1, 0]], "features": [[1.0], [2.0]]', "duplicate edge"),
    ('"n": 2, "edges": [], "features": [[1.0], [NaN]]', "non-finite"),
    ('"n": 3, "edges": [], "features": [[1.0], [2.0]]', "feature rows"),
], ids=["float-n", "float-label", "bool-label", "duplicate-edge", "nan-feature",
        "too-few-feature-rows"])
def test_cli_rejects_records_that_are_no_valid_graph(tmp_path, capsys, fields, problem):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"n": 2, "edges": [[0, 1]], "features": [[1.0], [2.0]]}\n'
                    f"{{{fields}}}\n")
    assert main(["treenorm", "--dataset", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}:2: " in err and problem in err and "Traceback" not in err


def test_cli_treenorm_values_match_library(ds_path, capsys):
    assert main(["treenorm", "--dataset", ds_path, "--depth", "2", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    ds = clustered_dataset(10, 5, seed=0)
    from treesample import tree_norm
    assert out["values"] == [tree_norm(g, cfg(2)) for g in ds]


def test_cli_treenorm_prints_one_value_per_line(tmp_path, capsys):
    path = tmp_path / "one.jsonl"
    save_jsonl(make_dataset([Graph(1, [], [[4.0]])]), path)
    out_path = tmp_path / "norms.json"
    assert main(["treenorm", "--dataset", str(path), "--out", str(out_path)]) == 0
    assert capsys.readouterr().out == "4.0\n"
    assert json.loads(out_path.read_text()) == {"values": [4.0]}
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["treenorm", "--dataset", str(empty)]) == 0
    assert capsys.readouterr().out == ""


def test_cli_subsample_graphs_methods(tmp_path, ds_path, capsys):
    for method in ("tmd", "wl", "feature", "random"):
        out_path = str(tmp_path / f"sel-{method}.json")
        code = main(["subsample-graphs", "--dataset", ds_path, "--k", "2",
                     "--method", method, "--depth", "2", "--json",
                     "--out", out_path])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == method
        assert len(payload["indices"]) == 2
        assert os.path.exists(out_path)
        # a second run with the same cache hits it and selects the same graphs
        argv = ["subsample-graphs", "--dataset", ds_path, "--k", "2", "--method",
                method, "--depth", "2", "--json", "--cache", str(tmp_path / method)]
        runs = []
        for _ in range(2):
            assert main(argv) == 0
            runs.append(json.loads(capsys.readouterr().out))
        if method == "random":  # the cache adds tmd weights and an objective
            assert runs[0]["indices"] == payload["indices"]
            assert payload["objective"] is None and runs[0]["objective"] is not None
            payload = runs[0]
        assert runs[0] == runs[1] == payload
    # the key still tells requests apart: another depth, another norm
    for method, flag, value in (("wl", "--depth", "3"), ("feature", "--norm", "l1")):
        assert main(["subsample-graphs", "--dataset", ds_path, "--k", "2", "--method",
                     method, "--depth", "2", "--cache", str(tmp_path / method),
                     flag, value]) == 3
        assert "stale cache" in capsys.readouterr().err


def test_cli_subsample_graphs_random_writes_then_hits_its_cache(tmp_path, ds_path,
                                                              capsys, monkeypatch):
    cache = tmp_path / "d.tmdc"
    argv = ["subsample-graphs", "--dataset", ds_path, "--k", "3", "--method", "random",
            "--depth", "2", "--json", "--cache", str(cache)]
    assert main(argv) == 0  # a miss: the matrix is computed and written
    first = json.loads(capsys.readouterr().out)
    dm, _ = load_or_compute(str(cache), clustered_dataset(10, 5, seed=0), "tmd", cfg(2),
                            _refuse)
    assert first["objective"] == random_selection(dm.n, 3, 0, d=dm).objective
    monkeypatch.setattr("treesample.cli.pairwise_matrix", _refuse)
    assert main(argv) == 0  # a hit: nothing is computed
    assert json.loads(capsys.readouterr().out) == first
    # without a cache, random stays matrix-free
    assert main(argv[:-2]) == 0
    plain = json.loads(capsys.readouterr().out)
    assert plain["indices"] == first["indices"] and plain["objective"] is None


def _refuse(*args):
    raise AssertionError("the cache was expected to hold this matrix")


def _selection_of(method, ds, k, seed, cached):
    """The selection ``subsample-graphs --method`` makes at depth 2, from library calls."""
    if method == "random":
        dm = pairwise_matrix(ds, cfg(2)) if cached else None
        return random_selection(len(ds), k, seed, d=dm)
    dm = {"tmd": lambda: pairwise_matrix(ds, cfg(2)),
          "wl": lambda: wl_pseudometric_matrix(ds, 2),
          "feature": lambda: feature_distance_matrix(ds, cfg(2))}[method]()
    return kmedoids(dm, k)


@pytest.mark.parametrize("method, cached", [("tmd", False), ("wl", False), ("feature", False),
                                            ("random", False), ("random", True)])
def test_cli_subsample_graphs_labels_the_selection_with_its_flags(tmp_path, ds_path, capsys,
                                                                 method, cached):
    sel = _selection_of(method, clustered_dataset(10, 5, seed=0), 3, 7, cached)
    want = json.dumps({**dataclasses.asdict(sel), "k": sel.k, "method": method, "seed": 7},
                      sort_keys=True) + "\n"
    argv = ["subsample-graphs", "--dataset", ds_path, "--k", "3", "--method", method,
            "--seed", "7", "--depth", "2"]
    if cached:
        argv += ["--cache", str(tmp_path / "d.tmdc")]
    out_path = tmp_path / "sel.json"
    assert main([*argv, "--json", "--out", str(out_path)]) == 0
    assert capsys.readouterr().out == want
    assert out_path.read_text(encoding="utf-8") == want
    assert main(argv) == 0
    assert capsys.readouterr().out == (f"method={method} k=3 indices={sel.indices} "
                                       f"tau={sel.tau} objective={sel.objective}\n")


def test_cli_verify_stability_labels_each_report_with_its_preset(capsys):
    assert main(["verify", "--mode", "stability", "--synthetic", "8", "--pairs", "6",
                 "--depth", "2", "--seed", "2", "--json"]) in (0, 4)
    ds = synthetic_dataset(8, 2)
    cfgs = [cfg(2, lam) for lam in LAMBDA_SWEEP]
    found = stability_sweep(random_gin(2, ds.feature_dim, 8, 2), ds.graphs,
                            random_pairs(ds, 6, 3), cfgs)
    assert json.loads(capsys.readouterr().out)["reports"] == [
        dict(json.loads(r.to_json()), preset=c.weights.spec_string())
        for c, r in zip(cfgs, found)]


@pytest.mark.parametrize("mode, flags", [("erm-graphs", ["--k", "5"]), ("erm-nodes", [])])
def test_cli_verify_erm_labels_each_report_with_its_preset_and_mode(capsys, mode, flags):
    assert main(["verify", "--mode", mode, "--synthetic", "6", "--depth", "2",
                 "--hypotheses", "2", *flags, "--json"]) in (0, 4)
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert [r["preset"] for r in reports] == [const_weights(lam).spec_string()
                                              for lam in LAMBDA_SWEEP]
    assert [r["mode"] for r in reports] == [mode.removeprefix("erm-")] * len(LAMBDA_SWEEP)


def test_cli_subsample_nodes(tmp_path, ds_path, capsys):
    out_path = str(tmp_path / "subs.jsonl")
    code = main(["subsample-nodes", "--dataset", ds_path, "--frac", "0.5",
                 "--depth", "2", "--json", "--out", out_path])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["graphs"] == 10
    assert payload["mean_tmd"] > 0.0
    subs = subsample_dataset(clustered_dataset(10, 5, seed=0), 0.5, cfg(2))
    assert Path(out_path).read_text(encoding="utf-8") == "".join(
        s.to_json() + "\n" for s in subs)
    records = [json.loads(line) for line in Path(out_path).read_text().splitlines()]
    assert [r["id"] for r in records] == list(range(10))
    assert math.fsum(r["tmd"] for r in records) / 10 == payload["mean_tmd"]
    assert main(["subsample-nodes", "--dataset", ds_path, "--frac", "1.5"]) == 1
    capsys.readouterr()


def test_cli_verify_wl_counterexample(capsys):
    assert main(["verify", "--mode", "wl-counterexample", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["wl_distance"] == 0.0
    assert payload["gin_gap"] > 1e-6


@pytest.mark.parametrize("weights", ["table:9,9", "const:1.0"])
def test_cli_verify_rejects_weights_it_would_not_use(capsys, weights):
    assert main(["verify", "--mode", "wl-counterexample", "--weights", weights]) == 1
    err = capsys.readouterr().err
    assert "--weights" in err and "const:{0.5,1,2,4}*eta" in err


def test_cli_verify_stability_smoke(tmp_path, capsys):
    out_path = str(tmp_path / "stab.json")
    code = main(["verify", "--mode", "stability", "--synthetic", "10",
                 "--pairs", "10", "--depth", "2", "--hidden", "4",
                 "--json", "--out", out_path])
    assert code in (0, 4)
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["reports"]) == 4  # one per sweep value
    assert os.path.exists(out_path)


def test_cli_verify_preset_failure_still_emits(monkeypatch, tmp_path, capsys):
    # force every sweep preset to report a violation: the report must still be
    # written and the documented preset-caveat code returned; the third preset
    # sees the fewest, and the diagnostic names it
    def fake_sweep(model, graphs, pairs, cfgs):
        return [StabilityReport(ratios=[0.5 if (i, j) == (2, 0) else 2.0
                                        for j in range(len(pairs))])
                for i, _ in enumerate(cfgs)]

    import treesample.cli as cli_mod
    monkeypatch.setattr(cli_mod, "stability_sweep", fake_sweep)
    out_path = str(tmp_path / "stab.json")
    code = main(["verify", "--mode", "stability", "--synthetic", "6",
                 "--pairs", "3", "--depth", "2", "--json", "--out", out_path])
    assert code == 4
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["passed_any"] is False
    assert [r["preset"] for r in payload["reports"]] == [
        const_weights(lam).spec_string() for lam in LAMBDA_SWEEP]
    assert captured.err == ("preset-conditional failure: all presets saw ratio > 1 (best "
                            "preset const:2.0 still had 2/3 violations, max ratio 2)\n")
    assert os.path.exists(out_path)


def test_cli_verify_hard_failure_still_emits(monkeypatch, capsys):
    import treesample.cli as cli_mod
    monkeypatch.setattr(cli_mod, "wl_pseudometric_matrix",
                        lambda ds, iterations: DistanceMatrix(2, "wl", iterations, "", [0.5]))
    code = main(["verify", "--mode", "wl-counterexample", "--json"])
    assert code == 70
    captured = capsys.readouterr()
    assert json.loads(captured.out)["wl_distance"] == 0.5
    assert "verification failed" in captured.err


def test_cli_verify_readout_gap_too_small_is_a_hard_failure(monkeypatch, capsys):
    import treesample.cli as cli_mod
    monkeypatch.setattr(cli_mod, "gin_forward", lambda model, g: np.zeros(1))
    assert main(["verify", "--mode", "wl-counterexample", "--json"]) == 70
    captured = capsys.readouterr()
    assert json.loads(captured.out)["gin_gap"] == 0.0
    assert captured.err == "verification failed: readout gap should exceed 1e-6, got 0.0\n"


STABILITY = ["verify", "--mode", "stability", "--pairs", "5", "--depth", "3", "--json"]


def _no_constant(name):
    raise AssertionError(f"stdout holds {name}, which is not JSON")


def test_cli_verify_stability_passes_a_relabelled_pair(tmp_path, capsys):
    path = tmp_path / "pair.jsonl"
    save_jsonl(make_dataset(relabelled_pair(1)), path)
    assert main([*STABILITY, "--dataset", str(path)]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out, parse_constant=_no_constant)
    assert [r["max_ratio"] for r in payload["reports"]] == [0.0] * 4
    assert captured.err == ""


def test_cli_verify_stability_zero_distance_gap_is_a_hard_failure(monkeypatch, capsys):
    import treesample.gnn as gnn_mod
    monkeypatch.setattr(gnn_mod, "_distances", lambda graphs, pairs, c: [0.0] * len(pairs))
    assert main([*STABILITY, "--synthetic", "6"]) == 70
    captured = capsys.readouterr()
    payload = json.loads(captured.out, parse_constant=_no_constant)
    assert [r["max_ratio"] for r in payload["reports"]] == [None] * 4
    assert captured.err == ("verification failed: 5/5 pairs at distance 0 have readouts "
                            "further apart than rounding (preset const:0.5)\n")


@pytest.mark.parametrize("mode", ["erm-graphs", "erm-nodes"])
def test_cli_verify_erm_refuses_an_unlabelled_dataset(tmp_path, capsys, mode):
    # finite_erm_sweep refuses it and names the first graph without a label
    rng = np.random.default_rng(0)
    graphs = [random_graph(rng, n_max=5) for _ in range(4)]
    labelled = [Graph(g.node_count, g.edges, g.features, label=1) for g in graphs[:2]]
    path = tmp_path / "unlabelled.jsonl"
    save_jsonl(make_dataset([*labelled, *graphs[2:]]), path)
    assert main(["verify", "--mode", mode, "--dataset", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: graph 2 has no label\n"


def _fake_erm_sweep(chain_ok: bool):
    """A finite_erm_sweep stand-in: one unsatisfied report per preset, the
    last preset the closest to the bound and the furthest over the chain."""
    def sweep(ds, hypotheses, plans):
        return [ErmReport(loss_full_of_erm=1.0, min_loss_full=0.25,
                          bound_rhs=0.1 * (i + 1), epsilon=0.1,
                          chain_max_excess=0.0 if chain_ok else 0.5 * (i + 1),
                          erm_index=0) for i in range(4)]
    return sweep


ERM_NODES = ["verify", "--mode", "erm-nodes", "--synthetic", "6", "--depth", "2",
             "--hypotheses", "2", "--json"]


def test_cli_verify_erm_nodes_broken_chain_is_a_hard_failure(monkeypatch, capsys):
    import treesample.cli as cli_mod
    monkeypatch.setattr(cli_mod, "finite_erm_sweep", _fake_erm_sweep(chain_ok=False))
    assert main(ERM_NODES) == 70
    captured = capsys.readouterr()
    assert json.loads(captured.out)["chain_ok"] is False
    assert captured.err == ("verification failed: transport-plan chain violated "
                            "by 2.000e+00 under preset const:4.0\n")


def test_cli_verify_erm_unsatisfied_bound_is_a_preset_failure(monkeypatch, capsys):
    import treesample.cli as cli_mod
    monkeypatch.setattr(cli_mod, "finite_erm_sweep", _fake_erm_sweep(chain_ok=True))
    assert main(ERM_NODES) == 4
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["chain_ok"] is True and payload["satisfied_any"] is False
    assert captured.err == ("preset-conditional failure: no preset satisfied the "
                            "2*c*eps bound (closest: const:4.0, excess 0.35)\n")


def test_cli_rejects_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    capsys.readouterr()


def test_cli_verify_erm_chain_caveat_uses_preset_code(tmp_path, capsys):
    # fewer medoids than label groups: some graph's nearest medoid carries a
    # different label, the chain's Lipschitz step is void, and the command
    # reports the documented caveat code rather than a hard failure
    out = tmp_path / "erm.json"
    code = main(["verify", "--mode", "erm-graphs", "--synthetic", "16",
                 "--depth", "3", "--hypotheses", "8", "--k", "4",
                 "--hidden", "8", "--eta", "1.0", "--json", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 4
    payload = json.loads(out.read_text())
    assert payload["passed_any"] is False
    assert payload["chain_ok"] is False
    assert len(payload["reports"]) == 4
    assert "mismatched labels" in err
