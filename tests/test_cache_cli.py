import json
import os

import numpy as np
import pytest

from treesample import (CacheMismatchError, Graph, StabilityReport, TmdConfig,
                        clustered_dataset, const_weights, load_or_compute,
                        make_dataset, pairwise_matrix, read_matrix, read_sidecar,
                        save_jsonl, sidecar_path, write_matrix)
from treesample.cli import main

from helpers import cfg, random_graph


@pytest.fixture
def small_ds():
    rng = np.random.default_rng(0)
    return make_dataset([random_graph(rng, n_max=5) for _ in range(6)])


def test_binary_round_trip_is_bit_exact(tmp_path, small_ds):
    c = cfg(2)
    dm = pairwise_matrix(small_ds, c)
    path = str(tmp_path / "d.tmdc")
    write_matrix(path, dm, norm="l2", dataset_hash="abc")
    back = read_matrix(path)
    assert (back.n, back.metric, back.depth, back.weight_preset) == \
        (dm.n, dm.metric, dm.depth, dm.weight_preset)
    assert np.array_equal(back.values, dm.values)
    meta = read_sidecar(path)
    assert meta == {"norm": "l2", "dataset_sha256": "abc", "metric": "tmd",
                    "depth": 2, "preset": "const:1.0"}


def test_read_rejects_foreign_bytes(tmp_path):
    path = tmp_path / "junk.tmdc"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CacheMismatchError, match="bad magic"):
        read_matrix(str(path))


def test_read_rejects_truncated_files(tmp_path, small_ds):
    path = str(tmp_path / "d.tmdc")
    write_matrix(path, pairwise_matrix(small_ds, cfg(2)))
    blob = open(path, "rb").read()
    # inside the header, inside a string, inside the value block
    for cut in (10, 22, len(blob) - 3):
        with open(path, "wb") as fh:
            fh.write(blob[:cut])
        with pytest.raises(CacheMismatchError, match="truncated"):
            read_matrix(path)


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


def test_load_or_compute_without_path_always_computes(small_ds):
    c = cfg(2)
    dm, recomputed = load_or_compute(None, small_ds, "tmd", c,
                                     lambda: pairwise_matrix(small_ds, c))
    assert recomputed


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
    before = open(cache, "rb").read()
    assert main(args) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["recomputed"] == 0
    assert second["checksum"] == first["checksum"]
    assert open(cache, "rb").read() == before


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
    blob = open(cache, "rb").read()
    with open(cache, "wb") as fh:
        fh.write(blob[:-5])
    assert main(args) == 3
    assert "truncated" in capsys.readouterr().err
    with open(cache, "wb") as fh:
        fh.write(blob)
    with open(sidecar_path(cache), "w", encoding="utf-8") as fh:
        fh.write('{"norm": "l2", "data')
    assert main(args) == 3
    assert "corrupt sidecar" in capsys.readouterr().err


def test_cli_dist_overflow_exits_2(tmp_path, capsys):
    ds = make_dataset([Graph(3, [(0, 1), (1, 2)], np.full((3, 2), 1e306)),
                       Graph(2, [(0, 1)], np.full((2, 2), -1e306))])
    path = tmp_path / "big.jsonl"
    save_jsonl(ds, path)
    with np.errstate(over="ignore"):
        code = main(["dist", "--dataset", str(path), "--weights", "const:1000",
                     "--cache", str(tmp_path / "d.tmdc")])
    assert code == 2
    err = capsys.readouterr().err
    assert "overflow" in err and "Traceback" not in err


def test_cli_treenorm_overflow_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.jsonl"
    save_jsonl(make_dataset([Graph(3, [(0, 1), (1, 2)], np.full((3, 1), 1.5e308))]),
               path)
    with np.errstate(over="ignore"):
        code = main(["treenorm", "--dataset", str(path), "--depth", "1", "--norm", "l1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "overflow" in err and "Traceback" not in err


def test_cli_treenorm_values_match_library(ds_path, capsys):
    assert main(["treenorm", "--dataset", ds_path, "--depth", "2", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    ds = clustered_dataset(10, 5, seed=0)
    from treesample import tree_norm
    assert out["values"] == [tree_norm(g, cfg(2)) for g in ds]


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


def test_cli_subsample_nodes(tmp_path, ds_path, capsys):
    out_path = str(tmp_path / "subs.jsonl")
    code = main(["subsample-nodes", "--dataset", ds_path, "--frac", "0.5",
                 "--depth", "2", "--json", "--out", out_path])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["graphs"] == 10
    assert payload["mean_tmd"] > 0.0
    from treesample import load_subsamples
    assert len(load_subsamples(out_path)) == 10
    assert main(["subsample-nodes", "--dataset", ds_path, "--frac", "1.5"]) == 1
    capsys.readouterr()


def test_cli_verify_wl_counterexample(capsys):
    assert main(["verify", "--mode", "wl-counterexample", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["wl_distance"] == 0.0
    assert payload["gin_gap"] > 1e-6


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
    # written and the documented preset-caveat code returned
    def fake_report(model, pairs, c):
        return StabilityReport(preset=c.weights.spec_string(), pairs=len(pairs),
                               max_ratio=2.0, violations=1, infinite=0,
                               ratios=[2.0])

    import treesample.cli as cli_mod
    monkeypatch.setattr(cli_mod, "stability_report", fake_report)
    out_path = str(tmp_path / "stab.json")
    code = main(["verify", "--mode", "stability", "--synthetic", "6",
                 "--pairs", "3", "--depth", "2", "--json", "--out", out_path])
    assert code == 4
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["passed_any"] is False
    assert "preset" in captured.err
    assert os.path.exists(out_path)


def test_cli_verify_hard_failure_still_emits(monkeypatch, capsys):
    import treesample.cli as cli_mod
    monkeypatch.setattr(cli_mod, "wl_distance", lambda *a, **k: 0.5)
    code = main(["verify", "--mode", "wl-counterexample", "--json"])
    assert code == 70
    captured = capsys.readouterr()
    assert json.loads(captured.out)["wl_distance"] == 0.5
    assert "verification failed" in captured.err


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
