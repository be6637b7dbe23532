"""Tests for the command-line interface (driven in-process)."""

import numpy as np
import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Corpus + labeled dataset + trained model, built once via the CLI."""
    root = tmp_path_factory.mktemp("cli")
    mtx_dir = root / "corpus"
    ds_path = root / "ds.npz"
    model_path = root / "sel.npz"
    assert main(["corpus", "--scale", "0.004", "--max-nnz", "20000",
                 "--out", str(mtx_dir)]) == 0
    assert main(["label", "--scale", "0.008", "--max-nnz", "50000",
                 "--out", str(ds_path)]) == 0
    assert main(["train", "--dataset", str(ds_path), "--model", "decision_tree",
                 "--feature-set", "set12", "--out", str(model_path)]) == 0
    return root, mtx_dir, ds_path, model_path


class TestCorpus:
    def test_writes_mtx_and_manifest(self, workspace):
        _, mtx_dir, _, _ = workspace
        files = sorted(mtx_dir.glob("*.mtx"))
        assert files
        manifest = (mtx_dir / "manifest.csv").read_text().splitlines()
        assert manifest[0] == "name,family,rows,cols,nnz"
        assert len(manifest) - 1 == len(files)

    def test_mtx_files_parse(self, workspace):
        from repro.matrices import read_matrix_market

        _, mtx_dir, _, _ = workspace
        m = read_matrix_market(sorted(mtx_dir.glob("*.mtx"))[0])
        assert m.nnz > 0


class TestFeatures:
    def test_features_csv(self, workspace, capsys):
        _, mtx_dir, _, _ = workspace
        f = sorted(mtx_dir.glob("*.mtx"))[0]
        assert main(["features", str(f)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("matrix,n_rows,n_cols")
        assert out[1].startswith(f.name)
        assert len(out[1].split(",")) == 18  # name + 17 features


class TestLabelTrainPredict:
    def test_dataset_loads(self, workspace):
        from repro.core import SpMVDataset

        _, _, ds_path, _ = workspace
        ds = SpMVDataset.load(ds_path)
        assert len(ds) > 5
        assert ds.precision == "single"

    def test_model_artifact_roundtrip(self, workspace):
        from repro.core import FormatSelector

        _, _, _, model_path = workspace
        selector = FormatSelector.load(model_path)
        assert selector.model_name == "decision_tree"
        assert selector.feature_set == "set12"

    def test_predict_prints_formats(self, workspace, capsys):
        from repro.formats import FORMAT_NAMES

        _, mtx_dir, _, model_path = workspace
        files = [str(p) for p in sorted(mtx_dir.glob("*.mtx"))[:3]]
        assert main(["predict", "--model", str(model_path)] + files) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 3
        for line in out:
            fmt = line.split(": ")[1]
            assert fmt in FORMAT_NAMES


class TestCampaign:
    def test_campaign_runs_and_resumes(self, tmp_path, capsys):
        out = tmp_path / "campaign.npz"
        failures = tmp_path / "failures.csv"
        argv = ["campaign", "--scale", "0.008", "--max-nnz", "40000",
                "--workers", "2", "--out", str(out),
                "--failures", str(failures)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "best-format distribution" in first
        assert out.exists() and failures.exists()
        assert out.with_suffix(".npz.shards").is_dir()
        # Second run resumes from shards instead of re-measuring.
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "cached=" in second

    def test_campaign_dataset_matches_label(self, tmp_path):
        from repro.core import SpMVDataset

        camp, lab = tmp_path / "c.npz", tmp_path / "l.npz"
        common = ["--scale", "0.008", "--max-nnz", "40000"]
        assert main(["campaign", *common, "--no-resume", "--quiet",
                     "--out", str(camp)]) == 0
        assert main(["label", *common, "--out", str(lab)]) == 0
        a, b = SpMVDataset.load(camp), SpMVDataset.load(lab)
        assert a.names == b.names
        np.testing.assert_array_equal(a.times, b.times)
        assert a.reps == b.reps == 50


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_table_choices(self):
        args = build_parser().parse_args(["table", "table1"])
        assert args.name == "table1"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "table99"])


class TestTableCommand:
    def test_table1_runs_at_tiny_scale(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("REPRO_SCALE", "0.008")
        monkeypatch.setenv("REPRO_MAX_NNZ", "50000")
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        from repro.bench import runner

        runner.bench_corpus.cache_clear()
        runner.bench_dataset.cache_clear()
        try:
            assert main(["table", "table1"]) == 0
            out = capsys.readouterr().out
            assert "range" in out
        finally:
            runner.bench_corpus.cache_clear()
            runner.bench_dataset.cache_clear()


class TestObservability:
    def test_metrics_out_writes_checkable_snapshot(self, tmp_path):
        import json

        snap_path = tmp_path / "snap.json"
        assert main(["--metrics-out", str(snap_path), "campaign",
                     "--scale", "0.004", "--max-nnz", "20000", "--quiet",
                     "--no-resume", "--out", str(tmp_path / "ds.npz")]) == 0
        snap = json.loads(snap_path.read_text())
        assert snap["spans"]["campaign.run"]["count"] == 1
        assert "campaign.run/campaign.matrix" in snap["spans"]
        assert snap["metrics"]["campaign.matrices_ok"]["value"] > 0
        # The obs subcommand validates and renders it back.
        assert main(["obs", str(snap_path), "--check"]) == 0
        assert main(["obs", str(snap_path)]) == 0

    def test_trace_flag_prints_tables(self, tmp_path, capsys):
        assert main(["--trace", "label", "--scale", "0.004",
                     "--max-nnz", "20000",
                     "--out", str(tmp_path / "ds.npz")]) == 0
        err = capsys.readouterr().err
        assert "campaign.run" in err
        assert "gpu.benchmarks" in err

    def test_obs_disabled_without_flags(self, tmp_path):
        from repro import obs

        assert main(["corpus", "--scale", "0.004", "--max-nnz", "20000",
                     "--out", str(tmp_path / "mtx")]) == 0
        assert not obs.enabled()

    def test_obs_check_flags_corrupt_snapshot(self, tmp_path, capsys):
        import json

        bad = {
            "schema": "repro-obs-snapshot/v1",
            "spans": {"a/b": {"count": 1, "total_s": 1.0, "mean_s": 1.0,
                              "min_s": 1.0, "max_s": 1.0}},
            "metrics": {},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["obs", str(path), "--check"]) == 1
        assert "parent" in capsys.readouterr().out

    def test_obs_rejects_non_snapshot(self, tmp_path, capsys):
        path = tmp_path / "not.json"
        path.write_text('{"hello": 1}')
        assert main(["obs", str(path)]) == 1
        assert "error" in capsys.readouterr().err
