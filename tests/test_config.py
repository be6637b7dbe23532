"""ReproConfig: the single REPRO_* resolution point."""

import pytest

from repro.config import DEFAULT_REPS, ReproConfig

ENV_VARS = ("REPRO_SCALE", "REPRO_MAX_NNZ", "REPRO_SEED", "REPRO_REPS",
            "REPRO_WORKERS", "REPRO_CACHE")
ENV_READERS = ("environ", "getenv")


@pytest.fixture
def clean_env(monkeypatch):
    for var in ENV_VARS:
        monkeypatch.delenv(var, raising=False)
    return monkeypatch


class TestFromEnv:
    def test_defaults(self, clean_env):
        cfg = ReproConfig.from_env()
        assert cfg == ReproConfig()
        assert cfg.scale == 0.1
        assert cfg.max_nnz == 2_000_000
        assert cfg.seed == 0
        assert cfg.reps == DEFAULT_REPS
        assert cfg.workers == 1
        assert cfg.cache_dir == ".repro_cache"

    def test_env_parity(self, clean_env):
        """Every documented REPRO_* variable lands in its field."""
        clean_env.setenv("REPRO_SCALE", "0.33")
        clean_env.setenv("REPRO_MAX_NNZ", "5e5")  # historical spelling
        clean_env.setenv("REPRO_SEED", "9")
        clean_env.setenv("REPRO_REPS", "7")
        clean_env.setenv("REPRO_WORKERS", "4")
        clean_env.setenv("REPRO_CACHE", "/tmp/cache")
        cfg = ReproConfig.from_env()
        assert cfg.scale == 0.33
        assert cfg.max_nnz == 500_000
        assert cfg.seed == 9
        assert cfg.reps == 7
        assert cfg.workers == 4
        assert cfg.cache_dir == "/tmp/cache"

    def test_explicit_mapping_beats_environ(self, clean_env):
        clean_env.setenv("REPRO_SCALE", "0.5")
        cfg = ReproConfig.from_env({"REPRO_SCALE": "0.25"})
        assert cfg.scale == 0.25

    def test_workers_floor(self, clean_env):
        clean_env.setenv("REPRO_WORKERS", "0")
        assert ReproConfig.from_env().workers == 1


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"scale": 0.0},
        {"scale": -1.0},
        {"max_nnz": 0},
        {"reps": 0},
        {"workers": 0},
    ])
    def test_rejects_degenerate_values(self, kwargs):
        with pytest.raises(ValueError):
            ReproConfig(**kwargs)


class TestObjectProtocol:
    def test_frozen_and_hashable(self):
        cfg = ReproConfig()
        with pytest.raises(Exception):
            cfg.scale = 0.5
        # Hash-equal configs must key a cache to the same slot; any
        # field change keys a new one.
        assert hash(ReproConfig()) == hash(ReproConfig())
        assert ReproConfig() != ReproConfig(seed=1)

    def test_replace(self):
        cfg = ReproConfig().replace(workers=8, scale=0.2)
        assert (cfg.workers, cfg.scale) == (8, 0.2)
        assert ReproConfig().workers == 1  # original untouched

    def test_paths_and_tag(self):
        cfg = ReproConfig(cache_dir="/data/c")
        assert str(cfg.cache_path) == "/data/c"
        assert cfg.shard_dir == cfg.cache_path / "shards"
        tag = cfg.dataset_tag("k40c", "single")
        assert tag.startswith("k40c_single_") and tag.endswith(".npz")
        assert cfg.replace(seed=1).dataset_tag("k40c", "single") != tag

    def test_to_dict_is_jsonable(self):
        import json

        d = ReproConfig().to_dict()
        assert json.loads(json.dumps(d)) == d
        assert set(d) == {"scale", "max_nnz", "seed", "reps", "workers",
                          "cache_dir"}


class TestCallSites:
    def test_bench_config_reads_env(self, clean_env):
        from repro.bench import runner

        clean_env.setenv("REPRO_SCALE", "0.4")
        cfg = runner.bench_config()
        assert isinstance(cfg, ReproConfig)
        assert cfg.scale == 0.4

    def test_only_config_reads_the_environment(self):
        """``ReproConfig.from_env`` is the one reader of ``os.environ``."""
        import ast
        from pathlib import Path

        import repro

        def reads_env(node) -> bool:
            if isinstance(node, ast.Attribute):
                return (node.attr in ENV_READERS and isinstance(node.value, ast.Name)
                        and node.value.id == "os")
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                return any(alias.name in ENV_READERS for alias in node.names)
            return False

        root = Path(repro.__file__).parent
        readers = [
            f"{path.relative_to(root)}:{node.lineno}"
            for path in sorted(root.rglob("*.py")) if path != root / "config.py"
            for node in ast.walk(ast.parse(path.read_text())) if reads_env(node)
        ]
        assert readers == []

    def test_campaign_workers_precedence(self, clean_env):
        from repro.bench.campaign import _resolve_workers

        clean_env.setenv("REPRO_WORKERS", "3")
        # explicit argument > environment > default
        assert _resolve_workers(5) == 5
        assert _resolve_workers(None) == 3
        clean_env.delenv("REPRO_WORKERS")
        assert _resolve_workers(None) == 1
