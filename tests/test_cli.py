from __future__ import annotations

import csv
import hashlib
from dataclasses import fields, replace

import pytest

from coopattr import ConfigurationError
from coopattr.cli import main
from coopattr.config import (
    ExperimentConfig,
    load_experiment_config,
    loop_config,
    noise_sweep_config,
    parse_flat_config,
    world_config,
)
from coopattr.harness import CSV_COLUMNS


def test_parse_flat_config_basics():
    text = "# comment\nn_categories = 4\n\nlearning_rate=0.25  # inline\n"
    assert parse_flat_config(text) == {"n_categories": "4", "learning_rate": "0.25"}


def test_parse_flat_config_rejects_garbage():
    with pytest.raises(ConfigurationError):
        parse_flat_config("not a key value line\n")


def test_parse_flat_config_rejects_duplicate_key():
    with pytest.raises(ConfigurationError, match="duplicate key 'l2'"):
        parse_flat_config("l2 = 0.1\nmax_iters = 5\nl2 = 0.2\n")


@pytest.mark.parametrize(
    "text",
    [
        "max_iters = 100\nmax_iters = 200",
        "max_iters = 0",
        "learning_rate = 0",
        "learning_rate = -1",
        "learning_rate = inf",
        "l2 = -0.001",
        "l2 = nan",
        "tol = 1e-6",
        "transfers_per_category = 0",
        "prunes_per_category = 0",
        "prune_every = -3",
        "world_matrix_low = 0.5\nworld_matrix_high = 0.5",
        "unlabeled_per_category = 0",
        "n_categories = 1",
        # More categories than 2**(n_attributes - 1) separable profiles.
        "n_attributes = 10\nn_categories = 600",
        "attribute_flip_rate = 1.0",
        "feature_noise_std_a = nan",
        "feature_noise_std_b = inf",
        "noise_rng_seed = -1",
        "noise_levels = 0",
        "noise_seeds = 0",
        "noise_test_count = 0",
        "good_accuracy_target = 0.5",
        "good_accuracy_target = 1.0",
        "good_accuracy_target = 0.3",
        "good_accuracy_target = nan",
        "bad_accuracy_target = 0.5",
        "bad_accuracy_target = 1.0",
        "bad_accuracy_target = 0.3",
        "bad_accuracy_target = nan",
        # The good attributes must be the less noisy ones.
        "good_accuracy_target = 0.6\nbad_accuracy_target = 0.9",
        "good_accuracy_target = 0.7\nbad_accuracy_target = 0.7",
        "good_accuracy_target = 0.55",
        "bad_accuracy_target = 0.95",
    ],
)
def test_load_experiment_config_rejects_invalid_setting(tmp_path, text):
    path = tmp_path / "cfg.txt"
    path.write_text(text + "\n")
    with pytest.raises(ConfigurationError):
        load_experiment_config(path)


def test_load_experiment_config_defaults_and_overrides(tmp_path):
    assert load_experiment_config(None) == ExperimentConfig()
    path = tmp_path / "cfg.txt"
    path.write_text("n_distractors = 10\nfeature_noise_std_a = 0.2\n")
    cfg = load_experiment_config(path)
    assert cfg.n_distractors == 10
    assert cfg.feature_noise_std_a == 0.2
    assert cfg.n_categories == ExperimentConfig().n_categories


def test_load_experiment_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("no_such_key = 1\n")
    with pytest.raises(ConfigurationError):
        load_experiment_config(path)


def test_load_experiment_config_rejects_bad_value(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("n_categories = banana\n")
    with pytest.raises(ConfigurationError):
        load_experiment_config(path)


@pytest.fixture(scope="module")
def small_run_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    config = base / "cfg.txt"
    config.write_text(
        "n_categories = 3\n"
        "n_attributes = 4\n"
        "unlabeled_per_category = 6\n"
        "test_per_category = 4\n"
        "n_distractors = 8\n"
        "feature_dim_a = 6\n"
        "feature_dim_b = 5\n"
        "max_iters = 100\n"
    )
    out = base / "run"
    code = main(
        [
            "run",
            "--variant",
            "multiview_ind",
            "--config",
            str(config),
            "--seed",
            "1",
            "--iterations",
            "6",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    return out


def test_run_writes_records_csv(small_run_dir):
    with (small_run_dir / "records.csv").open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 6 * 2
    assert {row["agent"] for row in rows} == {"0", "1"}
    assert all(0.0 <= float(row["accuracy"]) <= 1.0 for row in rows)


def test_report_emits_csv_and_charts(small_run_dir):
    assert main(["report", "--in", str(small_run_dir)]) == 0
    report = (small_run_dir / "report.csv").read_text()
    assert report == (small_run_dir / "records.csv").read_text()
    for name in ("accuracy.svg", "purity.svg"):
        chart = (small_run_dir / name).read_text()
        assert chart.startswith("<svg") and "polyline" in chart


def test_report_requires_records(tmp_path):
    with pytest.raises(SystemExit):
        main(["report", "--in", str(tmp_path)])


def test_report_rejects_records_without_rows(tmp_path):
    (tmp_path / "records.csv").write_text(",".join(CSV_COLUMNS) + "\n")
    with pytest.raises(SystemExit, match="no records in .*records.csv"):
        main(["report", "--in", str(tmp_path)])
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize(
    "row",
    [
        "1,0,high,1.0,,2,0",
        "1,x,0.5,1.0,,2,0",
        "1,0,0.5",
        "1,0,0.5,1.0,,2,0,extra",
        "1,0,nan,inf,,2,0",
        "inf,0,0.5,1.0,,2,0",
    ],
)
def test_report_rejects_malformed_row(tmp_path, row):
    (tmp_path / "records.csv").write_text(",".join(CSV_COLUMNS) + "\n" + row + "\n")
    with pytest.raises(SystemExit, match="bad value in .*records.csv"):
        main(["report", "--in", str(tmp_path)])
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize(
    "argv", [["run", "--variant", "ssl_ind", "--iterations", "1"], ["sweep-noise"]]
)
def test_missing_config_file_is_an_error_message(tmp_path, argv):
    missing = tmp_path / "absent.cfg"
    with pytest.raises(SystemExit, match=f"^error: cannot read config file {missing}"):
        main(argv + ["--config", str(missing), "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


def test_unknown_variant_exits():
    with pytest.raises(SystemExit):
        main(["run", "--variant", "nope", "--out", "/tmp/x"])


def test_run_rejects_negative_seed(tmp_path):
    with pytest.raises(SystemExit, match="^error: "):
        main(["run", "--variant", "ssl_ind", "--seed", "-1", "--out", str(tmp_path)])


def test_sweep_noise_writes_results(tmp_path):
    config = tmp_path / "cfg.txt"
    config.write_text(
        "noise_levels = 2\n"
        "noise_seeds = 2\n"
        "noise_labeled_count = 30\n"
        "noise_test_count = 50\n"
    )
    out = tmp_path / "sweep"
    assert main(["sweep-noise", "--config", str(config), "--out", str(out)]) == 0
    lines = (out / "noise_results.csv").read_text().strip().split("\n")
    assert lines[0].startswith("good_noise_std,baseline_accuracy,cooperative_accuracy")
    assert len(lines) == 3


def test_noise_sweep_config_levels_span_good_to_bad():
    sweep = noise_sweep_config(ExperimentConfig(noise_levels=4, noise_seeds=2))
    assert len(sweep.levels) == 4
    assert sweep.levels[0] < sweep.levels[-1]
    assert sweep.levels[-1] == pytest.approx(sweep.study.bad_noise_std)


# SHA-256 of noise_results.csv for a 2-level, 3-seed sweep at noise seed 0,
# the same sweep as run_noise_study(default_noise_sweep(n_levels=2,
# n_seeds=3, rng_seed=0)); recorded before the noise-study settings that no
# caller set were removed.
GOLDEN_NOISE_RESULTS = "d445de55c50dd1b39b4c55e4ae3092c7332dd1af80c8505b24716f2ae0d7cd1d"


def test_sweep_noise_matches_golden_digest(tmp_path):
    config = tmp_path / "cfg.txt"
    config.write_text("noise_levels = 2\nnoise_seeds = 3\nnoise_rng_seed = 0\n")
    out = tmp_path / "sweep"
    assert main(["sweep-noise", "--config", str(config), "--out", str(out)]) == 0
    text = (out / "noise_results.csv").read_text()
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_NOISE_RESULTS


# One other valid value per ExperimentConfig key.
_OTHER_VALUES = {
    "n_categories": 8,
    "n_attributes": 8,
    "seeds_per_category": 4,
    "unlabeled_per_category": 20,
    "test_per_category": 10,
    "n_distractors": 100,
    "feature_dim_a": 8,
    "feature_dim_b": 8,
    "feature_noise_std_a": 0.3,
    "feature_noise_std_b": 0.3,
    "attribute_flip_rate": 0.1,
    "world_matrix_low": 0.2,
    "world_matrix_high": 0.8,
    "transfers_per_category": 3,
    "prunes_per_category": 4,
    "prune_every": 0,
    "l2": 1e-2,
    "learning_rate": 0.25,
    "max_iters": 100,
    "noise_levels": 3,
    "good_accuracy_target": 0.9,
    "bad_accuracy_target": 0.6,
    "noise_labeled_count": 40,
    "noise_test_count": 100,
    "noise_seeds": 5,
    "noise_rng_seed": 1,
}


def _built(cfg):
    """What a run builds from the config, in comparable form."""
    world = world_config(cfg, seed=0)
    sweep = noise_sweep_config(cfg)
    return (
        {f.name: getattr(world, f.name) for f in fields(world) if f.name != "ground_truth_matrix"},
        world.ground_truth_matrix.tobytes(),
        loop_config(cfg),
        vars(sweep.study),
        sweep.levels,
        sweep.n_seeds,
    )


@pytest.fixture(scope="module")
def default_built():
    return _built(ExperimentConfig())


@pytest.mark.parametrize("key", [f.name for f in fields(ExperimentConfig)])
def test_every_config_key_changes_what_a_run_builds(key, default_built):
    value = _OTHER_VALUES[key]
    assert value != getattr(ExperimentConfig(), key)
    assert _built(replace(ExperimentConfig(), **{key: value})) != default_built
