import json
import math

import numpy as np
import pytest

from qll.cli import ExperimentConfig, TrainSettings, build_loss, main, resolve_pi2
from qll.dataio import load_dataset
from qll.datagen import BaseSpec, MixSpec
from qll.losses import BinaryLossKind, MulticlassLossKind


def run(*argv):
    return main(list(argv))


GEN_SMALL = [
    "generate",
    "--c", "3", "--d", "6", "--n-per-class", "20", "--mix", "mixup",
    "--m", "2", "--r", "4", "--n", "80", "--seed", "7",
]


@pytest.fixture
def datadir(tmp_path):
    out = tmp_path / "data"
    assert run(*GEN_SMALL, "--out", str(out)) == 0
    return out


class TestBuildLoss:
    def test_known_methods(self):
        assert build_loss("ce") == MulticlassLossKind.ce()
        assert build_loss("bs") == MulticlassLossKind.bootstrap(0.4)
        assert build_loss("cpu-sjs") == BinaryLossKind.scaled_sjs()
        assert build_loss("cpu-kl") == BinaryLossKind.kl()

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            build_loss("dividemix")


class TestGenerate:
    def test_writes_three_datasets_with_sidecars(self, datadir, capsys):
        for stem in ("base_train", "base_test", "ambig_train"):
            assert (datadir / f"{stem}.qll").exists()
            assert (datadir / f"{stem}.meta").exists()

    def test_prints_entropy_summary(self, tmp_path, capsys):
        assert run(*GEN_SMALL, "--out", str(tmp_path / "d")) == 0
        out = capsys.readouterr().out
        assert "diagnostic entropy" in out
        mean_e = float(out.split("mean=")[1].split()[0])
        # two-way mixes cannot exceed the two-point entropy ceiling
        assert 0.0 < mean_e <= math.log(2) + 1e-9

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(*GEN_SMALL, "--out", str(a)) == 0
        assert run(*GEN_SMALL, "--out", str(b)) == 0
        for stem in ("base_train", "base_test", "ambig_train"):
            assert (a / f"{stem}.qll").read_bytes() == (b / f"{stem}.qll").read_bytes()
            assert (a / f"{stem}.meta").read_bytes() == (b / f"{stem}.meta").read_bytes()

    def test_patchmix_r_exceeding_d_rejected(self, tmp_path, capsys):
        code = run(
            "generate", "--c", "3", "--d", "4", "--mix", "patchmix",
            "--m", "2", "--r", "9", "--n", "10", "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert "r <= feature_dim" in capsys.readouterr().err

    def test_clean_entropy_prints_positive_zero(self, tmp_path, capsys):
        assert run("generate", "--c", "3", "--d", "4", "--n-per-class", "5", "--mix", "none",
                   "--out", str(tmp_path / "clean")) == 0
        out = capsys.readouterr().out
        assert "mean=0.0000 min=0.0000 max=0.0000" in out

    def test_ambiguous_set_loads_back(self, datadir):
        ds = load_dataset(datadir / "ambig_train.qll")
        assert ds.n_examples == 80
        assert ds.gen_meta.kind == "mixup"
        assert ds.diagnostics is not None


class TestTrain:
    def test_run_artifacts_and_determinism(self, datadir, tmp_path):
        rundir = tmp_path / "run1"
        args = [
            "train", "--data", str(datadir / "ambig_train.qll"),
            "--test", str(datadir / "base_test.qll"),
            "--method", "cpu-sjs", "--epochs", "2", "--seed", "3",
            "--out", str(rundir),
        ]
        assert run(*args) == 0
        for name in ("metrics.csv", "model.ckpt", "run.json"):
            assert (rundir / name).exists()
        first = (rundir / "metrics.csv").read_bytes()
        assert run(*args) == 0
        assert (rundir / "metrics.csv").read_bytes() == first

    def test_pi2_auto_resolves_to_m_over_c(self, datadir, tmp_path):
        rundir = tmp_path / "run2"
        assert run(
            "train", "--data", str(datadir / "ambig_train.qll"),
            "--test", str(datadir / "base_test.qll"),
            "--method", "cpu-kl", "--pi2", "auto", "--epochs", "1",
            "--out", str(rundir),
        ) == 0
        record = json.loads((rundir / "run.json").read_text())
        assert record["pi2"] == pytest.approx(2 / 3)  # m=2, c=3

    def test_baseline_dispatch(self, datadir, tmp_path):
        rundir = tmp_path / "run3"
        assert run(
            "train", "--data", str(datadir / "ambig_train.qll"),
            "--test", str(datadir / "base_test.qll"),
            "--method", "ce", "--epochs", "1", "--out", str(rundir),
        ) == 0
        record = json.loads((rundir / "run.json").read_text())
        assert record["method"] == "ce"
        assert record["pi1"] is None

    def test_missing_data_is_runtime_error(self, tmp_path):
        assert run(
            "train", "--data", str(tmp_path / "nope.qll"),
            "--test", str(tmp_path / "nope2.qll"), "--epochs", "1",
            "--out", str(tmp_path / "r"),
        ) == 2

    def test_one_example_final_batch_exits_2_naming_it(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert run(*GEN_SMALL, "--n", "81", "--out", str(out)) == 0  # 81 = 5*16 + 1
        assert run(
            "train", "--data", str(out / "ambig_train.qll"), "--test", str(out / "base_test.qll"),
            "--epochs", "1", "--out", str(tmp_path / "r"),
        ) == 2
        assert "81 examples at batch size 16 leave a final batch of one" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_pi2_that_is_not_a_number_is_named(self, datadir, tmp_path, capsys):
        data = ["--data", str(datadir / "ambig_train.qll"), "--test", str(datadir / "base_test.qll")]
        assert run("train", *data, "--pi2", "abc", "--epochs", "1", "--out", str(tmp_path / "r")) == 2
        assert "pi2 must be a number or 'auto', got 'abc'" in capsys.readouterr().err
        with pytest.raises(ValueError, match="pi2 must be a number"):
            resolve_pi2(None, load_dataset(datadir / "ambig_train.qll"))

    def test_unknown_method_is_usage_error(self, datadir, tmp_path):
        assert run(
            "train", "--data", str(datadir / "ambig_train.qll"),
            "--test", str(datadir / "base_test.qll"),
            "--method", "nope", "--out", str(tmp_path / "r"),
        ) == 1


class TestSweep:
    def test_single_point_grid_reduces_to_train(self, datadir, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert run(
            "sweep", "--data", str(datadir / "ambig_train.qll"),
            "--test", str(datadir / "base_test.qll"),
            "--method", "cpu-sjs", "--epochs", "1",
            "--pi2-grid", "auto", "--seeds", "1",
            "--out", str(out),
        ) == 0
        text = (out / "sweep_table.txt").read_text()
        assert "spread (max-min of means) = 0.0000" in text
        assert len([l for l in text.splitlines() if l.startswith("cpu-sjs")]) == 1
        assert (out / "sweep_table.csv").exists()

    def test_grid_rows_and_spread(self, datadir, tmp_path):
        out = tmp_path / "sweep2"
        assert run(
            "sweep", "--data", str(datadir / "ambig_train.qll"),
            "--test", str(datadir / "base_test.qll"),
            "--method", "cpu-kl", "--epochs", "1",
            "--pi2-grid", "0.3,0.6", "--seeds", "1,2",
            "--out", str(out),
        ) == 0
        csv = (out / "sweep_table.csv").read_text().splitlines()
        assert csv[0] == "method,pi1,pi2,mean_best_accuracy,std_best_accuracy,n_seeds"
        assert len([l for l in csv if l.startswith("cpu-kl")]) == 2
        assert csv[-1].startswith("spread,")

    def test_grid_runs_equal_solo_train(self, datadir, tmp_path):
        data = ["--data", str(datadir / "ambig_train.qll"), "--test", str(datadir / "base_test.qll")]
        common = ["--method", "cpu-sjs", "--epochs", "2"]
        out = tmp_path / "sweep3"
        assert run("sweep", *data, *common, "--pi2-grid", "0.3,0.6", "--seeds", "1,2", "--out", str(out)) == 0
        for pi2 in ("0.3", "0.6"):
            for seed in ("1", "2"):
                solo = tmp_path / f"solo-{pi2}-{seed}"
                assert run("train", *data, *common, "--pi2", pi2, "--seed", seed, "--out", str(solo)) == 0
                swept = out / "runs" / f"cpu-sjs-pi1_0.1-pi2_{pi2}-seed{seed}"
                for name in ("metrics.csv", "model.ckpt", "run.json"):
                    assert (swept / name).read_bytes() == (solo / name).read_bytes()
        rows = (out / "sweep_table.csv").read_text().splitlines()[1:-1]
        assert [r.split(",")[:3] for r in rows] == [["cpu-sjs", "0.1", "0.3"], ["cpu-sjs", "0.1", "0.6"]]

    def test_config_driven_sweep(self, tmp_path):
        cfg = {
            "base": {"c": 3, "d": 6, "n_per_class": 15, "test_n_per_class": 15},
            "mix": {"kind": "mixup", "m": 2, "r": 4, "n_out": 60},
            "train": {"epochs": 1, "pi1": 0.1, "pi2": "auto"},
            "methods": ["cpu-sjs", "ce"],
            "seeds": [1, 2],
            "out": str(tmp_path / "exp"),
        }
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run("sweep", "--config", str(cfg_path)) == 0
        runs = sorted((tmp_path / "exp" / "runs").iterdir())
        assert len(runs) == 4  # 2 methods x 2 seeds
        assert (tmp_path / "exp" / "sweep_table.txt").exists()

    def test_config_sweep_runs_equal_solo_train(self, tmp_path):
        # One stacked run per method spans both seeds (and, for cpu-kl, the
        # prior grid); each member must write what a solo train writes on
        # its seed's generated data.
        cfg = {
            "base": {"c": 3, "d": 6, "n_per_class": 15, "test_n_per_class": 15},
            "mix": {"kind": "mixup", "m": 2, "r": 4, "n_out": 60},
            "train": {"epochs": 2, "pi1": 0.1},
            "methods": ["ce", "cpu-kl"],
            "seeds": [3, 1],
            "pi2_grid": [0.6, 0.3],
            "out": str(tmp_path / "exp"),
        }
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run("sweep", "--config", str(cfg_path)) == 0
        exp = tmp_path / "exp"
        solo_args = [("ce", [], "ce")] + [
            ("cpu-kl", ["--pi2", pi2], f"cpu-kl-pi1_0.1-pi2_{pi2}") for pi2 in ("0.6", "0.3")
        ]
        for seed in (3, 1):
            data = exp / "data" / f"seed{seed}"
            for method, extra, tag in solo_args:
                solo = tmp_path / f"solo-{tag}-{seed}"
                assert run(
                    "train", "--data", str(data / "ambig_train.qll"), "--test", str(data / "base_test.qll"),
                    "--method", method, "--epochs", "2", "--seed", str(seed), *extra, "--out", str(solo),
                ) == 0
                for name in ("metrics.csv", "model.ckpt", "run.json"):
                    swept = exp / "runs" / f"{tag}-seed{seed}" / name
                    assert swept.read_bytes() == (solo / name).read_bytes()
        rows = (exp / "sweep_table.csv").read_text().splitlines()[1:-1]
        assert [r.split(",")[:3] for r in rows] == [["ce", "", ""], ["cpu-kl", "0.1", "0.6"], ["cpu-kl", "0.1", "0.3"]]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exits_2_naming_the_runs(self, datadir, tmp_path, capsys):
        data = ["--data", str(datadir / "ambig_train.qll"), "--test", str(datadir / "base_test.qll")]
        common = ["--method", "cpu-sjs", "--epochs", "40", "--lr", "1e8"]
        assert run("train", *data, *common, "--pi2", "0.5", "--seed", "2", "--out", str(tmp_path / "t")) == 2
        err = capsys.readouterr().err
        assert "diverged at epoch" in err and "seed=2 pi1=0.1 pi2=0.5" in err
        assert run(
            "sweep", *data, *common, "--pi2-grid", "0.3,0.6", "--seeds", "1,2", "--out", str(tmp_path / "s")
        ) == 2
        assert "diverged at epoch" in capsys.readouterr().err

    def test_config_validation(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"base": {}, "mix": {}, "methods": ["nope"]}))
        assert run("sweep", "--config", str(bad)) == 2
        with pytest.raises(ValueError, match="unknown method"):
            ExperimentConfig(base={}, mix={}, methods=["nope"])
        with pytest.raises(ValueError, match="seeds must be a nonempty list"):
            ExperimentConfig(base={}, mix={}, seeds=[])

    @pytest.mark.parametrize("key,value", [
        ("methods", "ce"), ("methods", []), ("seeds", "12"), ("seeds", 1), ("seeds", []),
        ("pi1_grid", 0.3), ("pi1_grid", []), ("pi2_grid", "auto"), ("pi2_grid", []),
    ])
    def test_list_keys_must_be_nonempty_lists(self, key, value, tmp_path, capsys):
        assert run("sweep", "--config", str(write_config(tmp_path, **{key: value}))) == 2
        assert f"config: {key} must be a nonempty list, got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "exp" / "data").exists()

    def test_string_prior_in_config_is_error_naming_pi1(self, tmp_path, capsys):
        assert run("sweep", "--config", str(write_config(tmp_path, pi1_grid=["0.1"]))) == 2
        assert "pi1 must be a real number, got '0.1'" in capsys.readouterr().err

    @pytest.mark.parametrize("grids", [
        {"pi1_grid": ["0.3"]}, {"pi1_grid": [0.1, True]}, {"pi1_grid": ["auto"]},
        {"pi2_grid": ["0.3"]}, {"pi2_grid": [0.3, "abc"]}, {"pi2_grid": ["auto", False]},
    ])
    def test_bad_prior_grid_entry_fails_before_any_data(self, grids, tmp_path, capsys):
        name = next(iter(grids))[:3]
        assert run("sweep", "--config", str(write_config(tmp_path, **grids))) == 2
        assert f"{name}_grid: {name} must be a real number" in capsys.readouterr().err
        assert not (tmp_path / "exp").exists()
        with pytest.raises(ValueError, match=f"{name}_grid"):
            ExperimentConfig(**grids)

    def test_prior_grids_keep_ints_and_auto(self):
        exp = ExperimentConfig(pi1_grid=[1, 0.1], pi2_grid=["auto", " Auto", 1, np.float64(0.5)])
        assert exp.pi1_grid == [1, 0.1] and type(exp.pi1_grid[0]) is int
        assert exp.pi2_grid == ["auto", " Auto", 1, 0.5]

    def test_sweep_without_data_is_usage_error(self, tmp_path):
        assert run("sweep", "--out", str(tmp_path / "s")) == 1


SMALL_CONFIG = {
    "base": {"c": 3, "d": 6, "n_per_class": 15, "test_n_per_class": 15},
    "mix": {"kind": "mixup", "m": 2, "r": 4, "n_out": 60},
    "train": {"epochs": 1},
    "methods": ["cpu-kl"],
    "seeds": [1],
}


def write_config(tmp_path, **changes):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({**SMALL_CONFIG, "out": str(tmp_path / "exp"), **changes}))
    return path


class TestSettings:
    def test_defaults_file_flags_layering(self):
        exp = ExperimentConfig(base=SMALL_CONFIG["base"], mix=SMALL_CONFIG["mix"], train={"lr": 1, "epochs": "3"})
        assert exp.settings == TrainSettings(lr=1.0, epochs=3)
        assert type(exp.settings.lr) is float
        assert ExperimentConfig().settings == TrainSettings()
        assert build_loss("bs", TrainSettings(bs_beta=0.2)) == MulticlassLossKind.bootstrap(0.2)
        assert build_loss("js", TrainSettings(js_pi1=0.3, js_unscaled=True)) == MulticlassLossKind.js_pi(0.3, False)

    def test_unknown_train_key_is_named(self, tmp_path, capsys):
        with pytest.raises(ValueError, match="'epoch'"):
            ExperimentConfig(base=SMALL_CONFIG["base"], mix=SMALL_CONFIG["mix"], train={"epoch": 1})
        with pytest.raises(ValueError, match="'method_params'"):  # the nested form is gone
            ExperimentConfig(train={"method_params": {"bs_beta": 0.2}})
        assert run("sweep", "--config", str(write_config(tmp_path, train={"epoch": 1}))) == 2
        assert "'epoch'" in capsys.readouterr().err
        assert not (tmp_path / "exp").exists()  # rejected before any data is generated

    def test_missing_or_unknown_data_key_is_named(self, tmp_path, capsys):
        with pytest.raises(ValueError, match="base: .*'c' and 'd'"):
            ExperimentConfig(base={}, mix={"kind": "mixup"})
        with pytest.raises(ValueError, match="mix: .*'q'"):
            ExperimentConfig(base={"c": 3, "d": 6}, mix={"kind": "mixup", "q": 2})
        with pytest.raises(ValueError, match="base: .*'sep'"):
            ExperimentConfig(base={"c": 3, "d": 6, "sep": 2.0}, mix={})
        assert run("sweep", "--config", str(write_config(tmp_path, base={}))) == 2
        assert "base: " in capsys.readouterr().err

    def test_config_builds_data_specs(self):
        exp = ExperimentConfig(base={"c": "3", "d": 6, "test_n_per_class": 9}, mix={"kind": "patchmix", "r": 3})
        assert exp.data.base == BaseSpec(c=3, d=6, n_per_class=250)
        assert exp.data.test == BaseSpec(c=3, d=6, n_per_class=9)
        assert exp.data.mix == MixSpec("patchmix", m=2, r=3)
        assert exp.data.n_out == 2000
        assert ExperimentConfig(base={"c": 3, "d": 6}, mix={}).data.mix is None  # kind "none": clean only
        assert ExperimentConfig(base={"c": 3, "d": 6}, mix={"n_out": 500}).data.mix is None

    @pytest.mark.parametrize("kind", [{}, {"kind": "none"}])
    def test_mixing_keys_without_a_mix_kind_are_named(self, kind, tmp_path, capsys):
        with pytest.raises(ValueError, match=r"kind 'none' .* m, r would be ignored"):
            ExperimentConfig(base={"c": 3, "d": 6}, mix={**kind, "m": 3, "r": 2, "n_out": 500})
        with pytest.raises(ValueError, match="reject_degenerate would be ignored"):
            ExperimentConfig(base={"c": 3, "d": 6}, mix={**kind, "reject_degenerate": True})
        assert run("sweep", "--config", str(write_config(tmp_path, mix={**kind, "m": 3}))) == 2
        assert "m would be ignored" in capsys.readouterr().err
        assert run("generate", "--mix", "none", "--m", "3", "--out", str(tmp_path / "g")) == 2
        assert ExperimentConfig().data is None  # data given as files

    @pytest.mark.parametrize("section, key, value", [
        ("train", "js_unscaled", "false"),
        ("mix", "reject_degenerate", "false"),
        ("mix", "reject_degenerate", 0),
        ("train", "epochs", 1.5),
        ("train", "epochs", True),
        ("mix", "m", 2.9),
        ("mix", "n_out", 60.5),
        ("base", "c", True),
        ("base", "test_n_per_class", 15.5),
        ("train", "lr", True),
        ("base", "separation", False),
        ("config", "seeds", [1.5]),
        ("config", "seeds", [True]),
    ])
    def test_config_values_cast_without_loss(self, section, key, value, tmp_path, capsys):
        changes = {key: value} if section == "config" else {section: {**SMALL_CONFIG[section], key: value}}
        assert run("sweep", "--config", str(write_config(tmp_path, **changes))) == 2
        assert f"{section}: {key} must be of type " in capsys.readouterr().err
        assert not (tmp_path / "exp").exists()

    def test_lossless_config_values_are_cast(self):
        exp = ExperimentConfig(
            base={"c": 3.0, "d": "6"}, mix={"n_out": 60.0}, train={"lr": 1, "epochs": 2.0}, seeds=[3.0]
        )
        assert (exp.data.base.c, exp.data.base.d, exp.data.n_out) == (3, 6, 60)
        assert (exp.settings.epochs, exp.seeds) == (2, [3])
        assert type(exp.settings.lr) is float and type(exp.seeds[0]) is int

    def test_flags_override_the_config(self, tmp_path):
        cfg = write_config(tmp_path, methods=["cpu-kl", "ce"], seeds=[1, 2], pi2_grid=[0.3, 0.6])
        out = tmp_path / "flags"
        assert run(
            "sweep", "--config", str(cfg), "--epochs", "2", "--lr", "0.05", "--method", "cpu-sjs",
            "--seeds", "3", "--pi2-grid", "0.5", "--out", str(out),
        ) == 0
        assert sorted(p.name for p in (out / "runs").iterdir()) == ["cpu-sjs-pi1_0.1-pi2_0.5-seed3"]
        record = json.loads((out / "runs" / "cpu-sjs-pi1_0.1-pi2_0.5-seed3" / "run.json").read_text())
        assert (record["epochs"], record["lr"], record["seed"]) == (2, 0.05, 3)
        assert not (tmp_path / "exp").exists()  # --out replaced the file's out

    def test_config_with_data_flags_is_usage_error(self, datadir, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert run("sweep", "--config", str(cfg), "--data", str(datadir / "ambig_train.qll")) == 1
        assert "--data" in capsys.readouterr().err

    def test_sweep_seed_flag_abbreviates_seeds(self, datadir, tmp_path):
        # sweep has no --seed of its own, so argparse reads it as --seeds
        data = ["--data", str(datadir / "ambig_train.qll"), "--test", str(datadir / "base_test.qll")]
        assert run("sweep", *data, "--epochs", "1", "--seed", "3", "--out", str(tmp_path / "s")) == 0
        assert [p.name for p in (tmp_path / "s" / "runs").iterdir()] == ["cpu-sjs-pi1_0.1-pi2_auto-seed3"]

    def test_duplicate_seeds_are_usage_errors(self, datadir, tmp_path, capsys):
        data = ["--data", str(datadir / "ambig_train.qll"), "--test", str(datadir / "base_test.qll")]
        assert run("sweep", *data, "--epochs", "1", "--seeds", "1,2,1", "--out", str(tmp_path / "s")) == 1
        assert "duplicate seeds" in capsys.readouterr().err
        assert run("sweep", "--config", str(write_config(tmp_path, seeds=[1, 1]))) == 1
        assert "duplicate seeds" in capsys.readouterr().err
        assert not (tmp_path / "s").exists() and not (tmp_path / "exp").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--pi2-grid", "0.3,"), ("--pi1-grid", "x"), ("--pi2-grid", "0.3,,auto"), ("--seeds", "1,"), ("--seeds", "1.5"),
    ])
    def test_bad_list_token_is_usage_error_naming_the_flag(self, datadir, tmp_path, capsys, flag, value):
        data = ["--data", str(datadir / "ambig_train.qll"), "--test", str(datadir / "base_test.qll")]
        assert run("sweep", *data, "--epochs", "1", flag, value, "--out", str(tmp_path / "s")) == 1
        assert f"argument {flag}" in capsys.readouterr().err


class TestReport:
    def _fake_run(self, root, method, dataset, seed, acc):
        d = root / f"{method}-{dataset}-s{seed}"
        d.mkdir(parents=True)
        (d / "run.json").write_text(
            json.dumps(
                {
                    "method": method,
                    "dataset": dataset,
                    "seed": seed,
                    "best_test_accuracy": acc,
                }
            )
        )

    def test_aggregation_and_ordering(self, tmp_path, capsys):
        root = tmp_path / "runs"
        for seed, acc in zip((1, 2, 3), (0.8, 0.82, 0.78)):
            self._fake_run(root, "ce", "mixup-m2-r4", seed, acc)
        self._fake_run(root, "cpu-sjs", "mixup-m2-r4", 1, 0.9)
        assert run("report", "--runs", str(root)) == 0
        text = (root / "table.txt").read_text()
        lines = text.strip().splitlines()
        assert lines[0].split()[0] == "method"
        # ascending by mean: ce (0.80) before cpu-sjs (0.90)
        assert lines[1].startswith("ce")
        assert lines[2].startswith("cpu-sjs")
        assert "0.8000 ± 0.0200" in lines[1]
        assert "± n/a" in lines[2]
        csv = (root / "table.csv").read_text().splitlines()
        ce_row = next(l for l in csv if l.startswith("ce,"))
        _, ds, mean, std, n = ce_row.split(",")
        assert ds == "mixup-m2-r4"
        assert float(mean) == pytest.approx(0.80, abs=1e-12)
        assert float(std) == pytest.approx(0.02, abs=1e-12)
        assert n == "3"

    def test_no_runs_is_error(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        assert run("report", "--runs", str(empty)) == 2

    def test_end_to_end_pipeline(self, datadir, tmp_path):
        runs = tmp_path / "runs"
        for method, seed in (("ce", 1), ("ce", 2), ("cpu-sjs", 1), ("cpu-sjs", 2)):
            assert run(
                "train", "--data", str(datadir / "ambig_train.qll"),
                "--test", str(datadir / "base_test.qll"),
                "--method", method, "--epochs", "1", "--seed", str(seed),
                "--out", str(runs / f"{method}-s{seed}"),
            ) == 0
        assert run("report", "--runs", str(runs)) == 0
        csv = (runs / "table.csv").read_text().splitlines()
        assert len(csv) == 3  # header + one row per method


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert run() == 1

    def test_unknown_command_is_usage_error(self):
        assert run("frobnicate") == 1

    def test_qll_out_env_controls_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QLL_OUT", str(tmp_path / "envroot"))
        assert run(*GEN_SMALL) == 0
        assert (tmp_path / "envroot" / "data" / "ambig_train.qll").exists()
