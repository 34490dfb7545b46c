import hashlib
import json
import math
import os
import signal
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from qll import cli, training
from qll.cli import ExperimentConfig, TrainSettings, build_loss, main, resolve_pi2
from qll.dataio import load_dataset
from qll.datagen import BaseSpec, MixSpec
from qll.losses import BinaryLossKind, MulticlassLossKind
from qll.training import TrainConfig


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

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_outside_64_bits_exits_2_writing_nothing(self, tmp_path, capsys, seed):
        # 2**64 wrote the bytes of seed 0, and -1 those of 2**64 - 1
        assert run(*GEN_SMALL[:-2], f"--seed={seed}", "--out", str(tmp_path / "d")) == 2
        assert f"seed must lie in [0, 2**64), got {seed}" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--separation", "inf", "separation must be a finite number > 0, got inf"),
        ("--separation", "nan", "separation must be a finite number > 0, got nan"),
        ("--noise-sigma", "1e308", "separation 6.0 and noise_sigma 1e+308 put features beyond the float32 range"),
    ])
    def test_base_settings_outside_the_real_law_exit_2_writing_nothing(self, tmp_path, capsys, flag, value, message):
        # inf exited 2 only with "features must be finite", and 1e308 printed
        # numpy's cast warning first (an error under this suite's settings)
        assert run(*GEN_SMALL, flag, value, "--out", str(tmp_path / "d")) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "d").exists()

    def test_patchmix_r_exceeding_d_rejected(self, tmp_path, capsys):
        code = run(
            "generate", "--c", "3", "--d", "4", "--mix", "patchmix",
            "--m", "2", "--r", "9", "--n", "10", "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert "r <= feature_dim" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()  # the sets are built before any is written

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

    def test_pi2_auto_above_one_names_auto(self, tmp_path, capsys):
        data = tmp_path / "m5"
        assert run("generate", "--c", "4", "--d", "6", "--n-per-class", "20", "--m", "5", "--n", "80",
                   "--out", str(data)) == 0
        capsys.readouterr()
        assert run(
            "train", "--data", str(data / "ambig_train.qll"), "--test", str(data / "base_test.qll"),
            "--method", "cpu-kl", "--pi2", "auto", "--epochs", "1", "--out", str(tmp_path / "r"),
        ) == 2
        assert "pi2 auto is m/c = 5/4 = 1.25, above 1" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

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

    def test_run_record_holds_every_config_field(self, datadir, tmp_path):
        rundir = tmp_path / "run4"
        assert run(
            "train", "--data", str(datadir / "ambig_train.qll"), "--test", str(datadir / "base_test.qll"),
            "--method", "gce", "--gce-q", "0.3", "--epochs", "1", "--out", str(rundir),
        ) == 0
        record = json.loads((rundir / "run.json").read_text())
        # priors is recorded as pi1 and pi2, null for a baseline.
        assert {f.name for f in fields(TrainConfig)} - {"priors"} <= record.keys()
        assert record["loss"] == {"variant": "gce", "beta": None, "q": 0.3, "a": None, "b": None,
                                  "pi1": None, "scaled": True}
        assert (record["pi1"], record["pi2"], record["momentum"], record["weight_decay"]) == (None, None, 0.9, 1e-4)
        # The data's generation records, but never their seeds.
        assert (record["train_n_examples"], record["train_n_out"], record["test_separation"]) == (80, "80", "6.0")
        assert [k for k in record if "seed" in k] == ["seed"]

    def test_missing_data_is_runtime_error(self, tmp_path):
        assert run(
            "train", "--data", str(tmp_path / "nope.qll"),
            "--test", str(tmp_path / "nope2.qll"), "--epochs", "1",
            "--out", str(tmp_path / "r"),
        ) == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ["lr", "weight-decay"])
    def test_non_finite_step_size_exits_2_writing_nothing(self, datadir, tmp_path, capsys, flag, value):
        data = ["--data", str(datadir / "ambig_train.qll"), "--test", str(datadir / "base_test.qll")]
        assert run("train", *data, "--epochs", "1", f"--{flag}={value}", "--out", str(tmp_path / "r")) == 2
        assert f"{flag.replace('-', '_')} must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_outside_64_bits_exits_2_writing_nothing(self, datadir, tmp_path, capsys, seed):
        data = ["--data", str(datadir / "ambig_train.qll"), "--test", str(datadir / "base_test.qll")]
        assert run("train", *data, "--epochs", "1", f"--seed={seed}", "--out", str(tmp_path / "r")) == 2
        assert f"seed must lie in [0, 2**64), got {seed}" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

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
            resolve_pi2(None, 2, 3)

    def test_default_run_dir_and_printed_line(self, datadir, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QLL_OUT", str(tmp_path / "envroot"))
        capsys.readouterr()
        assert run(
            "train", "--data", str(datadir / "ambig_train.qll"), "--test", str(datadir / "base_test.qll"),
            "--method", "ce", "--epochs", "1", "--seed", "4",
        ) == 0
        rundir = tmp_path / "envroot" / "runs" / "ce-seed4"
        assert sorted(p.name for p in rundir.iterdir()) == ["metrics.csv", "model.ckpt", "run.json"]
        accuracy = json.loads((rundir / "run.json").read_text())["best_test_accuracy"]
        assert capsys.readouterr().out == f"ce seed=4 best_test_accuracy={accuracy:.4f} -> {rundir}\n"

    def test_clean_base_file(self, datadir, tmp_path, capsys):
        # A base file's header has m=0, so the default pi2 auto has no m/c;
        # a baseline needs no prior and trains on it.
        data = ["--data", str(datadir / "base_train.qll"), "--test", str(datadir / "base_test.qll")]
        assert run("train", *data, "--method", "cpu-kl", "--epochs", "1", "--out", str(tmp_path / "kl")) == 2
        assert "pi2 auto is m/c, so it needs a mixed train set" in capsys.readouterr().err
        assert not (tmp_path / "kl").exists()
        assert run("train", *data, "--method", "ce", "--epochs", "1", "--out", str(tmp_path / "ce")) == 0
        assert json.loads((tmp_path / "ce" / "run.json").read_text())["dataset"] == "clean"

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

    def test_clean_base_config_sweep(self, tmp_path):
        # "mix": {} makes no ambiguous set: every run trains on its seed's
        # clean base, and the report lists its cells as dataset "clean".
        config = write_config(tmp_path, mix={}, methods=["ce", "cpu-kl"], seeds=[1, 2], pi2_grid=[0.5])
        assert run("sweep", "--config", str(config)) == 0
        exp = tmp_path / "exp"
        assert not (exp / "data" / "seed1" / "ambig_train.qll").exists()
        for tag in ("ce", "cpu-kl-pi1_0.1-pi2_0.5"):
            record = json.loads((exp / "runs" / f"{tag}-seed2" / "run.json").read_text())
            assert record["dataset"] == "clean"
            assert record["data"] == str(exp / "data" / "seed2" / "base_train.qll")
        assert run("report", "--runs", str(exp / "runs")) == 0
        rows = [row.split(",") for row in (exp / "runs" / "table.csv").read_text().splitlines()[1:]]
        assert sorted((r[0], r[1], r[-1]) for r in rows) == [("ce", "clean", "2"), ("cpu-kl", "clean", "2")]

    def test_refused_mix_in_config_writes_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, mix={"kind": "patchmix", "m": 2, "r": 9, "n_out": 60})
        assert run("sweep", "--config", str(cfg)) == 2
        assert "r <= feature_dim" in capsys.readouterr().err
        assert not (tmp_path / "exp").exists()

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

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("key", ["lr", "weight_decay"])
    def test_non_finite_step_size_in_config_fails_before_any_data(self, key, value, tmp_path, capsys):
        config = write_config(tmp_path, train={"epochs": 1, key: value})
        assert run("sweep", "--config", str(config)) == 2
        assert f"{key} must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "exp").exists()

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

    @pytest.mark.parametrize("changes,message", [
        ({"train": {"epochs": 1, "model": "cnn"}}, "model_kind must be one of"),
        ({"train": {"epochs": 1, "hidden": 0}}, "an mlp needs hidden_dim >= 1"),
        ({"train": {"epochs": 1, "gce_q": 5}, "methods": ["gce"]}, "gce needs q in (0, 1]"),
        ({"pi1_grid": [1.5]}, "pi1 must lie in (0, 1]"),
        ({"pi2_grid": [0.0]}, "pi2 must lie in (0, 1]"),
        ({"pi2_grid": ["auto"], "mix": {}}, "pi2 auto is m/c, so it needs a mixed train set"),
        ({"train": {"epochs": 1, "pi2": "auto"}, "mix": {}}, "pi2 auto is m/c, so it needs a mixed train set"),
        ({"pi2_grid": ["auto"], "base": {"c": 4, "d": 6, "n_per_class": 15},
          "mix": {"kind": "mixup", "m": 5, "r": 4, "n_out": 60}}, "pi2 auto is m/c = 5/4 = 1.25, above 1"),
    ], ids=["model", "hidden", "gce_q", "pi1", "pi2", "auto-unmixed", "auto-setting-unmixed", "auto-above-one"])
    def test_bad_run_setting_in_config_fails_before_any_data(self, changes, message, tmp_path, capsys):
        assert run("sweep", "--config", str(write_config(tmp_path, **changes))) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "exp").exists()

    def test_bad_later_method_fails_before_any_run_trains(self, tmp_path, capsys):
        config = write_config(tmp_path, methods=["ce", "gce"])
        assert run("sweep", "--config", str(config), "--gce-q", "5") == 2
        assert "gce needs q in (0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "exp").exists()

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


# Three methods, so that with two lanes the child's lane holds two groups:
# cpu-kl (6 runs) is the heaviest lane and the main process trains it, and
# ce and gce (2 runs each) go to one forked child.
LANE_CONFIG = {**SMALL_CONFIG, "train": {"epochs": 4, "pi1": 0.1}, "methods": ["ce", "gce", "cpu-kl"],
               "seeds": [1, 2], "pi2_grid": [0.3, 0.5, 0.7], "out": "exp"}
LANE_OUTPUTS = ("metrics.csv", "model.ckpt", "run.json", "sweep_table.csv")


def method_of(cfg: TrainConfig) -> str:
    return next(m for m in ("ce", "gce", "cpu-kl") if build_loss(m) == cfg.loss)


class TestLanes:
    """A sweep trains its method groups on as many lanes as there are groups
    and usable cores: the main process and one forked child per other lane."""

    @pytest.fixture
    def sweep(self, tmp_path, monkeypatch):
        """Run LANE_CONFIG in ``tmp_path/<name>`` with ``cores`` usable cores;
        returns the exit code and the forks made."""
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())

        def _sweep(name, cores):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            Path("exp.json").write_text(json.dumps(LANE_CONFIG))
            made = len(forks)
            return run("sweep", "--config", "exp.json"), len(forks) - made

        return _sweep

    @staticmethod
    def outputs(root: Path) -> dict[str, bytes]:
        return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*"))
                if p.name in LANE_OUTPUTS}

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_outputs_do_not_depend_on_the_lane_count(self, sweep, tmp_path, monkeypatch):
        trained = tmp_path / "trained.txt"  # "<pid> <method>" per group, from every process

        def train_runs(trains, tests, cfgs):
            with trained.open("a") as fh:
                fh.write(f"{os.getpid()} {method_of(cfgs[0])}\n")
            return real(trains, tests, cfgs)

        real = cli.train_runs
        monkeypatch.setattr(cli, "train_runs", train_runs)
        assert sweep("one", 1) == (0, 0)
        assert sweep("two", 2) == (0, 1)
        self.assert_no_child_left()
        one, two = self.outputs(tmp_path / "one"), self.outputs(tmp_path / "two")
        assert len(one) == 3 * 10 + 1 and one == two
        lines = [line.split() for line in trained.read_text().splitlines()]
        assert lines[:3] == [[str(os.getpid()), m] for m in ("ce", "gce", "cpu-kl")]  # one lane: plan order
        by_pid = {}
        for pid, method in lines[3:]:
            by_pid.setdefault(pid, []).append(method)
        assert by_pid.pop(str(os.getpid())) == ["cpu-kl"] and list(by_pid.values()) == [["ce", "gce"]]

    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("failing", ["gce", "cpu-kl"])  # in the child's lane, in the main lane
    def test_failed_group_writes_the_others_and_exits_2(self, sweep, tmp_path, monkeypatch, capsys,
                                                        cores, failing):
        def train_runs(trains, tests, cfgs):
            if method_of(cfgs[0]) == failing:
                raise RuntimeError("training diverged at epoch 1")
            return real(trains, tests, cfgs)

        real = cli.train_runs
        monkeypatch.setattr(cli, "train_runs", train_runs)
        assert sweep("s", cores)[0] == 2
        self.assert_no_child_left()
        assert capsys.readouterr().err == f"error: {failing}: training diverged at epoch 1\n"
        runs = sorted(p.name for p in (tmp_path / "s" / "exp" / "runs").iterdir())
        assert len(runs) == 10 - {"gce": 2, "cpu-kl": 6}[failing]
        assert not any(r.startswith(failing + "-") for r in runs)
        assert not (tmp_path / "s" / "exp" / "sweep_table.csv").exists()

    def test_failed_groups_write_what_the_serial_loop_writes(self, sweep, tmp_path, monkeypatch):
        def train_runs(trains, tests, cfgs):
            if method_of(cfgs[0]) != "gce":
                raise ValueError(f"{method_of(cfgs[0])} fails")
            return real(trains, tests, cfgs)

        real = cli.train_runs
        monkeypatch.setattr(cli, "train_runs", train_runs)
        assert sweep("one", 1) == (2, 0)
        assert sweep("two", 2) == (2, 1)
        one, two = self.outputs(tmp_path / "one"), self.outputs(tmp_path / "two")
        assert len(one) == 3 * 2 and one == two

    def test_killed_child_exits_2_naming_its_methods(self, sweep, tmp_path, monkeypatch, capsys):
        main_pid = os.getpid()

        def evaluate(*args):
            if os.getpid() != main_pid:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args)

        real = training.evaluate
        monkeypatch.setattr(training, "evaluate", evaluate)
        assert sweep("s", 2) == (2, 1)
        self.assert_no_child_left()
        err = capsys.readouterr().err
        lost = "its training process ended without a result (killed by signal 9)"
        assert err == f"error: ce: {lost}\ngce: {lost}\n"
        runs = sorted(p.name for p in (tmp_path / "s" / "exp" / "runs").iterdir())
        assert runs == [f"cpu-kl-pi1_0.1-pi2_{p}-seed{s}" for p in (0.3, 0.5, 0.7) for s in (1, 2)]

    def test_error_in_the_main_lane_kills_the_children(self, sweep, monkeypatch):
        main_pid = os.getpid()

        def train_runs(trains, tests, cfgs):
            if os.getpid() != main_pid:
                time.sleep(60)
            raise TypeError("not a training failure")

        monkeypatch.setattr(cli, "train_runs", train_runs)
        start = time.perf_counter()
        with pytest.raises(TypeError, match="not a training failure"):
            sweep("s", 2)
        assert time.perf_counter() - start < 30
        self.assert_no_child_left()


class TestSettings:
    def test_defaults_file_flags_layering(self):
        exp = ExperimentConfig(base=SMALL_CONFIG["base"], mix=SMALL_CONFIG["mix"], train={"lr": 1, "epochs": "3"})
        assert exp.settings == TrainSettings(lr=1.0, epochs=3)
        assert type(exp.settings.lr) is float
        assert ExperimentConfig().settings == TrainSettings()
        assert build_loss("bs", TrainSettings(bs_beta=0.2)) == MulticlassLossKind.bootstrap(0.2)
        assert build_loss("js", TrainSettings(js_pi1=0.3, js_unscaled=True)) == MulticlassLossKind.js_pi(0.3, False)

    @pytest.mark.parametrize("config, message", [
        ("basemix", "config must be an object, got 'basemix'"),
        ({**SMALL_CONFIG, "train": [1, 2]}, "config: train must be an object, got [1, 2]"),
        ({**SMALL_CONFIG, "base": None}, "config: base must be an object, got None"),
        ({**SMALL_CONFIG, "mix": ["mixup"]}, "config: mix must be an object, got ['mixup']"),
        ({**SMALL_CONFIG, "out": 5}, "config: out must be a string, got 5"),
    ], ids=["top-level", "train", "base", "mix", "out"])
    def test_bad_config_shape_exits_2_before_any_data(self, config, message, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QLL_OUT", str(tmp_path / "envroot"))
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(config))
        assert run("sweep", "--config", str(path)) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]
        if isinstance(config, dict) and config["base"] is not None:  # base None: no data specs
            with pytest.raises(ValueError, match=message.split(",")[0]):
                ExperimentConfig(**config)

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

    def test_seed_outside_64_bits_exits_2_before_any_run(self, datadir, tmp_path, capsys):
        # 2**64 aliased seed 0, and the table pooled the one run as n_seeds 2
        data = ["--data", str(datadir / "ambig_train.qll"), "--test", str(datadir / "base_test.qll")]
        argv = ["sweep", *data, "--method", "ce", "--seeds", "0,18446744073709551616", "--epochs", "1"]
        assert run(*argv, "--out", str(tmp_path / "s")) == 2
        assert "seed must lie in [0, 2**64), got 18446744073709551616" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_sweep_seed_flag_abbreviates_seeds(self, datadir, tmp_path):
        # sweep has no --seed of its own, so argparse reads it as --seeds
        data = ["--data", str(datadir / "ambig_train.qll"), "--test", str(datadir / "base_test.qll")]
        assert run("sweep", *data, "--epochs", "1", "--seed", "3", "--out", str(tmp_path / "s")) == 0
        assert [p.name for p in (tmp_path / "s" / "runs").iterdir()] == ["cpu-sjs-pi1_0.1-pi2_auto-seed3"]

    @pytest.mark.parametrize("key,flag,config_value", [
        ("seeds", ["--seeds", "1,2,1"], [1, 1]),
        ("methods", None, ["ce", "cpu-kl", "ce"]),
        ("pi1_grid", ["--pi1-grid", "0.1,0.3,0.1"], [0.1, 0.1]),
        ("pi2_grid", ["--pi2-grid", "auto,0.5,AUTO"], [0.5, "auto", 0.5]),
        ("pi2_grid", ["--pi2-grid", f"{2 / 3!r},auto"], [2 / 3, "auto"]),
    ], ids=["seeds", "methods", "pi1_grid", "pi2_grid", "pi2_equal_to_auto"])
    def test_duplicate_seeds_are_usage_errors(self, datadir, tmp_path, capsys, key, flag, config_value):
        # Any list that repeats an entry would train one run twice, so each
        # is refused before anything is written. On both data sets "auto"
        # is m/c = 2/3, so a pi2 of 2/3 beside it is a repeat too.
        data = ["--data", str(datadir / "ambig_train.qll"), "--test", str(datadir / "base_test.qll")]
        if flag:
            assert run("sweep", *data, "--epochs", "1", *flag, "--out", str(tmp_path / "s")) == 1
            assert f"duplicate {key}" in capsys.readouterr().err
        assert run("sweep", "--config", str(write_config(tmp_path, **{key: config_value}))) == 1
        assert f"duplicate {key}" in capsys.readouterr().err
        assert not (tmp_path / "s").exists() and not (tmp_path / "exp").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--pi2-grid", "0.3,"), ("--pi1-grid", "x"), ("--pi2-grid", "0.3,,auto"), ("--seeds", "1,"), ("--seeds", "1.5"),
        ("--seeds", "1,x"), ("--pi1-grid", "abc"),
    ])
    def test_bad_list_token_is_usage_error_naming_the_flag(self, datadir, tmp_path, capsys, flag, value):
        data = ["--data", str(datadir / "ambig_train.qll"), "--test", str(datadir / "base_test.qll")]
        assert run("sweep", *data, "--epochs", "1", flag, value, "--out", str(tmp_path / "s")) == 1
        expected = "integers" if flag == "--seeds" else "numbers or auto"
        assert f"argument {flag}: expected comma-separated {expected}, got {value!r}" in capsys.readouterr().err


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
        _, ds, _, _, mean, std, n = ce_row.split(",")
        assert ds == "mixup-m2-r4"
        assert float(mean) == pytest.approx(0.80, abs=1e-12)
        assert float(std) == pytest.approx(0.02, abs=1e-12)
        assert n == "3"

    def test_no_runs_is_error(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        assert run("report", "--runs", str(empty)) == 2

    def test_truncated_record_is_named(self, tmp_path, capsys):
        root = tmp_path / "runs"
        self._fake_run(root, "ce", "mixup-m2-r4", 1, 0.8)
        bad = root / "ce-mixup-m2-r4-s1" / "run.json"
        bad.write_text(bad.read_text()[:16])
        assert run("report", "--runs", str(root)) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "Expecting" in err

    def test_record_without_a_field_names_it(self, tmp_path, capsys):
        root = tmp_path / "runs"
        self._fake_run(root, "ce", "mixup-m2-r4", 1, 0.8)
        bad = root / "ce-mixup-m2-r4-s1" / "run.json"
        rec = json.loads(bad.read_text())
        del rec["dataset"]
        bad.write_text(json.dumps(rec))
        assert run("report", "--runs", str(root)) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "'dataset'" in err

    @pytest.mark.parametrize("bad", ["0.9", True, float("nan")], ids=["string", "bool", "nan"])
    def test_accuracy_must_be_a_number_in_range(self, tmp_path, capsys, bad):
        root = tmp_path / "runs"
        self._fake_run(root, "ce", "mixup-m2-r4", 1, 0.8)
        self._fake_run(root, "ce", "mixup-m2-r4", 2, bad)
        assert run("report", "--runs", str(root)) == 2
        err = capsys.readouterr().err
        assert str(root / "ce-mixup-m2-r4-s2" / "run.json") in err and "best_test_accuracy" in err
        assert not (root / "table.csv").exists()

    @pytest.mark.parametrize("key", ["method", "dataset"])
    def test_cell_fields_must_be_strings(self, tmp_path, capsys, key):
        root = tmp_path / "runs"
        self._fake_run(root, "ce", "mixup-m2-r4", 1, 0.8)
        bad = root / "ce-mixup-m2-r4-s1" / "run.json"
        bad.write_text(json.dumps({**json.loads(bad.read_text()), key: 5}))
        assert run("report", "--runs", str(root)) == 2
        assert f"{bad}: {key} must be a string, got 5" in capsys.readouterr().err
        assert not (root / "table.csv").exists()

    @pytest.mark.parametrize("bad", ["0.3", True, 1.5, float("nan")], ids=["string", "bool", "above-1", "nan"])
    @pytest.mark.parametrize("key", ["pi1", "pi2"])
    def test_prior_must_be_null_or_a_number_in_range(self, tmp_path, capsys, key, bad):
        root = tmp_path / "runs"
        self._fake_run(root, "cpu-sjs", "mixup-m2-r4", 1, 0.8)
        path = root / "cpu-sjs-mixup-m2-r4-s1" / "run.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "pi1": 0.1, "pi2": 0.5, key: bad}))
        assert run("report", "--runs", str(root)) == 2
        assert f"{path}: {key} must be null or a number in (0, 1], got {bad!r}" in capsys.readouterr().err
        assert not (root / "table.csv").exists()

    @pytest.mark.parametrize("key, a, b", [
        ("epochs", 60, 2), ("lr", 0.01, 0.1), ("batch_size", 16, 32),
        ("model_kind", "mlp", "linear"), ("hidden_dim", 64, 32), ("u_mode", "complement", "full"),
        ("momentum", 0.9, 0.5), ("weight_decay", 1e-4, 0.0),
        pytest.param("loss", {"variant": "gce", "q": 0.7}, {"variant": "gce", "q": 0.3}, id="loss-gce_q"),
    ])
    def test_cell_of_runs_that_are_not_replicates_is_error(self, tmp_path, capsys, key, a, b):
        root = tmp_path / "runs"
        for seed, value in ((1, a), (2, a), (3, b)):
            self._fake_run(root, "ce", "mixup-m2-r4", seed, 0.8)
            path = root / f"ce-mixup-m2-r4-s{seed}" / "run.json"
            path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
        assert run("report", "--runs", str(root)) == 2
        first, last = (root / f"ce-mixup-m2-r4-s{s}" / "run.json" for s in (1, 3))
        assert f"{first} and {last} share a table cell but differ in {key}" in capsys.readouterr().err
        assert not (root / "table.csv").exists()
        # A field that one record lacks counts as equal.
        rec = json.loads(last.read_text())
        del rec[key]
        last.write_text(json.dumps(rec))
        assert run("report", "--runs", str(root)) == 0

    @pytest.mark.parametrize("first, second, separation, message", [
        ([], [], "3", "differ in test_separation: '6.0' != '3.0'"),
        (["--method", "gce", "--gce-q", "0.3"], ["--method", "gce", "--gce-q", "0.9"], None, "differ in loss: "),
        ([], [], None, "are one run recorded twice: equal seed and data"),
    ], ids=["separation", "gce_q", "duplicate"])
    def test_trained_runs_that_are_not_replicates_are_refused(
        self, datadir, tmp_path, capsys, first, second, separation, message
    ):
        # Two seed-1 runs of one cell: on data of another separation, with
        # another loss parameter, or the same run written twice.
        second_data = datadir
        if separation:
            second_data = tmp_path / "data2"
            assert run(*GEN_SMALL, "--separation", separation, "--out", str(second_data)) == 0
        runs = tmp_path / "runs"
        for name, data, flags in (("a", datadir, first), ("b", second_data, second)):
            assert run(
                "train", "--data", str(data / "ambig_train.qll"), "--test", str(data / "base_test.qll"),
                "--method", "ce", *flags, "--epochs", "1", "--out", str(runs / name),
            ) == 0
        assert run("report", "--runs", str(runs)) == 2
        err = capsys.readouterr().err
        assert f"{runs / 'a' / 'run.json'} and {runs / 'b' / 'run.json'} share a table cell" in err
        assert message in err
        assert not (runs / "table.csv").exists()

    def test_one_run_on_one_file_named_two_ways_is_refused(self, datadir, tmp_path, capsys, monkeypatch):
        # A relative and an absolute path to one train file: the same
        # bytes, so the same data_sha256, and one run written twice.
        monkeypatch.chdir(datadir.parent)
        runs = tmp_path / "runs"
        for name, data in (("a", Path(datadir.name)), ("b", datadir)):
            assert run(
                "train", "--data", str(data / "ambig_train.qll"), "--test", str(data / "base_test.qll"),
                "--method", "ce", "--epochs", "1", "--out", str(runs / name),
            ) == 0
        a, b = (json.loads((runs / name / "run.json").read_text()) for name in ("a", "b"))
        assert a["data"] != b["data"]
        digest = hashlib.sha256((datadir / "ambig_train.qll").read_bytes()).hexdigest()
        assert a["data_sha256"] == b["data_sha256"] == digest
        assert run("report", "--runs", str(runs)) == 2
        err = capsys.readouterr().err
        assert (f"{runs / 'a' / 'run.json'} and {runs / 'b' / 'run.json'} share a table cell and are one run "
                "recorded twice: equal seed and data_sha256") in err
        assert not (runs / "table.csv").exists()

    def test_records_without_data_sha256_compare_data(self, tmp_path, capsys):
        root = tmp_path / "runs"
        for name, data in (("a", "d1.qll"), ("b", "d2.qll"), ("c", "d1.qll")):
            (root / name).mkdir(parents=True)
            (root / name / "run.json").write_text(json.dumps(
                {"method": "ce", "dataset": "clean", "seed": 1, "data": data, "best_test_accuracy": 0.8}
            ))
        assert run("report", "--runs", str(root)) == 2
        err = capsys.readouterr().err
        assert f"{root / 'a' / 'run.json'} and {root / 'c' / 'run.json'} share a table cell" in err
        assert err.endswith("equal seed and data\n")

    def test_report_reproduces_the_sweep(self, datadir, tmp_path):
        # A file-mode sweep trains one method, so ce is a second sweep
        # beside the cpu-sjs one; the report reads the runs of both.
        data = ["--data", str(datadir / "ambig_train.qll"), "--test", str(datadir / "base_test.qll")]
        common = [*data, "--epochs", "2", "--seeds", "1,2"]
        sweeps = tmp_path / "sweeps"
        assert run("sweep", *common, "--method", "cpu-sjs", "--pi2-grid", "0.3,0.6", "--out", str(sweeps / "pu")) == 0
        assert run("sweep", *common, "--method", "ce", "--out", str(sweeps / "ce")) == 0
        assert run("report", "--runs", str(sweeps), "--out", str(tmp_path)) == 0
        tables = [(sweeps / name / "sweep_table.csv").read_text().splitlines() for name in ("pu", "ce")]
        swept = [row for lines in tables for row in lines[1:-1]]
        reported = (tmp_path / "table.csv").read_text().splitlines()
        assert reported[0] == "method,dataset,pi1,pi2,mean_best_accuracy,std_best_accuracy,n_seeds"
        rows = [row.split(",") for row in reported[1:]]
        assert {ds for _, ds, *_ in rows} == {"mixup-m2-r4"}
        assert sorted(",".join([method, *rest]) for method, _, *rest in rows) == sorted(swept)
        assert len(swept) == 3

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

    def test_one_parser_serves_every_call_of_a_process(self, tmp_path, monkeypatch, capsys):
        build, built = cli.build_parser, []
        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        data = tmp_path / "data"
        assert run(*GEN_SMALL, "--out", str(data)) == 0
        assert run(
            "train", "--data", str(data / "ambig_train.qll"), "--test", str(data / "base_test.qll"),
            "--method", "ce", "--epochs", "1", "--out", str(tmp_path / "ce"),
        ) == 0
        assert (tmp_path / "ce" / "metrics.csv").exists()
        capsys.readouterr()
        # A usage error after a cached parse still exits 1 with its message,
        # and the next call parses afresh.
        assert run("train", "--data", str(data / "ambig_train.qll")) == 1
        assert "usage error: the following arguments are required: --test" in capsys.readouterr().err
        assert run("frobnicate") == 1
        assert "invalid choice: 'frobnicate'" in capsys.readouterr().err
        assert run(*GEN_SMALL, "--out", str(tmp_path / "again")) == 0
        assert len(built) == 1

    def test_qll_out_env_controls_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QLL_OUT", str(tmp_path / "envroot"))
        assert run(*GEN_SMALL) == 0
        assert (tmp_path / "envroot" / "data" / "ambig_train.qll").exists()
