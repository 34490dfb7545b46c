import json
import math

import numpy as np
import pytest

from qll.cli import ExperimentConfig, build_loss, main
from qll.dataio import load_dataset
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
        with pytest.raises(ValueError, match="seed list"):
            ExperimentConfig(base={}, mix={}, seeds=[])

    def test_sweep_without_data_is_usage_error(self, tmp_path):
        assert run("sweep", "--out", str(tmp_path / "s")) == 1


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
