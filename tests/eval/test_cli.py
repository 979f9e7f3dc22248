"""Command-line interface."""

from types import SimpleNamespace

import pytest

from repro.cli import build_parser, main
from repro.eval.experiments import EXPERIMENTS


def test_list_command_prints_registry(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_run_rejects_unknown_experiment(capsys):
    assert main(["run", "not-an-experiment"]) == 2
    assert "unknown experiments" in capsys.readouterr().err


def test_run_table2(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["run", "table2"]) == 0
    out = capsys.readouterr().out
    assert "Table II" in out
    assert "finished in" in out


def test_zoo_labels_its_accuracy_as_pre_recalibration(capsys, monkeypatch):
    # The zoo prints the accuracy measured at training time; Table I's FP32
    # column is measured after BN recalibration and differs widely.
    from repro.models import zoo

    class Model:
        def num_parameters(self):
            return 1234

    trained = SimpleNamespace(display_name="ResNet-18", model=Model(),
                              fp32_accuracy=0.306)
    monkeypatch.setattr(zoo, "load_trained_model", lambda name, fast: trained)
    assert main(["zoo", "resnet18"]) == 0
    out = capsys.readouterr().out
    header = next(line for line in out.splitlines() if "Model" in line)
    assert "FP32 top-1 pre-BN-recal." in header
    assert "30.6%" in out
    assert "before the BN recalibration that Table I" in out


def test_parser_requires_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])
    args = parser.parse_args(["--scale", "full", "run", "table2"])
    assert args.scale == "full"
    assert args.experiments == ["table2"]
    assert args.workers == 1 and not args.resume


def test_parser_accepts_sweep_flags():
    parser = build_parser()
    args = parser.parse_args(["run", "--workers", "4", "--resume", "table2"])
    assert args.workers == 4
    assert args.resume


def test_run_with_workers_and_resume(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["run", "table2", "--workers", "2"]) == 0
    capsys.readouterr()
    # The persisted sweep point is picked up by a --resume run.
    assert main(["run", "table2", "--resume"]) == 0
    assert "Table II" in capsys.readouterr().out
    points = list((tmp_path / "results" / "points" / "fast").glob("*.json"))
    assert points, "sweep points must be persisted under the results cache"
