import numpy as np
import pytest

from facelab import synth
from facelab.cli import main
from facelab.dataset import GrayImage, write_pgm


@pytest.fixture(scope="module")
def banded_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli") / "banded"
    synth.write_dataset(synth.make_banded_dataset(), root)
    return root


@pytest.fixture(scope="module")
def lighting_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli") / "lighting"
    synth.write_dataset(synth.make_lighting_dataset(), root)
    return root


def test_train_then_evaluate_training_split_is_exact(banded_dir, tmp_path, capsys):
    model = tmp_path / "eigen.ffm"
    assert main(["train", "--method", "eigen", "--dataset", str(banded_dir),
                 "--out", str(model)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--model", str(model), "--dataset", str(banded_dir)]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "path,truth,prediction,score,correct"
    assert len(lines) == 41  # header + one record per image
    assert all(line.endswith(",1") for line in lines[1:])


def test_unknown_flag_is_usage_error(capsys):
    assert main(["train", "--bogus"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower()


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["transmogrify"]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "facelab" in capsys.readouterr().out


def test_malformed_split_is_usage_error(banded_dir, tmp_path, capsys):
    rc = main(["train", "--method", "eigen", "--dataset", str(banded_dir),
               "--out", str(tmp_path / "m.ffm"), "--split", "k=5;seed=0"])
    assert rc == 1


def test_dims_mismatch_is_data_error(banded_dir, lighting_dir, tmp_path, capsys):
    model = tmp_path / "eigen.ffm"
    assert main(["train", "--method", "eigen", "--dataset", str(banded_dir),
                 "--out", str(model), "--k", "12"]) == 0
    rc = main(["evaluate", "--model", str(model), "--dataset", str(lighting_dir)])
    assert rc == 2
    assert "data error" in capsys.readouterr().err


def test_degenerate_training_is_numeric_error(tmp_path, capsys):
    root = tmp_path / "flat"
    img = GrayImage(8, 8, np.full((8, 8), 9.0))
    for label in ("a", "b"):
        (root / label).mkdir(parents=True)
        (root / label / "0.pgm").write_bytes(write_pgm(img))
    rc = main(["train", "--method", "eigen", "--dataset", str(root),
               "--out", str(tmp_path / "m.ffm")])
    assert rc == 3
    assert "numeric" in capsys.readouterr().err


def test_corrupt_model_is_data_error(tmp_path, banded_dir, capsys):
    bogus = tmp_path / "bogus.ffm"
    bogus.write_text("not a model\n")
    probe = sorted((banded_dir / "s01").glob("*.pgm"))[0]
    assert main(["recognize", "--model", str(bogus), "--image", str(probe)]) == 2


def test_evaluate_split_reports_are_deterministic(banded_dir, tmp_path, capsys):
    model = tmp_path / "hmm.ffm"
    assert main(["train", "--method", "hmm", "--dataset", str(banded_dir),
                 "--out", str(model), "--split", "k:5,seed:0"]) == 0
    capsys.readouterr()
    reports = []
    for i in range(2):
        target = tmp_path / f"rep{i}.csv"
        assert main(["evaluate", "--model", str(model), "--dataset", str(banded_dir),
                     "--split", "k:5,seed:0,part:test", "--report", str(target)]) == 0
        reports.append(target.read_bytes())
    assert reports[0] == reports[1]
    assert capsys.readouterr().out.count("error_rate,") == 2


def test_train_all_assess_and_multi_recognize(banded_dir, tmp_path, capsys):
    models = tmp_path / "models"
    assert main(["train", "--method", "all", "--dataset", str(banded_dir),
                 "--out", str(models), "--split", "k:5,seed:0", "--k", "12"]) == 0
    for name in ("eigen.ffm", "fisher.ffm", "hmm.ffm", "policy.cfg"):
        assert (models / name).exists()
    capsys.readouterr()

    probe = sorted((banded_dir / "s02").glob("*.pgm"))[0]
    assert main(["assess", "--models", str(models), "--policy", str(models / "policy.cfg"),
                 "--image", str(probe)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("pose_deviation,")
    assert "method," in out

    assert main(["recognize", "--model", str(models), "--policy",
                 str(models / "policy.cfg"), "--multi", "--image", str(probe)]) == 0
    line = capsys.readouterr().out.strip()
    fields = line.split(",")
    assert fields[1] in ("eigen", "fisher", "hmm")
    assert fields[2] == "s02"


def test_multi_without_policy_is_usage_error(banded_dir, tmp_path, capsys):
    probe = sorted((banded_dir / "s01").glob("*.pgm"))[0]
    rc = main(["recognize", "--model", str(tmp_path), "--multi", "--image", str(probe)])
    assert rc == 1


def test_train_all_with_explicit_frontal_ref(banded_dir, tmp_path, capsys):
    ref = sorted((banded_dir / "s01").glob("*.pgm"))[0]
    models = tmp_path / "models"
    assert main(["train", "--method", "all", "--dataset", str(banded_dir),
                 "--out", str(models), "--k", "12", "--frontal-ref", str(ref)]) == 0
    policy_text = (models / "policy.cfg").read_text()
    assert f"frontal_ref={ref}" in policy_text
    capsys.readouterr()
    assert main(["assess", "--models", str(models), "--policy",
                 str(models / "policy.cfg"), "--image", str(ref)]) == 0
    out = capsys.readouterr().out
    assert "pose_deviation,0\n" in out  # the reference itself has zero pose


def test_single_recognize_prints_prediction(banded_dir, tmp_path, capsys):
    model = tmp_path / "fisher.ffm"
    assert main(["train", "--method", "fisher", "--dataset", str(banded_dir),
                 "--out", str(model)]) == 0
    capsys.readouterr()
    probe = sorted((banded_dir / "s03").glob("*.pgm"))[0]
    assert main(["recognize", "--model", str(model), "--image", str(probe)]) == 0
    out = capsys.readouterr().out.strip()
    assert out.split(",")[1] == "s03"


def test_inspect_dumps_metadata(banded_dir, tmp_path, capsys):
    model = tmp_path / "hmm.ffm"
    assert main(["train", "--method", "hmm", "--dataset", str(banded_dir),
                 "--out", str(model)]) == 0
    capsys.readouterr()
    assert main(["inspect", "--model", str(model)]) == 0
    out = capsys.readouterr().out
    assert "method,hmm" in out
    assert "states,5" in out
    assert "labels,s01 s02 s03 s04" in out


def _rewrite(path, edit):
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")


def _drop_basis_row(lines):
    at = next(i for i, line in enumerate(lines) if line.startswith("array basis "))
    _, name, rows, cols = lines[at].split()
    lines[at] = f"array {name} {int(rows) - 1} {cols}"
    del lines[at + 1]


def test_inconsistent_archive_is_data_error(banded_dir, tmp_path, capsys):
    model = tmp_path / "eigen.ffm"
    assert main(["train", "--method", "eigen", "--dataset", str(banded_dir),
                 "--out", str(model), "--k", "12"]) == 0
    _rewrite(model, _drop_basis_row)
    capsys.readouterr()
    probe = sorted((banded_dir / "s01").glob("*.pgm"))[0]
    for argv in (["inspect", "--model", str(model)],
                 ["recognize", "--model", str(model), "--image", str(probe)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "basis" in err and err.count("\n") == 1


def test_archive_with_detector_record_is_data_error(banded_dir, tmp_path, capsys):
    # archives from before the HMM face detector was removed carry this record
    model = tmp_path / "hmm.ffm"
    assert main(["train", "--method", "hmm", "--dataset", str(banded_dir),
                 "--out", str(model)]) == 0
    assert "has_detector" not in model.read_text()
    _rewrite(model, lambda lines: lines.insert(len(lines) - 1, "int has_detector 0"))
    capsys.readouterr()
    assert main(["inspect", "--model", str(model)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1
