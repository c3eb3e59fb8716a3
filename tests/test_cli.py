import contextlib
import io
import os
import resource
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import facelab
from facelab import cli, hmm1d, synth
from facelab.archive import load_model
from facelab.cli import main
from facelab.dataset import GrayImage, load_pgm_file, write_pgm
from facelab.dispatcher import METHODS
from facelab.numerics import PROBE_CHUNK


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


def test_truncated_raster_is_found_by_evaluate_not_the_scan(banded_dir, tmp_path, capsys):
    root = tmp_path / "banded"
    shutil.copytree(banded_dir, root)
    model = tmp_path / "eigen.ffm"
    assert main(["train", "--method", "eigen", "--dataset", str(root),
                 "--out", str(model)]) == 0
    cut = sorted((root / "s02").glob("*.pgm"))[1]
    cut.write_bytes(cut.read_bytes()[:-10])
    capsys.readouterr()
    assert main(["evaluate", "--model", str(model), "--dataset", str(root)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"data error: {cut}: truncated P5 pixel data")


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


def test_train_all_observes_each_training_image_once(banded_dir, tmp_path, monkeypatch):
    # train_bank's observe calls, PROBE_CHUNK images each, give both the HMM features
    # and the residuals that calibrate the dispatcher
    real_observe, observed = hmm1d.observe, []

    def spy(images, params, klt):
        assert len(images) <= PROBE_CHUNK
        observed.extend(images)
        return real_observe(images, params, klt)

    monkeypatch.setattr(hmm1d, "observe", spy)
    assert main(["train", "--method", "all", "--dataset", str(banded_dir),
                 "--out", str(tmp_path / "models"), "--split", "k:5,seed:0", "--k", "12"]) == 0
    n_train = 5 * len([p for p in banded_dir.iterdir() if p.is_dir()])
    assert len(observed) == n_train
    assert len({id(image) for image in observed}) == n_train


@pytest.mark.parametrize("split", [["--split", "k:5,seed:0"], []], ids=["half", "all_images"])
def test_train_all_faces_match_training_each_alone(banded_dir, tmp_path, split):
    # --method all fits eigen and fisher from one PCA, solved for the more directions
    # of the two. At the default k both trainers alone take the full Gram spectrum,
    # and each archive is byte-identical to training its method alone.
    flags = ["--dataset", str(banded_dir)] + split
    assert main(["train", "--method", "all", "--out", str(tmp_path / "all")] + flags) == 0
    for method in ("eigen", "fisher"):
        alone = tmp_path / f"{method}.ffm"
        assert main(["train", "--method", method, "--out", str(alone)] + flags) == 0
        assert (tmp_path / "all" / f"{method}.ffm").read_bytes() == alone.read_bytes()


def test_train_all_eigen_takes_the_shared_full_solve(banded_dir, tmp_path):
    # --k 1 of 20 images: eigen alone solves its one pair by subspace iteration, while
    # --method all takes it from fisher's full 16-pair Gram solve; the two agree
    # within the subspace route's tolerances, and classify alike
    flags = ["--dataset", str(banded_dir), "--split", "k:5,seed:0", "--k", "1"]
    assert main(["train", "--method", "all", "--out", str(tmp_path / "all")] + flags) == 0
    assert main(["train", "--method", "eigen", "--out", str(tmp_path / "eigen.ffm")] + flags) == 0
    shared, alone = (load_model(path) for path in (tmp_path / "all" / "eigen.ffm",
                                                    tmp_path / "eigen.ffm"))
    assert shared.k == alone.k == 1
    assert np.array_equal(shared.mean, alone.mean)
    assert np.abs(shared.basis - alone.basis).max() <= 1e-10
    assert np.abs(shared.eigenvalues - alone.eigenvalues).max() <= 1e-12 * alone.eigenvalues[0]
    scale = np.abs(alone.gallery).max()
    assert np.abs(shared.gallery - alone.gallery).max() <= 1e-10 * scale
    assert shared.theta_face == pytest.approx(alone.theta_face, rel=1e-9)
    assert shared.theta_known == pytest.approx(alone.theta_known, rel=1e-9)
    probes = [load_pgm_file(p) for p in sorted(banded_dir.glob("*/*.pgm"))]
    assert [label for label, _ in shared.predict(probes)] == \
        [label for label, _ in alone.predict(probes)]


def test_multi_without_policy_is_usage_error(banded_dir, tmp_path, capsys):
    probe = sorted((banded_dir / "s01").glob("*.pgm"))[0]
    rc = main(["recognize", "--model", str(tmp_path), "--multi", "--image", str(probe)])
    assert rc == 1


@pytest.mark.parametrize("case", ["all_raw", "train_split_part_test", "train_split_part_train",
                                  "policy_without_multi"])
def test_flag_that_cannot_take_effect_is_usage_error(banded_dir, tmp_path, capsys, case):
    missing = tmp_path / "missing.pgm"
    out = tmp_path / "out"
    train = ["train", "--dataset", str(banded_dir), "--out", str(out), "--method"]
    argv = {
        "all_raw": train + ["all", "--features", "raw"],
        "train_split_part_test": train + ["eigen", "--split", "k:5,seed:0,part:test"],
        "train_split_part_train": train + ["eigen", "--split", "k:5,seed:0,part:train"],
        "policy_without_multi": ["recognize", "--model", str(out), "--policy", str(missing),
                                 "--image", str(missing)],
    }[case]
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error:") and captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []  # rejected before anything is read or written


def test_frontal_ref_flag_is_usage_error(banded_dir, tmp_path, capsys):
    # the frontal reference is always chosen from the training images
    ref = sorted((banded_dir / "s01").glob("*.pgm"))[0]
    assert main(["train", "--method", "all", "--dataset", str(banded_dir),
                 "--out", str(tmp_path / "models"), "--frontal-ref", str(ref)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    first, usage = captured.err.splitlines()
    assert first.startswith("usage error:") and "--frontal-ref" in first
    assert usage.startswith("usage: facelab")
    assert list(tmp_path.iterdir()) == []


def test_line_break_in_reference_path_is_data_error(tmp_path, capsys):
    # the policy file holds one key=value per line; a reference path with a line break
    # would add a line of its own
    root = tmp_path / "da\ntau_pose=0"
    synth.write_dataset(synth.make_banded_dataset(), root)
    out = tmp_path / "models"
    assert main(["train", "--method", "all", "--dataset", str(root), "--out", str(out),
                 "--k", "12"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("data error: frontal reference path")
    assert captured.err.count("\n") == 1
    assert list(out.iterdir()) == []  # no archive, policy or temporary file


def test_frontal_ref_is_found_from_another_directory(banded_dir, tmp_path, capsys,
                                                     monkeypatch):
    models = tmp_path / "models"
    monkeypatch.chdir(banded_dir.parent)
    assert main(["train", "--method", "all", "--dataset", banded_dir.name,
                 "--out", str(models), "--k", "12"]) == 0
    ref = next(line.partition("=")[2] for line in (models / "policy.cfg").read_text().splitlines()
               if line.startswith("frontal_ref="))
    assert Path(ref).is_absolute()
    monkeypatch.chdir(tmp_path)  # where the dataset's relative path names nothing
    probe = sorted((banded_dir / "s02").glob("*.pgm"))[0]
    capsys.readouterr()
    assert main(["recognize", "--model", str(models), "--policy", str(models / "policy.cfg"),
                 "--multi", "--image", str(probe)]) == 0
    assert capsys.readouterr().out.strip().split(",")[2] == "s02"
    assert main(["assess", "--models", str(models), "--policy",
                 str(models / "policy.cfg"), "--image", ref]) == 0
    assert "pose_deviation,0\n" in capsys.readouterr().out  # the reference has zero pose


def test_assess_on_label_mismatched_models_is_data_error(trained_all, banded_dir, tmp_path,
                                                         capsys):
    models = tmp_path / "models"
    shutil.copytree(trained_all, models)
    subset = tmp_path / "subset"
    for subject in ("s01", "s02", "s03"):
        shutil.copytree(banded_dir / subject, subset / subject)
    assert main(["train", "--method", "fisher", "--dataset", str(subset),
                 "--out", str(models / "fisher.ffm")]) == 0
    probe = sorted((banded_dir / "s01").glob("*.pgm"))[0]
    capsys.readouterr()
    for argv in (["recognize", "--model", str(models), "--multi"],
                 ["assess", "--models", str(models)]):
        assert main(argv + ["--policy", str(models / "policy.cfg"), "--image", str(probe)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "data error: models were trained on different label sets\n"


def test_policy_with_default_method_is_data_error(trained_all, banded_dir, tmp_path, capsys):
    # written before select always fell back to eigen: train again
    policy = tmp_path / "policy.cfg"
    policy.write_text("default_method=eigen\n" + (trained_all / "policy.cfg").read_text())
    probe = sorted((banded_dir / "s01").glob("*.pgm"))[0]
    capsys.readouterr()
    for argv in (["recognize", "--model", str(trained_all), "--multi"],
                 ["assess", "--models", str(trained_all)]):
        assert main(argv + ["--policy", str(policy), "--image", str(probe)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"data error: {policy}:1: unknown policy key 'default_method'\n"


def test_readme_cli_examples_parse():
    # every facelab command of the README's CLI usage block, continuations joined
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("facelab ")]
    assert {argv[0] for argv in commands} == {"train", "recognize", "evaluate", "assess",
                                             "inspect"}
    for argv in commands:
        cli._build_parser().parse_args(argv)  # a _UsageError names the bad flag


def test_single_recognize_prints_prediction(banded_dir, tmp_path, capsys):
    model = tmp_path / "fisher.ffm"
    assert main(["train", "--method", "fisher", "--dataset", str(banded_dir),
                 "--out", str(model)]) == 0
    capsys.readouterr()
    probe = sorted((banded_dir / "s03").glob("*.pgm"))[0]
    assert main(["recognize", "--model", str(model), "--image", str(probe)]) == 0
    out = capsys.readouterr().out.strip()
    assert out.split(",")[1] == "s03"


@pytest.mark.parametrize("method", ["eigen", "fisher"])
def test_archive_dims_are_checked_against_the_probe(banded_dir, tmp_path, capsys, method):
    model = tmp_path / f"{method}.ffm"
    assert main(["train", "--method", method, "--dataset", str(banded_dir),
                 "--out", str(model)]) == 0
    trained = model.read_text()
    assert "\ndims 64 64\n" in trained
    probe = sorted((banded_dir / "s01").glob("*.pgm"))[0]
    # each edit keeps the pixel count of the stored arrays
    for dims, code in (("4096 1", 2), ("-1 -4096", 2), ("64 64", 0)):
        model.write_text(trained.replace("\ndims 64 64\n", f"\ndims {dims}\n"))
        capsys.readouterr()
        assert main(["recognize", "--model", str(model), "--image", str(probe)]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == (code != 0)
        assert code == 0 or (err.startswith("data error:") and "dims" in err)
        if dims.startswith("-"):
            assert main(["inspect", "--model", str(model)]) == 2
            assert "dims,-1" not in capsys.readouterr().out


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


def _extra_dims_token(lines):
    at = next(i for i, line in enumerate(lines) if line.startswith("dims "))
    lines[at] += " 7"


def test_inconsistent_archive_is_data_error(banded_dir, tmp_path, capsys):
    trained = tmp_path / "trained.ffm"
    assert main(["train", "--method", "eigen", "--dataset", str(banded_dir),
                 "--out", str(trained), "--k", "12"]) == 0
    probe = sorted((banded_dir / "s01").glob("*.pgm"))[0]
    for edit, word in ((_drop_basis_row, "basis"), (_extra_dims_token, "dims")):
        model = tmp_path / "eigen.ffm"
        model.write_text(trained.read_text())
        _rewrite(model, edit)
        capsys.readouterr()
        for argv in (["inspect", "--model", str(model)],
                     ["recognize", "--model", str(model), "--image", str(probe)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("data error:") and word in err and err.count("\n") == 1


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


def test_archive_with_start_records_is_data_error(banded_dir, tmp_path, capsys):
    # archives from before the fixed start state stopped being stored carry
    # one model:<label>:start array per subject
    model = tmp_path / "hmm.ffm"
    assert main(["train", "--method", "hmm", "--dataset", str(banded_dir),
                 "--out", str(model)]) == 0
    assert ":start" not in model.read_text()

    def add_start_records(lines):
        for at in [i for i, line in enumerate(lines) if line.endswith(":trans 5 5")][::-1]:
            prefix = lines[at].split()[1].rsplit(":", 1)[0]  # model:<label>
            lines[at:at] = [f"array {prefix}:start 1 5", "1 0 0 0 0"]

    _rewrite(model, add_start_records)
    probe = sorted((banded_dir / "s01").glob("*.pgm"))[0]
    capsys.readouterr()
    for argv in (["inspect", "--model", str(model)],
                 ["recognize", "--model", str(model), "--image", str(probe)],
                 ["evaluate", "--model", str(model), "--dataset", str(banded_dir)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("data error:") and captured.err.count("\n") == 1
        assert "start" in captured.err


def test_zero_state_hmm_archive_is_data_error(banded_dir, tmp_path, capsys):
    model = tmp_path / "hmm.ffm"
    assert main(["train", "--method", "hmm", "--dataset", str(banded_dir),
                 "--out", str(model)]) == 0

    def zero_states(lines):  # the first subject's three arrays, headers and rows, as 0 states
        for field in ("vars", "means", "trans"):
            at = next(i for i, line in enumerate(lines) if line.startswith("array model:")
                      and line.split()[1].endswith(f":{field}"))
            _, name, rows, cols = lines[at].split()
            lines[at:at + 1 + int(rows)] = [f"array {name} 0 {0 if field == 'trans' else cols}"]

    _rewrite(model, zero_states)
    probe = sorted((banded_dir / "s01").glob("*.pgm"))[0]
    capsys.readouterr()
    for argv in (["inspect", "--model", str(model)],
                 ["recognize", "--model", str(model), "--image", str(probe)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("data error:") and captured.err.count("\n") == 1
        assert "state" in captured.err


def _comma_in_label(lines):
    at = next(i for i, line in enumerate(lines) if line.startswith("labels "))
    lines[at] = lines[at].replace(" s04", " s,04")


def test_archive_label_with_comma_is_data_error(banded_dir, tmp_path, capsys):
    # a comma in a label would add a field to recognize's and evaluate's CSV lines
    model = tmp_path / "fisher.ffm"
    assert main(["train", "--method", "fisher", "--dataset", str(banded_dir),
                 "--out", str(model)]) == 0
    _rewrite(model, _comma_in_label)
    probe = sorted((banded_dir / "s01").glob("*.pgm"))[0]
    capsys.readouterr()
    for argv in (["inspect", "--model", str(model)],
                 ["recognize", "--model", str(model), "--image", str(probe)],
                 ["evaluate", "--model", str(model), "--dataset", str(banded_dir)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("data error:") and captured.err.count("\n") == 1
        assert str(model) in captured.err and "'s,04'" in captured.err


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_non_ascii_class_directory_is_data_error(trained_all, banded_dir, tmp_path, capsys,
                                                 command):
    # archives are ASCII text, so a label that could not be written is refused by the scan
    root = tmp_path / "data"
    shutil.copytree(banded_dir / "s01", root / "caf\u00e9")
    shutil.copytree(banded_dir / "s02", root / "s02")
    argv = {
        "train": ["train", "--method", "eigen", "--dataset", str(root), "--k", "4",
                  "--out", str(tmp_path / "eigen.ffm")],
        "evaluate": ["evaluate", "--model", str(trained_all / "eigen.ffm"),
                     "--dataset", str(root), "--report", str(tmp_path / "r.csv")],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("data error:") and captured.err.count("\n") == 1
    assert "'caf\u00e9'" in captured.err and "ASCII" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]


@pytest.fixture(scope="module")
def tall_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli") / "tall"
    synth.write_dataset(synth.make_banded_dataset(n_images=4, height=16, width=12), root)
    return root


def test_transposed_probe_and_frontal_reference_are_data_errors(tall_dir, tmp_path, capsys):
    models = tmp_path / "models"
    assert main(["train", "--method", "all", "--dataset", str(tall_dir),
                 "--out", str(models), "--k", "8", "--block-l", "4", "--overlap", "3",
                 "--states", "4", "--klt-d", "4"]) == 0
    probe = sorted((tall_dir / "s01").glob("*.pgm"))[0]
    image = load_pgm_file(probe)
    transposed = tmp_path / "transposed.pgm"
    transposed.write_bytes(write_pgm(GrayImage(image.w, image.h, image.pixels.T)))
    capsys.readouterr()
    for method in ("eigen", "fisher", "hmm"):  # same pixel count, other (h, w)
        assert main(["recognize", "--model", str(models / f"{method}.ffm"),
                     "--image", str(transposed)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "dims" in err and err.count("\n") == 1

    policy = tmp_path / "policy.cfg"
    policy.write_text("".join(
        f"frontal_ref={transposed}\n" if line.startswith("frontal_ref=") else line
        for line in (models / "policy.cfg").read_text().splitlines(keepends=True)))
    for argv in (["recognize", "--model", str(models), "--multi"],
                 ["assess", "--models", str(models)]):
        assert main(argv + ["--policy", str(models / "policy.cfg"), "--image", str(probe)]) == 0
        capsys.readouterr()
        assert main(argv + ["--policy", str(policy), "--image", str(probe)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("data error: frontal reference dims")
        assert captured.err.count("\n") == 1


@pytest.fixture(scope="module")
def trained_all(banded_dir, tmp_path_factory):
    models = tmp_path_factory.mktemp("cli") / "models"
    assert main(["train", "--method", "all", "--dataset", str(banded_dir),
                 "--out", str(models), "--k", "12"]) == 0
    return models


def _first_mean_row(edit):
    def apply(lines):
        at = next(i for i, line in enumerate(lines) if line.startswith("array mean ")) + 1
        lines[at] = edit(lines[at])
    return apply


_NAN, _INF = "000000000000f87f", "000000000000f07f"  # little-endian IEEE-754 bit patterns


@pytest.mark.parametrize("edit", [
    lambda lines: lines.__setitem__(0, "FFM1"),  # the decimal-row format: train again
    _first_mean_row(lambda row: row[:-1]),  # odd width
    _first_mean_row(lambda row: row + "00"),  # a byte long
    _first_mean_row(lambda row: "g" + row[1:]),
    _first_mean_row(lambda row: row[:2] + " " + row[3:]),  # fromhex would skip the space
    _first_mean_row(lambda row: _NAN + row[16:]),
    _first_mean_row(lambda row: row[:16] + _INF + row[32:]),
], ids=["ffm1", "odd_width", "byte_long", "non_hex", "space_inside", "nan", "inf"])
def test_broken_hex_archive_is_data_error(trained_all, banded_dir, tmp_path, capsys, edit):
    model = tmp_path / "eigen.ffm"
    model.write_text((trained_all / "eigen.ffm").read_text())
    _rewrite(model, edit)
    probe = sorted((banded_dir / "s01").glob("*.pgm"))[0]
    capsys.readouterr()
    for argv in (["inspect", "--model", str(model)],
                 ["recognize", "--model", str(model), "--image", str(probe)],
                 ["evaluate", "--model", str(model), "--dataset", str(banded_dir)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("data error:") and captured.err.count("\n") == 1


def test_hmm_training_flattens_no_image(banded_dir, tmp_path, monkeypatch):
    # the HMM trainer reads the images; only eigen and fisher read flattened vectors
    def refuse(image):
        raise AssertionError("flatten called")
    monkeypatch.setattr(cli, "flatten", refuse)
    assert main(["train", "--method", "hmm", "--dataset", str(banded_dir),
                 "--out", str(tmp_path / "hmm.ffm")]) == 0


@pytest.mark.parametrize("setting", ["mean_sigma=0", "asym_sigma=0", "tau_illum=nan",
                                     "mean_sigma=-1", "resid_p99=nan"])
def test_bad_policy_value_is_data_error(trained_all, banded_dir, tmp_path, capsys, setting):
    key = setting.partition("=")[0]
    lines = [line for line in (trained_all / "policy.cfg").read_text().splitlines()
             if not line.startswith(f"{key}=")]
    policy = tmp_path / "policy.cfg"
    policy.write_text("\n".join(lines + [setting]) + "\n")
    probe = sorted((banded_dir / "s01").glob("*.pgm"))[0]
    capsys.readouterr()
    for argv in (["recognize", "--model", str(trained_all), "--policy", str(policy),
                  "--multi", "--image", str(probe)],
                 ["assess", "--models", str(trained_all), "--policy", str(policy),
                  "--image", str(probe)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and key in err and err.count("\n") == 1
        assert str(policy) in err


@pytest.mark.parametrize("command", ["recognize", "assess"])
def test_policy_file_not_utf8_is_data_error(trained_all, banded_dir, tmp_path, capsys, command):
    policy = tmp_path / "bad.cfg"
    policy.write_bytes(b"tau_illum=1\xff\xfe\n")
    probe = sorted((banded_dir / "s01").glob("*.pgm"))[0]
    argv = {"recognize": ["recognize", "--model", str(trained_all), "--multi"],
            "assess": ["assess", "--models", str(trained_all)]}[command]
    capsys.readouterr()
    assert main(argv + ["--policy", str(policy), "--image", str(probe)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: cannot read policy file {policy}:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("case", ["train_out", "report", "all_out_is_file", "train_out_is_cwd",
                                  "train_out_is_dir"])
def test_unusable_output_path_is_data_error(trained_all, banded_dir, tmp_path, capsys,
                                            monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    missing = tmp_path / "missing"
    afile = tmp_path / "afile"
    afile.write_text("")
    adir = tmp_path / "adir"
    adir.mkdir()
    argv, path = {
        "train_out": (["train", "--method", "eigen", "--dataset", str(banded_dir), "--k", "12",
                       "--out", str(missing / "eigen.ffm")], missing),
        "report": (["evaluate", "--model", str(trained_all / "eigen.ffm"),
                    "--dataset", str(banded_dir), "--report", str(missing / "r.csv")], missing),
        "all_out_is_file": (["train", "--method", "all", "--dataset", str(banded_dir),
                             "--out", str(afile)], afile),
        "train_out_is_cwd": (["train", "--method", "fisher", "--dataset", str(banded_dir),
                              "--out", "."], "'.'"),
        "train_out_is_dir": (["train", "--method", "eigen", "--dataset", str(banded_dir),
                              "--k", "12", "--out", str(adir)], f"'{adir}'"),
    }[case]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(path) in err and err.count("\n") == 1
    assert ".tmp" not in err  # the target is named, not the temporary file beside it
    assert not list(tmp_path.rglob("*.tmp"))


def _tree(root):
    return sorted((str(p.relative_to(root)), p.read_bytes() if p.is_file() else None)
                  for p in root.rglob("*"))


@pytest.mark.parametrize("case", ["train_all_dataset", "evaluate_report_dataset",
                                  "recognize_image", "train_out", "evaluate_listed_file"])
def test_non_utf8_path_is_refused_before_anything_is_written(trained_all, banded_dir, tmp_path,
                                                              capsys, case):
    # reports, policy files and printed lines are UTF-8, so a path that is not is refused
    # up front; capsys's stdout is strict UTF-8, as under a UTF-8 locale
    inputs = tmp_path / "in"
    bad_root = inputs / os.fsdecode(b"data\xff")
    shutil.copytree(banded_dir, bad_root)
    listed = inputs / "listed"
    shutil.copytree(banded_dir, listed)
    probe = sorted((listed / "s01").glob("*.pgm"))[0]
    bad_image = inputs / os.fsdecode(b"probe\xff.pgm")
    shutil.copy(probe, bad_image)
    probe.rename(probe.with_name(os.fsdecode(b"\xfe.pgm")))
    eigen = str(trained_all / "eigen.ffm")
    argv = {
        "train_all_dataset": ["train", "--method", "all", "--dataset", str(bad_root),
                              "--out", str(tmp_path / "models"), "--k", "12"],
        "evaluate_report_dataset": ["evaluate", "--model", eigen, "--dataset", str(bad_root),
                                    "--report", str(tmp_path / "r.csv")],
        "recognize_image": ["recognize", "--model", eigen, "--image", str(bad_image)],
        "train_out": ["train", "--method", "eigen", "--dataset", str(banded_dir), "--k", "12",
                      "--out", str(tmp_path / os.fsdecode(b"m\xff.ffm"))],
        "evaluate_listed_file": ["evaluate", "--model", eigen, "--dataset", str(listed)],
    }[case]
    before = _tree(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("data error: path ") and captured.err.count("\n") == 1
    assert captured.err.endswith(" is not UTF-8 text\n")
    assert _tree(tmp_path) == before


def _main_with_file_size_limit(argv, limit):
    """Run the CLI in a child process that may write no file beyond limit bytes."""
    def cap():
        resource.setrlimit(resource.RLIMIT_FSIZE,
                           (limit, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
    env = {**os.environ, "PYTHONPATH": str(Path(facelab.__file__).parents[1]),
           "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, "-m", "facelab", *argv], capture_output=True,
                          text=True, env=env, preexec_fn=cap, timeout=120)


def test_failed_write_leaves_the_model_set_as_it_was(tall_dir, tmp_path):
    flags = ["--dataset", str(tall_dir), "--k", "1", "--block-l", "4", "--overlap", "3",
             "--states", "4", "--klt-d", "4"]
    sizes = tmp_path / "sizes"
    assert main(["train", "--method", "all", "--out", str(sizes)] + flags) == 0
    size = {path.name: path.stat().st_size for path in sizes.iterdir()}
    # written in the order policy.cfg, eigen.ffm, fisher.ffm: the third is the first too large
    limit = (size["eigen.ffm"] + size["fisher.ffm"]) // 2
    assert size["policy.cfg"] < limit and size["eigen.ffm"] < limit < size["fisher.ffm"]
    out = tmp_path / "models"
    out.mkdir()
    for name in size:
        (out / name).write_text(f"an older {name}\n")
    before = _tree(out)
    proc = _main_with_file_size_limit(["train", "--method", "all", "--out", str(out)] + flags,
                                      limit)
    assert proc.returncode == 2 and proc.stdout == "" and proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("data error: ")  # the target is named, not a temporary
    assert proc.stderr.endswith(f": '{out / 'fisher.ffm'}'\n")
    assert _tree(out) == before  # no new file beside the older ones, and no temporary


def test_directory_among_the_targets_leaves_the_model_set_as_it_was(tall_dir, tmp_path, capsys):
    # policy.cfg and eigen.ffm are renamed before fisher.ffm: every target is checked first
    out = tmp_path / "models"
    out.mkdir()
    for name in ("policy.cfg", "eigen.ffm", "hmm.ffm"):
        (out / name).write_text(f"an older {name}\n")
    (out / "fisher.ffm").mkdir()
    (out / "fisher.ffm" / "kept").write_text("kept\n")
    before = _tree(out)
    capsys.readouterr()
    assert main(["train", "--method", "all", "--dataset", str(tall_dir), "--k", "1",
                 "--block-l", "4", "--overlap", "3", "--states", "4", "--klt-d", "4",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("data error: [Errno 21] Is a directory")
    assert captured.err.endswith(f": '{out / 'fisher.ffm'}'\n")
    assert _tree(out) == before  # nothing replaced, and no temporary left behind


def test_failed_report_write_leaves_no_report(trained_all, banded_dir, tmp_path):
    report = tmp_path / "r.csv"
    proc = _main_with_file_size_limit(["evaluate", "--model", str(trained_all / "eigen.ffm"),
                                       "--dataset", str(banded_dir), "--report", str(report)],
                                      1024)
    assert proc.returncode == 2 and proc.stdout == "" and proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("data error: ") and proc.stderr.endswith(f": '{report}'\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_negative_split_seed_is_usage_error(trained_all, banded_dir, tmp_path, capsys, command):
    argv = {
        "train": ["train", "--method", "eigen", "--dataset", str(banded_dir), "--k", "12",
                  "--out", str(tmp_path / "eigen.ffm")],
        "evaluate": ["evaluate", "--model", str(trained_all / "eigen.ffm"),
                     "--dataset", str(banded_dir)],
    }[command]
    capsys.readouterr()
    assert main(argv + ["--split", "k:5,seed:-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "seed" in err.splitlines()[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("flags,klt_dim", [
    (["--block-l", "64", "--overlap", "0", "--states", "1"], 10),  # 40 blocks of 4096: Gram route
    (["--block-l", "6", "--overlap", "1"], 10),  # 480 blocks of 384, stride 5, 3 rows in none
    (["--block-l", "1", "--overlap", "0", "--klt-d", "100"], 64),  # 100 asked of 64 dimensions
], ids=["gram_route", "scatter_route_stride5", "klt_d_clamped"])
def test_hmm_trains_on_either_klt_route(banded_dir, tmp_path, capsys, flags, klt_dim):
    model = tmp_path / "hmm.ffm"
    assert main(["train", "--method", "hmm", "--dataset", str(banded_dir),
                 "--out", str(model)] + flags) == 0
    assert load_model(model).klt.dim == klt_dim
    capsys.readouterr()
    assert main(["inspect", "--model", str(model)]) == 0
    out = capsys.readouterr().out
    assert f"block_height,{flags[1]}" in out and f"overlap,{flags[3]}" in out


@pytest.fixture(scope="module")
def fuzz_paths(tall_dir, tmp_path_factory):
    """Per role of a path option, the paths the CLI fuzz test draws from: the ones
    the role expects first, then the rest of missing, a directory, an empty file,
    random bytes (written per example), a real file of a tiny banded tree or of
    the models trained on it, and a name that is not UTF-8."""
    root = tmp_path_factory.mktemp("fuzz")
    models = root / "models"
    assert main(["train", "--method", "all", "--dataset", str(tall_dir), "--out", str(models),
                 "--k", "8", "--block-l", "4", "--overlap", "3", "--states", "4",
                 "--klt-d", "4"]) == 0
    (root / "empty").write_bytes(b"")
    (root / "adir").mkdir()
    probe = sorted((tall_dir / "s01").glob("*.pgm"))[0]
    not_utf8 = root / os.fsdecode(b"probe\xff.pgm")
    shutil.copy(probe, not_utf8)
    expected = {"model": [models / f"{method}.ffm" for method in METHODS], "models": [models],
                "policy": [models / "policy.cfg"], "image": [probe], "dataset": [tall_dir]}
    others = [root / "missing", root / "adir", root / "empty", root / "random", not_utf8]
    every = others + [path for paths in expected.values() for path in paths]
    return {role: paths + [p for p in every if p not in paths] for role, paths in expected.items()}


_FUZZ_COMMANDS = {
    "inspect": ["inspect", "--model", "model"],
    "recognize": ["recognize", "--model", "model", "--image", "image"],
    "recognize_multi": ["recognize", "--model", "models", "--multi", "--policy", "policy",
                        "--image", "image"],
    "assess": ["assess", "--models", "models", "--policy", "policy", "--image", "image"],
    "evaluate": ["evaluate", "--model", "model", "--dataset", "dataset"],
}


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(sorted(_FUZZ_COMMANDS)), data=st.data())
def test_cli_fuzz_paths_end_in_one_line_or_success(fuzz_paths, command, data):
    # stdout and stderr are strict UTF-8, as under a UTF-8 locale, so printing a path
    # that is not UTF-8 would raise rather than pass
    argv = []
    for token in _FUZZ_COMMANDS[command]:
        if token in fuzz_paths:  # a role: draw one of its paths
            token = data.draw(st.sampled_from(fuzz_paths[token]), label=token)
            if token.name == "random":
                token.write_bytes(data.draw(st.binary(max_size=64), label="random bytes"))
        argv.append(str(token))
    out, err = (io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=True)
                for _ in range(2))
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    lines = err.buffer.getvalue().decode("utf-8").splitlines()
    assert rc in (0, 1, 2, 3)
    assert not any("Traceback" in line for line in lines)
    if rc != 0:
        verdicts = [line for line in lines
                    if line.startswith(("usage error:", "data error:", "numeric failure:"))]
        assert len(verdicts) == 1
        assert verdicts[0].startswith({1: "usage", 2: "data", 3: "numeric"}[rc])
