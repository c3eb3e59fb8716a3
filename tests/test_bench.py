import csv
import io

import numpy as np
import pytest

from facelab import bench, synth
from facelab.dataset import GrayImage, flatten
from facelab.eigenfaces import train_eigen
from facelab.errors import DataError
from facelab.fisherfaces import train_fisher
from facelab.hmm1d import BlockParams, train_bank


class TestEvaluate:
    def test_training_set_self_classification(self, banded, banded_models):
        report = bench.evaluate_entries(banded_models.bank, banded.train_entries)
        assert report.error_rate == 0.0

    def test_single_mistake_arithmetic(self, banded, banded_models):
        # mislabel one of four correctly recognized probes: 1/4 exactly
        entries = [(truth, path, img)
                   for truth, path, img in banded.train_entries[:4]]
        sabotaged = [entries[0], entries[1], entries[2],
                     ("s04", entries[3][1], entries[3][2])]
        report = bench.evaluate_entries(banded_models.bank, sabotaged)
        assert report.error_rate == 0.25

    @pytest.mark.parametrize("method", ["eigen", "fisher", "bank"])
    def test_report_equals_per_probe_predictions(self, banded, banded_models, method):
        model = getattr(banded_models, method)
        report = bench.evaluate_entries(model, banded.test_entries)
        by_path = {path: image for _, path, image in banded.test_entries}
        assert [rec.path for rec in report.records] == sorted(by_path)
        for rec in report.records:
            [(prediction, score)] = model.predict([by_path[rec.path]])
            assert rec.prediction == prediction
            assert np.float64(rec.score).view(np.int64) == np.float64(score).view(np.int64)

    def test_error_rate_recomputable_from_records(self, banded, banded_models):
        report = bench.evaluate_entries(banded_models.fisher, banded.test_entries)
        wrong = sum(1 for rec in report.records if not rec.correct)
        assert report.error_rate == wrong / len(report.records)

    def test_csv_deterministic(self, banded, banded_models):
        first = bench.report_to_csv(bench.evaluate_entries(banded_models.bank,
                                                           banded.test_entries))
        second = bench.report_to_csv(bench.evaluate_entries(banded_models.bank,
                                                            banded.test_entries))
        assert first == second
        assert first.splitlines()[0] == "path,truth,prediction,score,correct"

    def test_records_sorted_by_path(self, banded, banded_models):
        report = bench.evaluate_entries(banded_models.bank,
                                        list(reversed(banded.test_entries)))
        paths = [rec.path for rec in report.records]
        assert paths == sorted(paths)

    def test_empty_test_set_rejected(self, banded_models):
        with pytest.raises(DataError, match="empty"):
            bench.evaluate_entries(banded_models.bank, [])

    def test_uncovered_label_rejected(self, banded, banded_models):
        truth, path, img = banded.test_entries[0]
        with pytest.raises(DataError, match="not covered"):
            bench.evaluate_entries(banded_models.bank, [("stranger", path, img)])

    def test_manifest_dims_guard(self, lighting, banded_models):
        with pytest.raises(DataError, match="dims"):
            bench.evaluate(banded_models.bank, lighting.test)

    @pytest.mark.parametrize("name", ["09.pgm", "09,x.pgm"])
    def test_csv_rows_parse_back(self, banded, banded_models, name):
        truth, _, img = banded.train_entries[0]
        path = f"data2/{truth}/{name}"
        report = bench.evaluate_entries(banded_models.bank, [(truth, path, img)])
        rec = report.records[0]
        text = bench.report_to_csv(report)
        fields = [path, truth, rec.prediction, format(rec.score, ".17g"), "1"]
        assert list(csv.reader(io.StringIO(text)))[1] == fields
        if "," not in name:  # ordinary paths are written unquoted, as before
            assert text.splitlines()[1] == ",".join(fields)

    def test_evaluate_manifest(self, banded, banded_models):
        report = bench.evaluate(banded_models.bank, banded.test)
        assert report.error_rate <= 0.05


class TestPredict:
    def test_eigen_markers(self, banded, banded_models):
        [(prediction, _)] = bench.predict(banded_models.eigen, [banded.train_entries[0][2]])
        assert prediction == banded.train_entries[0][0]

    def test_unsupported_model(self, banded):
        with pytest.raises(DataError):
            bench.predict(object(), [banded.train_entries[0][2]])


@pytest.fixture(scope="module")
def tall_models():
    """16 x 12 models of each kind, so that a transposed probe has their pixel count."""
    entries = synth.make_banded_dataset(n_images=4, height=16, width=12)
    vectors = [(label, flatten(image)) for label, image in entries]
    return {"eigen": train_eigen(vectors, 8, (16, 12)),
            "fisher": train_fisher(vectors, (16, 12)),
            "hmm": train_bank(entries, BlockParams(4, 3, (16, 12)), n_states=4, klt_dim=4)}


@pytest.mark.parametrize("method", ["eigen", "fisher", "hmm"])
def test_transposed_probe_is_data_error(tall_models, method):
    model = tall_models[method]
    image = synth.make_banded_dataset(n_images=1, height=16, width=12)[0][1]
    assert len(bench.predict(model, [image])) == 1
    with pytest.raises(DataError, match=r"dims \(12, 16\)"):
        bench.predict(model, [GrayImage(12, 16, image.pixels.T)])
