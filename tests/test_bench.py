import csv
import io

import pytest

from facelab import bench
from facelab.dataset import flatten
from facelab.eigenfaces import train_eigen
from facelab.errors import DataError


class TestEvaluate:
    def test_training_set_self_classification(self, banded, banded_models):
        report = bench.evaluate_entries(banded_models.bank, banded.train_entries)
        assert report.error_rate == 0.0
        assert report.method == "hmm"

    def test_single_mistake_arithmetic(self, banded, banded_models):
        # mislabel one of four correctly recognized probes: 1/4 exactly
        entries = [(truth, path, img)
                   for truth, path, img in banded.train_entries[:4]]
        sabotaged = [entries[0], entries[1], entries[2],
                     ("s04", entries[3][1], entries[3][2])]
        report = bench.evaluate_entries(banded_models.bank, sabotaged)
        assert report.error_rate == 0.25

    def test_confusion_counts_sum_to_total(self, banded, banded_models):
        report = bench.evaluate_entries(banded_models.eigen, banded.test_entries)
        assert sum(report.confusion.values()) == report.total == len(banded.test_entries)
        recomputed = sum(count for (truth, pred), count in report.confusion.items()
                         if truth != pred) / report.total
        assert recomputed == report.error_rate

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
        report = bench.evaluate(banded_models.bank, banded.test, "k=5,seed=0,part=test")
        assert report.split_desc == "k=5,seed=0,part=test"
        assert report.error_rate <= 0.05


class TestThresholdSweep:
    @pytest.fixture()
    def sweep_setup(self, banded):
        # enroll two subjects; the other two become impostors
        known_labels = {"s01", "s02"}
        train = [(lb, flatten(im)) for lb, _, im in banded.train_entries
                 if lb in known_labels]
        model = train_eigen(train, k=6, dims=(64, 64))
        known = [im for lb, _, im in banded.test_entries if lb in known_labels]
        impostors = [im for lb, _, im in banded.test_entries if lb not in known_labels]
        return model, known, impostors

    def test_endpoints(self, sweep_setup):
        model, known, impostors = sweep_setup
        curve = bench.threshold_sweep(model, known, impostors, steps=21)
        theta0, far0, _ = curve[0]
        assert theta0 == 0.0 and far0 == 0.0
        _, _, frr_last = curve[-1]
        assert frr_last == 0.0  # everything passing the face test is accepted

    def test_monotonicity(self, sweep_setup):
        model, known, impostors = sweep_setup
        curve = bench.threshold_sweep(model, known, impostors, steps=33)
        fars = [far for _, far, _ in curve]
        frrs = [frr for _, _, frr in curve]
        assert all(b >= a for a, b in zip(fars, fars[1:]))
        assert all(b <= a for a, b in zip(frrs, frrs[1:]))

    def test_validation(self, sweep_setup):
        model, known, impostors = sweep_setup
        with pytest.raises(DataError):
            bench.threshold_sweep(model, known, impostors, steps=1)
        with pytest.raises(DataError):
            bench.threshold_sweep(model, [], impostors, steps=5)
        with pytest.raises(DataError):
            bench.threshold_sweep(model, known, [], steps=5)


class TestPredict:
    def test_eigen_markers(self, banded, banded_models):
        prediction, _ = bench.predict(banded_models.eigen, banded.train_entries[0][2])
        assert prediction == banded.train_entries[0][0]

    def test_unsupported_model(self, banded):
        with pytest.raises(DataError):
            bench.predict(object(), banded.train_entries[0][2])
