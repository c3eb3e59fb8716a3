import numpy as np
import pytest

from facelab import bench
from facelab.archive import load_model, method_of, save_model
from facelab.eigenfaces import EigenModel, classify
from facelab.errors import DataError
from facelab.fisherfaces import FisherModel
from facelab.hmm1d import BlockParams, KltBasis, SubjectBank


def _arrays_equal(a, b):
    return a.shape == b.shape and np.array_equal(a, b)


class TestEigenRoundTrip:
    def test_bit_exact(self, tmp_path, banded_models):
        path = tmp_path / "eigen.ffm"
        save_model(banded_models.eigen, path)
        model = load_model(path)
        assert isinstance(model, EigenModel)
        src = banded_models.eigen
        assert model.dims == src.dims
        assert model.theta_face == src.theta_face
        assert model.theta_known == src.theta_known
        assert _arrays_equal(model.mean, src.mean)
        assert _arrays_equal(model.basis, src.basis)
        assert _arrays_equal(model.eigenvalues, src.eigenvalues)
        assert list(model.gallery) == list(src.gallery)
        for label in src.gallery:
            assert len(model.gallery[label]) == len(src.gallery[label])
            for a, b in zip(model.gallery[label], src.gallery[label]):
                assert _arrays_equal(a, b)

    def test_predictions_unchanged(self, tmp_path, banded, banded_models):
        path = tmp_path / "eigen.ffm"
        save_model(banded_models.eigen, path)
        loaded = load_model(path)
        from facelab.dataset import flatten
        for _, _, img in banded.test_entries:
            before = classify(banded_models.eigen, flatten(img))
            after = classify(loaded, flatten(img))
            assert (before.verdict, before.label) == (after.verdict, after.label)
            assert before.distance == after.distance


class TestFisherRoundTrip:
    def test_bit_exact(self, tmp_path, banded_models):
        path = tmp_path / "fisher.ffm"
        save_model(banded_models.fisher, path)
        model = load_model(path)
        assert isinstance(model, FisherModel)
        src = banded_models.fisher
        assert model.dims == src.dims
        assert _arrays_equal(model.mean, src.mean)
        assert _arrays_equal(model.pca, src.pca)
        assert _arrays_equal(model.fld, src.fld)
        assert _arrays_equal(model.eigenvalues, src.eigenvalues)
        assert list(model.centroids) == list(src.centroids)
        for label in src.centroids:
            assert _arrays_equal(model.centroids[label], src.centroids[label])


class TestBankRoundTrip:
    def test_bit_exact(self, tmp_path, banded_models):
        path = tmp_path / "hmm.ffm"
        save_model(banded_models.bank, path)
        bank = load_model(path)
        assert isinstance(bank, SubjectBank)
        src = banded_models.bank
        assert bank.params == src.params
        assert bank.feature_mode == src.feature_mode
        assert _arrays_equal(bank.klt.mean, src.klt.mean)
        assert _arrays_equal(bank.klt.basis, src.klt.basis)
        assert list(bank.models) == list(src.models)
        for label, model in src.models.items():
            other = bank.models[label]
            assert _arrays_equal(other.trans, model.trans)
            assert _arrays_equal(other.means, model.means)
            assert _arrays_equal(other.variances, model.variances)

    def test_predictions_unchanged(self, tmp_path, banded, banded_models):
        path = tmp_path / "hmm.ffm"
        save_model(banded_models.bank, path)
        loaded = load_model(path)
        for truth, _, img in banded.test_entries[:8]:
            assert bench.predict(loaded, img) == bench.predict(banded_models.bank, img)


class TestFormat:
    def test_seventeen_digits_round_trip(self):
        tricky = [0.1, 1.0 / 3.0, np.pi, 2.0 ** -1074, 1e300, -0.0, 123456789.123456789]
        for v in tricky:
            assert float(format(v, ".17g")) == v

    def test_corrupt_magic(self, tmp_path, banded_models):
        path = tmp_path / "m.ffm"
        save_model(banded_models.eigen, path)
        body = path.read_text().splitlines()
        body[0] = "XXXX"
        path.write_text("\n".join(body) + "\n")
        with pytest.raises(DataError, match="magic"):
            load_model(path)

    def test_version_mismatch(self, tmp_path, banded_models):
        path = tmp_path / "m.ffm"
        save_model(banded_models.eigen, path)
        body = path.read_text().splitlines()
        body[0] = "FFM2"
        path.write_text("\n".join(body) + "\n")
        with pytest.raises(DataError, match="magic"):
            load_model(path)

    def test_truncated_archive(self, tmp_path, banded_models):
        path = tmp_path / "m.ffm"
        save_model(banded_models.eigen, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
        with pytest.raises(DataError):
            load_model(path)

    def test_non_finite_value_rejected(self, tmp_path, banded_models):
        path = tmp_path / "m.ffm"
        save_model(banded_models.eigen, path)
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            if line.startswith("array mean"):
                fields = lines[i + 1].split()
                fields[0] = "nan"
                lines[i + 1] = " ".join(fields)
                break
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="non-finite"):
            load_model(path)

    def test_unknown_method(self, tmp_path, banded_models):
        path = tmp_path / "m.ffm"
        save_model(banded_models.eigen, path)
        lines = path.read_text().splitlines()
        lines[1] = "method wavelet"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="unknown method"):
            load_model(path)

    def test_empty_label_set_rejected(self, tmp_path):
        bank = SubjectBank(BlockParams(2, 1, (4, 2)), KltBasis(np.zeros(4), np.eye(4)[:2]), {})
        path = tmp_path / "empty.ffm"
        save_model(bank, path)
        with pytest.raises(DataError, match="no labels"):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_model(tmp_path / "missing.ffm")

    def test_method_of(self, banded_models):
        assert method_of(banded_models.eigen) == "eigen"
        assert method_of(banded_models.fisher) == "fisher"
        assert method_of(banded_models.bank) == "hmm"
        with pytest.raises(DataError):
            method_of(object())

    def test_atomic_write_leaves_no_temp_files(self, tmp_path, banded_models):
        save_model(banded_models.eigen, tmp_path / "m.ffm")
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert not leftovers
