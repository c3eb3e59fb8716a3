"""Acceptance suite: one test per shipping criterion, run with stated
tolerances and time budgets. Each prints a single PASS/FAIL line (use -s to
see them on success).

Criteria on the real ORL/Yale databases cannot run without the data; when the
FACELAB_DATA environment variable points at a directory containing an
`orl/` or `yale_glasses/` dataset tree, the optional checks run too.
"""

import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import norm

from facelab import bench, dispatcher, synth
from facelab.archive import load_model, save_model
from facelab.cli import main as cli_main
from facelab.dataset import SplitSpec, flatten, load_labeled_vectors, scan_dataset, split
from facelab.eigenfaces import classify, project, reconstruct, train_eigen
from facelab.fisherfaces import compute_scatter, train_fisher
from facelab.hmm1d import HmmModel, baum_welch, init_uniform, loglik, viterbi
from facelab.numerics import sym_eigen

FACELAB_DATA = os.environ.get("FACELAB_DATA")


@contextmanager
def criterion(num: int, name: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {num} [{name}]: FAIL ({time.monotonic() - start:.2f}s)")
        raise
    print(f"criterion {num} [{name}]: PASS ({time.monotonic() - start:.2f}s)")


def test_criterion_1_covariance_trick_equivalence():
    with criterion(1, "covariance-trick equivalence"):
        start = time.monotonic()
        rng = np.random.default_rng(1601)
        samples = [(f"s{i}", rng.integers(0, 256, size=256).astype(float))
                   for i in range(12)]
        model = train_eigen(samples, k=11, dims=(16, 16))

        gamma = np.column_stack([v for _, v in samples])
        phi = gamma - gamma.mean(axis=1)[:, None]
        oracle = sym_eigen(phi @ phi.T)  # brute-force 256x256 route

        k = model.k
        assert k == 11
        assert np.all(np.abs(model.eigenvalues - oracle.eigenvalues[:k])
                      <= 1e-8 * np.abs(oracle.eigenvalues[:k]))
        assert np.abs(model.basis - oracle.eigenvectors[:, :k]).max() <= 1e-6
        assert time.monotonic() - start < 1.0


def test_criterion_2_eigenface_basis_invariants():
    with criterion(2, "eigenface basis invariants"):
        rng = np.random.default_rng(1602)
        samples = [(f"s{i % 4}", rng.integers(0, 200, size=64).astype(float))
                   for i in range(8)]

        full = train_eigen(samples, k=7, dims=(8, 8))
        assert np.abs(full.basis.T @ full.basis - np.eye(full.k)).max() <= 1e-8

        per_image = []
        for k in range(1, 8):
            model = train_eigen(samples, k=k, dims=(8, 8))
            per_image.append([np.linalg.norm(v - reconstruct(model, project(model, v)))
                              for _, v in samples])
        for prev, nxt in zip(per_image, per_image[1:]):
            assert all(b <= a + 1e-9 for a, b in zip(prev, nxt))

        for _, v in samples:
            assert np.abs(reconstruct(full, project(full, v)) - v).max() <= 1e-6

        shifted = [(lb, v + 16.0) for lb, v in samples]
        m0 = train_eigen(samples, k=5, dims=(8, 8))
        m1 = train_eigen(shifted, k=5, dims=(8, 8))
        probe_rng = np.random.default_rng(1603)
        for _ in range(8):
            probe = probe_rng.integers(0, 200, size=64).astype(float)
            d0, d1 = classify(m0, probe), classify(m1, probe + 16.0)
            assert d0.verdict == d1.verdict and d0.label == d1.label


def test_criterion_3_fisherfaces_correctness(banded, lighting, train_fisher_keeping_pca):
    with criterion(3, "fisherfaces correctness"):
        class1 = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        class2 = [(4.0, 0.0), (5.0, 0.0), (4.0, 1.0)]
        samples = ([("c1", np.array(v)) for v in class1]
                   + [("c2", np.array(v)) for v in class2])
        pair = compute_scatter(samples)
        assert np.allclose(pair.between, [[24.0, 0.0], [0.0, 0.0]], atol=1e-10)
        assert np.allclose(pair.within, [[4 / 3, -2 / 3], [-2 / 3, 4 / 3]], atol=1e-10)

        model = train_fisher(samples)
        assert abs(model.eigenvalues[0] - 24.0) <= 1e-8
        direction = model.projection[:, 0]
        assert np.abs(direction - np.array([2.0, 1.0]) / np.sqrt(5.0)).max() <= 1e-8

        # residual bound and rank bound on every benchmark training run
        for bundle in (banded, lighting):
            vectors = [(lb, flatten(im)) for lb, _, im in bundle.train_entries]
            dims = bundle.manifest.dims
            fitted, pca = train_fisher_keeping_pca(vectors, dims)
            c = len(bundle.manifest.labels)
            assert fitted.m <= c - 1
            assert np.all(fitted.eigenvalues > 0)
            reduced = [(lb, pca.T @ (v - fitted.mean)) for lb, v in vectors]
            rpair = compute_scatter(reduced)
            scale = max(1.0, float(np.linalg.norm(rpair.between)))
            fld = pca.T @ fitted.projection
            for k in range(fitted.m):
                resid = (rpair.between @ fld[:, k]
                         - fitted.eigenvalues[k] * (rpair.within @ fld[:, k]))
                assert np.linalg.norm(resid) <= 1e-6 * scale


def test_criterion_4_lighting_benchmark_directional(lighting):
    with criterion(4, "fisher beats eigen under lighting"):
        start = time.monotonic()
        vectors = [(lb, flatten(im)) for lb, _, im in lighting.train_entries]
        dims = lighting.manifest.dims

        # the benchmark's defining property: within-class (lighting) variance
        # exceeds between-class (identity) variance
        mats = {}
        for lb, v in vectors:
            mats.setdefault(lb, []).append(v)
        class_means = {lb: np.mean(vs, axis=0) for lb, vs in mats.items()}
        global_mean = np.mean([v for _, v in vectors], axis=0)
        within = np.mean([np.mean((np.asarray(vs) - class_means[lb]) ** 2)
                          for lb, vs in mats.items()])
        between = np.mean([np.mean((class_means[lb] - global_mean) ** 2)
                           for lb in mats])
        assert within > between

        eigen = train_eigen(vectors, k=2, dims=dims)
        fisher = train_fisher(vectors, dims)
        eigen_report = bench.evaluate_entries(eigen, lighting.test_entries)
        fisher_report = bench.evaluate_entries(fisher, lighting.test_entries)
        assert fisher_report.error_rate < eigen_report.error_rate
        assert fisher_report.error_rate <= 0.05
        assert eigen_report.error_rate >= 0.20
        assert time.monotonic() - start < 10.0


@pytest.mark.skipif(not (FACELAB_DATA and (Path(FACELAB_DATA) / "yale_glasses").is_dir()),
                    reason="FACELAB_DATA/yale_glasses not available")
def test_criterion_4_optional_yale_glasses():
    with criterion(4, "optional: Yale glasses partition"):
        manifest = scan_dataset(Path(FACELAB_DATA) / "yale_glasses")
        k = min(len(v) for v in manifest.classes.values()) // 2
        train_m, test_m = split(manifest, SplitSpec(k=k, seed=0))
        model = train_fisher(load_labeled_vectors(train_m), manifest.dims)
        assert model.m == 1
        report = bench.evaluate(model, test_m)
        assert report.error_rate <= 0.15


def test_criterion_5_hmm_oracle_equivalence():
    with criterion(5, "viterbi/forward oracle equivalence"):
        start = time.monotonic()

        def feasible_paths(n_states, t_len):
            paths = [[0]]
            for _ in range(t_len - 1):
                paths = [p + [q] for p in paths
                         for q in ([p[-1], p[-1] + 1] if p[-1] + 1 < n_states
                                   else [p[-1]])]
            return paths

        def score(model, seq, path):
            lp = 0.0
            for t, state in enumerate(path):
                if t > 0:
                    a = model.trans[path[t - 1], state]
                    if a == 0.0:
                        return -np.inf
                    lp += np.log(a)
                lp += float(np.sum(norm.logpdf(seq[t], model.means[state],
                                               np.sqrt(model.variances[state]))))
            return lp

        rng = np.random.default_rng(1605)
        for _ in range(100):
            n_states = int(rng.integers(1, 5))
            t_len = int(rng.integers(1, 9))
            trans = np.zeros((n_states, n_states))
            for i in range(n_states - 1):
                stay = rng.uniform(0.2, 0.8)
                trans[i, i], trans[i, i + 1] = stay, 1.0 - stay
            trans[-1, -1] = 1.0
            model = HmmModel(trans,
                             rng.normal(0.0, 3.0, size=(n_states, 2)),
                             rng.uniform(0.5, 2.0, size=(n_states, 2)))
            seq = rng.normal(0.0, 2.0, size=(t_len, 2))

            scored = [(score(model, seq, p), p) for p in feasible_paths(n_states, t_len)]
            best_lp = max(lp for lp, _ in scored)
            best_path = min(p for lp, p in scored if lp == best_lp)
            path, lp = viterbi(model, seq)
            assert abs(lp - best_lp) <= 1e-9
            assert list(path) == best_path
            assert abs(loglik(model, seq) - logsumexp([lp for lp, _ in scored])) <= 1e-9

        # hand-worked two-state example, sequence (0, 3)
        trans = np.array([[0.5, 0.5], [0.0, 1.0]])
        model = HmmModel(trans,
                         np.array([[0.0], [3.0]]), np.array([[1.0], [1.0]]))
        seq = np.array([[0.0], [3.0]])
        assert abs(viterbi(model, seq)[1] - (-2.5309)) <= 1e-3
        assert abs(loglik(model, seq) - (-2.5198)) <= 1e-3
        assert time.monotonic() - start < 5.0


def test_criterion_6_em_properties():
    with criterion(6, "Baum-Welch EM properties"):
        rng = np.random.default_rng(1606)
        true_trans = np.array([[0.7, 0.3, 0.0], [0.0, 0.8, 0.2], [0.0, 0.0, 1.0]])
        true = HmmModel(true_trans,
                        np.array([[0.0, 1.0], [3.0, -1.0], [6.0, 2.0]]),
                        np.full((3, 2), 1.0))
        seqs = []
        for _ in range(5):
            t_len = 25
            seq = np.zeros((t_len, 2))
            state = 0
            for t in range(t_len):
                if t > 0:
                    state = rng.choice(3, p=true.trans[state])
                seq[t] = rng.normal(true.means[state], np.sqrt(true.variances[state]))
            seqs.append(seq)

        history: list[float] = []
        fitted = baum_welch(init_uniform(seqs, 3), seqs, tol=-1.0, max_iter=20,
                            history=history)
        assert len(history) == 20
        assert all(b >= a - 1e-9 for a, b in zip(history, history[1:]))
        for i in range(3):
            for j in range(3):
                if j not in (i, i + 1):
                    assert fitted.trans[i, j] == 0.0
        assert np.abs(fitted.trans.sum(axis=1) - 1.0).max() <= 1e-12


def test_criterion_7_banded_hmm_recognition(banded):
    with criterion(7, "banded-set HMM recognition"):
        start = time.monotonic()
        from facelab.hmm1d import BlockParams, recognize, train_bank
        images = [(lb, im) for lb, _, im in banded.train_entries]
        bank = train_bank(images, BlockParams(10, 9, banded.manifest.dims),
                          n_states=5, klt_dim=10)
        correct = sum(recognize(bank, [im])[0][0] == truth
                      for truth, _, im in banded.test_entries)
        accuracy = correct / len(banded.test_entries)
        assert accuracy >= 0.95
        assert time.monotonic() - start < 60.0


@pytest.mark.skipif(not (FACELAB_DATA and (Path(FACELAB_DATA) / "orl").is_dir()),
                    reason="FACELAB_DATA/orl not available")
def test_criterion_7_optional_orl():
    with criterion(7, "optional: ORL five-train/five-test"):
        from facelab.hmm1d import BlockParams, recognize, train_bank
        from facelab.dataset import load_labeled_images
        manifest = scan_dataset(Path(FACELAB_DATA) / "orl")
        train_m, test_m = split(manifest, SplitSpec(k=5, seed=0))
        images = [(lb, im) for lb, _, im in load_labeled_images(train_m)]
        bank = train_bank(images, BlockParams(10, 9, manifest.dims),
                          n_states=5, klt_dim=10)
        test_images = load_labeled_images(test_m)
        correct = sum(recognize(bank, [im])[0][0] == truth for truth, _, im in test_images)
        assert correct / len(test_images) >= 0.70


def test_criterion_8_dispatcher_behavior(banded, banded_models):
    with criterion(8, "dispatcher profiling and routing"):
        m = banded_models
        ref_image = m.train_images[m.frontal_idx]
        prof = dispatcher.profile(ref_image, m.eigen, m.frontal, m.bank, m.context)
        assert prof.pose_deviation <= 1e-8

        zero = dispatcher.ImageProfile(0.0, 0.0, 0.0)
        assert dispatcher.select(zero, m.policy) == m.policy.default_method

        for gx, gy, off in ((120.0, 0.0, 0.0), (80.0, 80.0, 30.0), (150.0, 0.0, -20.0)):
            probe = synth.add_ramp(banded.test_entries[0][2], gx, gy, off)
            p = dispatcher.profile(probe, m.eigen, m.frontal, m.bank, m.context)
            assert dispatcher.select(p, m.policy) == dispatcher.METHOD_FISHER

        for truth, _, img in banded.test_entries:
            occluded = synth.occlude_bottom(img, 0.4)
            p = dispatcher.profile(occluded, m.eigen, m.frontal, m.bank, m.context)
            assert p.occlusion_degree >= 0.3

        probe = synth.add_ramp(banded.test_entries[0][2], 120.0)
        p = dispatcher.profile(probe, m.eigen, m.frontal, m.bank, m.context)
        picks = {dispatcher.select(p, m.policy) for _ in range(10)}
        assert picks == {dispatcher.METHOD_FISHER}


def test_criterion_9_determinism_and_persistence(banded, banded_models, data_root,
                                                 tmp_path, capsys):
    with criterion(9, "end-to-end determinism and persistence"):
        dataset_dir = data_root / "banded"
        reports = []
        for run in range(2):
            out = tmp_path / f"run{run}"
            out.mkdir()
            model = out / "hmm.ffm"
            assert cli_main(["train", "--method", "hmm", "--dataset", str(dataset_dir),
                             "--out", str(model), "--split", "k:5,seed:0"]) == 0
            report = out / "report.csv"
            assert cli_main(["evaluate", "--model", str(model), "--dataset",
                             str(dataset_dir), "--split", "k:5,seed:0,part:test",
                             "--report", str(report)]) == 0
            reports.append(report.read_bytes())
        capsys.readouterr()
        assert reports[0] == reports[1]

        probes = [img for _, _, img in banded.test_entries]  # 20 images
        assert len(probes) == 20
        for model in (banded_models.eigen, banded_models.bank):
            path = tmp_path / "roundtrip.ffm"
            save_model(model, path)
            loaded = load_model(path)
            for img in probes:
                assert bench.predict(loaded, [img]) == bench.predict(model, [img])
