import dataclasses
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facelab import dispatcher, eigenfaces, hmm1d, synth
from facelab.dataset import GrayImage, flatten
from facelab.dispatcher import (METHOD_EIGEN, METHOD_FISHER, METHOD_HMM, POLICY_PERCENTILE,
                                DispatchPolicy, ImageProfile, ProfileContext,
                                block_residuals, calibrate,
                                calibrate_context, calibrate_policy, profile,
                                read_policy_file, recognize_multi, select,
                                write_policy_file)
from facelab.eigenfaces import project
from facelab.errors import DataError
from facelab.hmm1d import BlockParams, SubjectBank, extract_blocks, fit_klt, observe
from facelab.numerics import PROBE_CHUNK, affine_coords, affine_residual


class TestProfile:
    def test_frontal_reference_has_zero_pose(self, banded_models):
        ref_image = banded_models.train_images[banded_models.frontal_idx]
        prof = profile(ref_image, banded_models.eigen, banded_models.frontal,
                       banded_models.bank, banded_models.context)
        assert prof.pose_deviation <= 1e-8
        assert 0.0 <= prof.occlusion_degree <= 1.0

    def test_mean_shift_raises_illumination(self, banded_models):
        args = (banded_models.eigen, banded_models.frontal, banded_models.bank,
                banded_models.context)
        for img in banded_models.train_images[:4]:
            brightened = synth.add_ramp(img, offset=80.0)
            assert (profile(brightened, *args).illumination_deviation
                    > profile(img, *args).illumination_deviation)

    def test_bottom_occlusion_flagged(self, banded, banded_models):
        for _, _, img in banded.test_entries[:4]:
            occluded = synth.occlude_bottom(img, 0.4)
            prof = profile(occluded, banded_models.eigen, banded_models.frontal,
                           banded_models.bank, banded_models.context)
            assert prof.occlusion_degree >= 0.3

    def test_residuals_require_klt_bank(self, banded_models):
        raw_bank = dataclasses.replace(banded_models.bank, klt=None, models={})
        img = banded_models.train_images[0]
        with pytest.raises(DataError, match="^occlusion profiling requires a KLT-based bank$"):
            block_residuals(raw_bank, img)

    def test_pose_is_weight_space_distance_from_reference(self, banded, banded_models):
        m = banded_models
        ref_weights = project(m.eigen, m.frontal)
        for _, _, img in banded.test_entries[:6]:
            for probe in (img, synth.occlude_bottom(img, 0.3), synth.add_ramp(img, gx=120.0)):
                expected = np.linalg.norm(project(m.eigen, flatten(probe)) - ref_weights)
                pose = profile(probe, m.eigen, m.frontal, m.bank, m.context).pose_deviation
                assert pose == pytest.approx(expected, rel=1e-12)

    def test_wrong_length_reference_is_data_error(self, banded_models):
        m = banded_models
        short = m.frontal[:-1]
        message = re.escape(f"face vector length {short.size} != model dimension "
                            f"{m.frontal.size}")
        with pytest.raises(DataError, match=message):
            profile(m.train_images[0], m.eigen, short, m.bank, m.context)
        residuals = [block_residuals(m.bank, img) for img in m.train_images]
        with pytest.raises(DataError, match=message):
            calibrate_policy(m.train_images, m.eigen, short, residuals, m.context)

    def test_profile_field_validation(self):
        with pytest.raises(DataError):
            ImageProfile(-1.0, 0.0, 0.0)
        with pytest.raises(DataError):
            ImageProfile(0.0, 0.0, 1.5)


def _crop(image, width):
    """The image's first width pixel columns."""
    return GrayImage(image.h, width, image.pixels[:, :width])


# (height, overlap, KLT dim, image width): the default stride 1; overlap 0 and
# stride > 1, each leaving trailing rows in no block; one block of the whole
# image (L = H); and one-pixel-wide images (W = 1)
GEOMETRIES = {
    "stride_1": (10, 9, 10, 64),
    "overlap_0": (10, 0, 10, 64),
    "stride_7": (10, 3, 10, 64),
    "whole_image": (64, 0, 4, 64),
    "width_1": (10, 8, 5, 1),
}


class TestBlockResiduals:
    @staticmethod
    def _bank(banded, name):
        height, overlap, d, width = GEOMETRIES[name]
        params = BlockParams(height, overlap, (banded.manifest.dims[0], width))
        klt = fit_klt([_crop(im, width).pixels for _, _, im in banded.train_entries], params, d)
        return SubjectBank(params, klt, {}), width

    @pytest.mark.parametrize("name", GEOMETRIES)
    def test_matches_stacked_blocks(self, banded, name):
        bank, width = self._bank(banded, name)
        klt = bank.klt
        for _, _, img in banded.test_entries:
            for probe in (img, synth.occlude_bottom(img, 0.3), synth.add_ramp(img, gx=120.0),
                          GrayImage(img.h, img.w, np.roll(img.pixels, 1, axis=0))):
                probe = _crop(probe, width)
                expected = affine_residual(extract_blocks(probe, bank.params), klt.mean,
                                           klt.basis.T)[1]
                assert expected.shape == (bank.params.block_count,)
                np.testing.assert_allclose(block_residuals(bank, probe), expected,
                                           rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("name", GEOMETRIES)
    def test_observe_coords_match_stacked_blocks(self, banded, name):
        bank, width = self._bank(banded, name)
        params, klt = bank.params, bank.klt
        for _, _, img in banded.test_entries:
            for probe in (img, synth.occlude_bottom(img, 0.3), synth.add_ramp(img, gx=120.0),
                          GrayImage(img.h, img.w, np.roll(img.pixels, 1, axis=0))):
                probe = _crop(probe, width)
                blocks = extract_blocks(probe, params)
                expected = affine_coords(blocks, klt.mean, klt.basis.T)
                error = np.linalg.norm(observe([probe], params, klt)[0][0] - expected, axis=1)
                assert np.all(error <= 1e-12 * np.linalg.norm(blocks - klt.mean, axis=1))

    @pytest.mark.parametrize("name", ["overlap_0", "whole_image"])
    def test_block_in_klt_span_has_tiny_residual(self, banded, name):
        bank, _ = self._bank(banded, name)
        params, klt = bank.params, bank.klt
        rng = np.random.default_rng(5)
        pixels = np.full(params.image_dims, 130.0)
        blocks = klt.mean + rng.normal(0.0, 20.0, (params.block_count, klt.dim)) @ klt.basis
        for t, block in enumerate(blocks):  # no overlap: each block owns its rows
            pixels[t * params.stride:t * params.stride + params.height] = block.reshape(
                params.height, -1)
        residuals = block_residuals(bank, GrayImage(*params.image_dims, pixels))
        assert np.all(np.isfinite(residuals)) and np.all(residuals >= 0.0)
        assert np.all(residuals <= 1e-6 * np.linalg.norm(blocks, axis=1))

    def test_wrong_dims_is_data_error(self, banded_models):
        with pytest.raises(DataError, match=re.escape("image dims (8, 8) != model dims (64, 64)")):
            block_residuals(banded_models.bank, GrayImage(8, 8, np.zeros((8, 8))))


class TestSelect:
    POLICY = DispatchPolicy(tau_illum=1.0, tau_pose=1.0, tau_occl=0.5)

    def test_zero_profile_selects_default(self):
        assert select(ImageProfile(0.0, 0.0, 0.0), self.POLICY) == METHOD_EIGEN

    def test_illumination_routes_to_fisher(self):
        assert select(ImageProfile(0.0, 2.0, 0.0), self.POLICY) == METHOD_FISHER

    def test_occlusion_routes_to_fisher(self):
        assert select(ImageProfile(0.0, 0.0, 0.9), self.POLICY) == METHOD_FISHER

    def test_pose_routes_to_hmm(self):
        assert select(ImageProfile(2.0, 0.0, 0.0), self.POLICY) == METHOD_HMM

    def test_illumination_has_priority(self):
        prof = ImageProfile(5.0, 5.0, 0.9)
        assert select(prof, self.POLICY) == METHOD_FISHER

    def test_deterministic_and_total(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            prof = ImageProfile(*rng.uniform(0.0, 3.0, size=2), rng.uniform(0.0, 1.0))
            first = select(prof, self.POLICY)
            assert first in (METHOD_EIGEN, METHOD_FISHER, METHOD_HMM)
            assert all(select(prof, self.POLICY) == first for _ in range(5))

    def test_monotone_in_illumination(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            pose, occl = rng.uniform(0.0, 3.0), rng.uniform(0.0, 1.0)
            for illum in np.linspace(1.01, 10.0, 7):
                assert select(ImageProfile(pose, illum, occl), self.POLICY) == METHOD_FISHER


class TestCalibration:
    def test_taus_cover_most_training_profiles(self, banded_models):
        covered = 0
        for img in banded_models.train_images:
            prof = profile(img, banded_models.eigen, banded_models.frontal,
                           banded_models.bank, banded_models.context)
            if select(prof, banded_models.policy) == METHOD_EIGEN:
                covered += 1
        assert covered >= int(0.8 * len(banded_models.train_images))

    def test_frontal_ref_is_least_deviant(self, banded_models):
        m = banded_models
        scores = [profile(img, m.eigen, m.frontal, m.bank, m.context).illumination_deviation
                  for img in m.train_images]
        assert scores[banded_models.frontal_idx] == min(scores)

    def test_duplicated_frontal_ref_resolves_to_first_copy(self, banded_models):
        # every image twice: each score ties with its copy's, and the first copy wins
        images = banded_models.train_images
        _, _, ref = calibrate(images + images, banded_models.eigen, banded_models.bank)
        assert ref == banded_models.frontal_idx

    def test_context_requires_images(self):
        with pytest.raises(DataError):
            calibrate_context([], [])

    def test_policy_requires_images(self, banded_models):
        m = banded_models
        with pytest.raises(DataError, match="^no training images to calibrate on$"):
            calibrate_policy([], m.eigen, m.frontal, [], m.context)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_policy_residual_count_is_data_error(self, banded_models, extra):
        m = banded_models
        n = len(m.train_images)
        residuals = [block_residuals(m.bank, img) for img in m.train_images * 2][:n + extra]
        with pytest.raises(DataError, match=f"^{n + extra} residual arrays for {n} images$"):
            calibrate_policy(m.train_images, m.eigen, m.frontal, residuals, m.context)

    def test_policy_empty_residuals_is_data_error(self, banded_models):
        # warnings are errors here: a mean of an empty slice would fail as one
        m = banded_models
        residuals = [block_residuals(m.bank, img) for img in m.train_images]
        residuals[3] = np.zeros(0)
        with pytest.raises(DataError, match="^image 3 has no block residuals$"):
            calibrate_policy(m.train_images, m.eigen, m.frontal, residuals, m.context)

    def test_chunked_poses_match_lone_probes(self, banded_models):
        # calibration measures the training images PROBE_CHUNK at a time, the last
        # chunk ragged; each pose is the one-image-at-a-time figure of profile to
        # 1e-12, the other fields bit for bit, and each threshold the percentile
        # of one-image-at-a-time profiles
        m = banded_models
        assert len(m.train_images) % PROBE_CHUNK != 0
        residuals = [block_residuals(m.bank, img) for img in m.train_images]
        chunked = dispatcher._measures(m.train_images, m.eigen, m.frontal, residuals, m.context)
        alone = np.array([dataclasses.astuple(profile(img, m.eigen, m.frontal, m.bank, m.context))
                          for img in m.train_images])
        assert chunked[:, 0] == pytest.approx(alone[:, 0], rel=1e-12, abs=0.0)
        assert chunked[m.frontal_idx, 0] == 0.0
        np.testing.assert_array_equal(chunked[:, 1:], alone[:, 1:])
        policy = calibrate_policy(m.train_images, m.eigen, m.frontal, residuals, m.context)
        expected = np.percentile(alone, POLICY_PERCENTILE, axis=0)
        assert dataclasses.astuple(policy) == pytest.approx(
            [expected[1], expected[0], expected[2]], rel=1e-12, abs=0.0)  # illum, pose, occl


class TestRecognizeMulti:
    def test_clean_training_image_stays_default(self, banded, banded_models):
        ref_idx = banded_models.frontal_idx
        truth = banded.train_entries[ref_idx][0]
        image = banded_models.train_images[ref_idx]
        method, label, prof = recognize_multi(
            banded_models.eigen, banded_models.fisher, banded_models.bank,
            banded_models.frontal, banded_models.policy, banded_models.context, image)
        assert method == METHOD_EIGEN
        assert label == truth
        assert prof.pose_deviation <= 1e-8

    def test_lighting_probe_routes_to_fisher(self, banded, banded_models):
        truth, _, img = banded.test_entries[0]
        probe = synth.add_ramp(img, gx=120.0)
        method, label, _ = recognize_multi(
            banded_models.eigen, banded_models.fisher, banded_models.bank,
            banded_models.frontal, banded_models.policy, banded_models.context, probe)
        assert method == METHOD_FISHER
        assert label == truth  # fisher shrugs off the added gradient

    def test_delegation_matches_recognizer(self, banded, banded_models):
        from facelab import fisherfaces
        truth, _, img = banded.test_entries[1]
        probe = synth.add_ramp(img, gx=120.0)
        method, label, _ = recognize_multi(
            banded_models.eigen, banded_models.fisher, banded_models.bank,
            banded_models.frontal, banded_models.policy, banded_models.context, probe)
        assert method == METHOD_FISHER
        assert label == fisherfaces.classify(banded_models.fisher, flatten(probe))[0]

    def test_hmm_route_observes_the_probe_once(self, banded, banded_models, monkeypatch):
        # the HMM route scores the KLT coordinates that the profile's observe call gave
        m = banded_models
        truth, _, img = banded.test_entries[2]
        probe = GrayImage(img.h, img.w, np.roll(img.pixels, 1, axis=0))
        real_observe, observed = hmm1d.observe, []

        def spy(images, params, klt):
            observed.append(list(images))
            return real_observe(images, params, klt)

        monkeypatch.setattr(hmm1d, "observe", spy)
        pose_only = DispatchPolicy(tau_illum=1e9, tau_pose=0.0, tau_occl=1.0)
        method, label, prof = recognize_multi(m.eigen, m.fisher, m.bank, m.frontal, pose_only,
                                              m.context, probe)
        assert method == METHOD_HMM and prof.pose_deviation > 0.0
        assert observed == [[probe]]
        assert label == hmm1d.recognize(m.bank, [probe])[0][0]
        assert prof == profile(probe, m.eigen, m.frontal, m.bank, m.context)

    def test_label_set_mismatch_rejected(self, banded_models):
        fisher = banded_models.fisher
        crippled = dataclasses.replace(fisher, gallery=fisher.gallery[1:],
                                       row_labels=fisher.row_labels[1:])
        with pytest.raises(DataError, match="label sets"):
            recognize_multi(banded_models.eigen, crippled, banded_models.bank,
                            banded_models.frontal, banded_models.policy,
                            banded_models.context, banded_models.train_images[0])

    def test_dims_mismatch_rejected(self, banded_models):
        small = GrayImage(8, 8, np.zeros((8, 8)))
        with pytest.raises(DataError, match="dims"):
            recognize_multi(banded_models.eigen, banded_models.fisher,
                            banded_models.bank, banded_models.frontal,
                            banded_models.policy, banded_models.context, small)


class _CountingBasis(np.ndarray):
    """A D x K eigen basis, D > K, that records the shape of every array multiplied by
    it: each projection faces @ basis in projected, and each reconstruction
    weights @ basis.T, a product with its K x D transpose, in reconstructed."""

    projected: list
    reconstructed: list

    def __array_finalize__(self, obj):
        self.projected = getattr(obj, "projected", [])
        self.reconstructed = getattr(obj, "reconstructed", [])

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and inputs[1] is self:
            tall = self.shape[0] > self.shape[1]
            (self.projected if tall else self.reconstructed).append(inputs[0].shape)
        plain = [np.asarray(x) if isinstance(x, _CountingBasis) else x for x in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


def _counting(eigen, projected, reconstructed=None):
    """A copy of an eigen model whose basis appends each projection's shape to projected
    and each reconstruction's to reconstructed."""
    basis = eigen.basis.view(_CountingBasis)
    basis.projected = projected
    basis.reconstructed = [] if reconstructed is None else reconstructed
    return dataclasses.replace(eigen, basis=basis)


class TestEigenRouteProjectsOnce:
    EIGEN_ONLY = DispatchPolicy(tau_illum=1e9, tau_pose=1e9, tau_occl=1.0)  # nothing exceeds

    def test_warm_probe_is_projected_once(self, banded, banded_models):
        # cold: the probe for the pose, and the reference for its weights; warm: only the
        # probe, whose offset from the reference the eigen route reuses. A clean probe
        # sits well inside theta_face, so its face-space test reconstructs nothing.
        m, projected, reconstructed = banded_models, [], []
        eigen = _counting(banded_models.eigen, projected, reconstructed)
        probe = banded.test_entries[0][2]
        d = m.frontal.size
        for expected in ([(1, d), (d,)], [(1, d)], [(1, d)]):
            projected.clear()
            method, _, _ = recognize_multi(eigen, m.fisher, m.bank, m.frontal,
                                           self.EIGEN_ONLY, m.context, probe)
            assert method == METHOD_EIGEN
            assert projected == expected
            assert reconstructed == []

    def test_warm_probe_reads_the_basis_once_unless_rejected(self, banded, banded_models):
        # a warm clean probe makes one product with the basis, its projection; a probe
        # outside face space makes two, its projection and the reconstruction that
        # gives its exact distance from face space
        m, projected, reconstructed = banded_models, [], []
        eigen = _counting(banded_models.eigen, projected, reconstructed)
        clean = banded.test_entries[0][2]
        noise = GrayImage(*clean.pixels.shape,
                          np.random.default_rng(29).uniform(0.0, 255.0, clean.pixels.shape))
        assert eigenfaces.classify(m.eigen, flatten(noise)).verdict == eigenfaces.NOT_A_FACE
        recognize_multi(eigen, m.fisher, m.bank, m.frontal, self.EIGEN_ONLY, m.context, clean)
        d, k = m.frontal.size, m.eigen.k
        for probe, rejected, products in ((clean, False, [(1, d)]),
                                          (noise, True, [(1, d), (1, k)])):
            projected.clear()
            reconstructed.clear()
            method, label, _ = recognize_multi(eigen, m.fisher, m.bank, m.frontal,
                                               self.EIGEN_ONLY, m.context, probe)
            assert method == METHOD_EIGEN
            assert (label == eigenfaces.NOT_A_FACE_LABEL) == rejected
            assert projected + reconstructed == products

    def test_fisher_and_hmm_routes_take_no_reference_weights(self, banded, banded_models):
        m, projected = banded_models, []
        eigen = _counting(banded_models.eigen, projected)
        probe = banded.test_entries[0][2]
        for policy, route in ((DispatchPolicy(tau_illum=0.0, tau_pose=1e9, tau_occl=1.0),
                               METHOD_FISHER),
                              (DispatchPolicy(tau_illum=1e9, tau_pose=0.0, tau_occl=1.0),
                               METHOD_HMM)):
            projected.clear()
            method, _, _ = recognize_multi(eigen, m.fisher, m.bank, m.frontal, policy,
                                           m.context, probe)
            assert method == route
            assert projected == [(1, m.frontal.size)]  # the pose alone
            assert eigen._reference is None

    def test_reference_weights_are_kept_per_model_and_reference(self, banded, banded_models):
        m, projected = banded_models, []
        eigen = _counting(banded_models.eigen, projected)
        d = m.frontal.size
        other = flatten(m.train_images[(m.frontal_idx + 1) % len(m.train_images)])

        def references_projected(eigen, frontal, probes):
            projected.clear()
            for _, _, image in probes:
                method, _, _ = recognize_multi(eigen, m.fisher, m.bank, frontal,
                                               self.EIGEN_ONLY, m.context, image)
                assert method == METHOD_EIGEN
            assert projected.count((1, d)) == len(probes)  # the pose of each probe
            return projected.count((d,))

        probes = banded.test_entries[:6]
        assert references_projected(eigen, m.frontal, probes) == 1
        assert references_projected(eigen, m.frontal.copy(), probes) == 0  # same bits
        assert references_projected(eigen, other, probes) == 1  # other content
        assert references_projected(eigen, other, probes) == 0
        assert references_projected(eigen, m.frontal, probes) == 1  # the last one is kept
        twin = dataclasses.replace(eigen)  # a second model over the same arrays
        assert references_projected(twin, m.frontal, probes) == 1
        assert references_projected(eigen, m.frontal, probes) == 0
        np.testing.assert_array_equal(eigen.reference_weights(m.frontal),
                                      project(m.eigen, m.frontal))
        with pytest.raises(ValueError, match="read-only"):
            eigen.reference_weights(m.frontal)[0] = 0.0

    def test_route_decides_as_predict(self, banded, banded_models, monkeypatch, route_probe):
        # every probe kind forced to the eigen route, and a model with a stricter
        # known-face threshold, so that all three verdicts occur: one classify_rows
        # call on the kept weights gives predict's label and verdict, and its
        # distance to 1e-12 relative
        m = banded_models
        rng = np.random.default_rng(23)
        real, decided = eigenfaces.classify_rows, []

        def spy(model, faces, weights=None):
            decisions = real(model, faces, weights)
            decided.append((weights is not None, decisions))
            return decisions

        verdicts = set()
        strict = dataclasses.replace(m.eigen, theta_known=m.eigen.theta_known / 8)
        for eigen, kind in itertools.product((m.eigen, strict),
                                             ("clean", "ramp", "occlude", "roll")):
            for _, _, image in banded.test_entries:
                probe = route_probe(kind, image, rng)
                expected = real(eigen, flatten(probe)[None])[0]
                label, score = eigen.predict([probe])[0]
                monkeypatch.setattr(eigenfaces, "classify_rows", spy)
                decided.clear()
                method, routed, _ = recognize_multi(eigen, m.fisher, m.bank, m.frontal,
                                                    self.EIGEN_ONLY, m.context, probe)
                monkeypatch.undo()
                assert method == METHOD_EIGEN and routed == label
                [(reused, [decision])] = decided
                assert reused
                assert (decision.verdict, decision.label) == (expected.verdict, expected.label)
                got = decision.dffs if decision.distance is None else decision.distance
                assert got == pytest.approx(score, rel=1e-12, abs=0.0)
                verdicts.add(decision.verdict)
        assert verdicts == {eigenfaces.FACE, eigenfaces.UNKNOWN_FACE, eigenfaces.NOT_A_FACE}


class TestPolicyFile:
    CONTEXT = ProfileContext(mean_mu=130.0, mean_sigma=2.5, asym_sigma=0.75,
                             resid_p99=140.25)
    POLICY = DispatchPolicy(tau_illum=4.5, tau_pose=2200.0, tau_occl=0.04)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "policy.cfg"
        write_policy_file(path, self.POLICY, self.CONTEXT, "ref/image.pgm")
        policy, context, ref = read_policy_file(path)
        assert policy == self.POLICY
        assert context == self.CONTEXT
        assert ref == "ref/image.pgm"

    def test_comments_and_blanks_allowed(self, tmp_path):
        path = tmp_path / "policy.cfg"
        write_policy_file(path, self.POLICY, self.CONTEXT, "r.pgm")
        text = "# generated\n\n" + path.read_text()
        path.write_text(text)
        policy, _, _ = read_policy_file(path)
        assert policy == self.POLICY

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "policy.cfg"
        write_policy_file(path, self.POLICY, self.CONTEXT, "r.pgm")
        path.write_text(path.read_text() + "mystery=1\n")
        with pytest.raises(DataError, match="unknown"):
            read_policy_file(path)

    def test_repeated_key_rejected(self, tmp_path):
        # a repeated key would otherwise override the written value unnoticed
        path = tmp_path / "policy.cfg"
        write_policy_file(path, self.POLICY, self.CONTEXT, "r.pgm")
        text = path.read_text()
        path.write_text(text + "tau_illum=0.0\n")
        where = f"{path}:{len(text.splitlines()) + 1}: repeated policy key 'tau_illum'"
        with pytest.raises(DataError, match=re.escape(where)):
            read_policy_file(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "policy.cfg"
        write_policy_file(path, self.POLICY, self.CONTEXT, "r.pgm")
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("tau_pose")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="missing"):
            read_policy_file(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "policy.cfg"
        path.write_text("tau_illum 3\n")
        with pytest.raises(DataError, match="key=value"):
            read_policy_file(path)


_POLICY_KEYS = ["tau_illum", "tau_pose", "tau_occl", "frontal_ref",
                "mean_mu", "mean_sigma", "asym_sigma", "resid_p99"]
_POLICY_VALUES = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["eigen", "fisher", "hmm", "0", "-0.0", "nan", "-inf", "1e400", ""]),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=6))


@settings(max_examples=120, deadline=None)
@given(values=st.fixed_dictionaries({}, optional={k: _POLICY_VALUES for k in _POLICY_KEYS}),
       extra=st.lists(st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=8),
                      max_size=2))
def test_policy_file_parses_to_checked_values_or_is_data_error(tmp_path_factory, values,
                                                               extra):
    path = tmp_path_factory.getbasetemp() / "fuzzed_policy.cfg"
    write_policy_file(path, TestPolicyFile.POLICY, TestPolicyFile.CONTEXT, "r.pgm")
    lines = [line for line in path.read_text().splitlines()
             if line.partition("=")[0] not in values] + extra
    lines += [f"{key}={value}" for key, value in values.items()]  # each replaces the written one
    path.write_text("\n".join(lines) + "\n")
    try:
        policy, context, _ = read_policy_file(path)
    except DataError:
        return
    taus = (policy.tau_illum, policy.tau_pose, policy.tau_occl)
    assert all(np.isfinite(t) and t >= 0.0 for t in taus)
    assert all(np.isfinite(v) for v in dataclasses.astuple(context))
    assert context.mean_sigma > 0.0 and context.asym_sigma > 0.0


# Per probe kind over the 20 held-out banded images: wrong predictions of each
# recognizer alone, of the dispatcher, and of the oracle (probes that every
# recognizer gets wrong), then the dispatcher's eigen/fisher/hmm route counts.
ROUTE_TABLE = {
    "clean": ({"eigen": 2, "fisher": 0, "hmm": 0, "dispatch": 2, "oracle": 0}, (15, 4, 1)),
    "ramp": ({"eigen": 20, "fisher": 0, "hmm": 11, "dispatch": 0, "oracle": 0}, (0, 20, 0)),
    "occlude": ({"eigen": 20, "fisher": 15, "hmm": 15, "dispatch": 15, "oracle": 10}, (0, 20, 0)),
    "roll": ({"eigen": 20, "fisher": 20, "hmm": 2, "dispatch": 6, "oracle": 2}, (0, 4, 16)),
}


def test_route_table_per_probe_kind(banded, banded_models, route_probe):
    m = banded_models
    models = {METHOD_EIGEN: m.eigen, METHOD_FISHER: m.fisher, METHOD_HMM: m.bank}
    rng = np.random.default_rng(17)
    table = {}
    for kind in ROUTE_TABLE:
        errors = dict.fromkeys(["eigen", "fisher", "hmm", "dispatch", "oracle"], 0)
        routes = dict.fromkeys(models, 0)
        for truth, _, image in banded.test_entries:
            probe = route_probe(kind, image, rng)
            wrong = {name: model.predict([probe])[0][0] != truth
                     for name, model in models.items()}
            method, label, _ = recognize_multi(m.eigen, m.fisher, m.bank, m.frontal, m.policy,
                                               m.context, probe)
            for name, is_wrong in wrong.items():
                errors[name] += is_wrong
            errors["dispatch"] += label != truth
            errors["oracle"] += all(wrong.values())
            routes[method] += 1
        table[kind] = (errors, tuple(routes.values()))
    assert table == ROUTE_TABLE
