import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facelab import synth
from facelab.dataset import GrayImage, flatten
from facelab.dispatcher import (METHOD_EIGEN, METHOD_FISHER, METHOD_HMM, METHODS,
                                DispatchPolicy, ImageProfile, ProfileContext,
                                block_residuals, calibrate_context, frontal_ref_index,
                                profile, read_policy_file, recognize_multi, select,
                                write_policy_file)
from facelab.errors import DataError


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
        with pytest.raises(DataError, match="KLT"):
            block_residuals(raw_bank, img)

    def test_profile_field_validation(self):
        with pytest.raises(DataError):
            ImageProfile(-1.0, 0.0, 0.0)
        with pytest.raises(DataError):
            ImageProfile(0.0, 0.0, 1.5)


class TestSelect:
    POLICY = DispatchPolicy(tau_illum=1.0, tau_pose=1.0, tau_occl=0.5,
                            default_method=METHOD_EIGEN)

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

    def test_unknown_default_rejected(self):
        with pytest.raises(DataError):
            DispatchPolicy(1.0, 1.0, 1.0, default_method="nope")


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
        idx = frontal_ref_index(banded_models.train_images, banded_models.context)
        assert 0 <= idx < len(banded_models.train_images)

    def test_context_requires_images(self):
        with pytest.raises(DataError):
            calibrate_context([], [])


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

    def test_label_set_mismatch_rejected(self, banded_models):
        fisher = banded_models.fisher
        crippled = dataclasses.replace(fisher, centroids=fisher.centroids[1:],
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


class TestPolicyFile:
    CONTEXT = ProfileContext(mean_mu=130.0, mean_sigma=2.5, asym_sigma=0.75,
                             resid_p99=140.25)
    POLICY = DispatchPolicy(tau_illum=4.5, tau_pose=2200.0, tau_occl=0.04,
                            default_method=METHOD_EIGEN)

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


_POLICY_KEYS = ["tau_illum", "tau_pose", "tau_occl", "default_method", "frontal_ref",
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
    lines = path.read_text().splitlines() + extra
    lines += [f"{key}={value}" for key, value in values.items()]  # the last one wins
    path.write_text("\n".join(lines) + "\n")
    try:
        policy, context, _ = read_policy_file(path)
    except DataError:
        return
    taus = (policy.tau_illum, policy.tau_pose, policy.tau_occl)
    assert all(np.isfinite(t) and t >= 0.0 for t in taus)
    assert policy.default_method in METHODS
    assert all(np.isfinite(v) for v in dataclasses.astuple(context))
    assert context.mean_sigma > 0.0 and context.asym_sigma > 0.0
