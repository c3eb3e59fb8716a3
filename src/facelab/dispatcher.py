"""Multi-model dispatch: measure test-image properties, pick a recognizer.

A probe is profiled on three axes before classification: pose deviation
(weight-space distance from a designated representative frontal face),
illumination deviation (standardized mean-intensity shift plus left/right
asymmetry), and occlusion degree (fraction of blocks whose KLT residual is
abnormal). A fixed-priority threshold rule then routes the probe to the
eigenface, fisherface, or HMM recognizer. All thresholds and the property
standardization are calibrated from clean training images; none of this is
learned.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import eigenfaces, fisherfaces, hmm1d
from .dataset import GrayImage, flatten
from .errors import DataError

METHOD_EIGEN = "eigen"
METHOD_FISHER = "fisher"
METHOD_HMM = "hmm"
METHODS = (METHOD_EIGEN, METHOD_FISHER, METHOD_HMM)

_SIGMA_FLOOR = 1e-9


@dataclass(frozen=True)
class ImageProfile:
    pose_deviation: float  # weight-space L2 distance from the frontal reference
    illumination_deviation: float  # standardized mean shift + asymmetry
    occlusion_degree: float  # fraction of blocks with abnormal KLT residual

    def __post_init__(self):
        values = (self.pose_deviation, self.illumination_deviation, self.occlusion_degree)
        if not all(np.isfinite(v) and v >= 0.0 for v in values):
            raise DataError(f"profile fields must be finite and non-negative: {values}")
        if self.occlusion_degree > 1.0:
            raise DataError(f"occlusion degree {self.occlusion_degree} exceeds 1")


@dataclass(frozen=True)
class ProfileContext:
    """Training-set statistics that standardize the profile measurements."""

    mean_mu: float  # mean of per-image mean intensities
    mean_sigma: float  # std of those means
    asym_sigma: float  # std of per-image left/right asymmetries
    resid_p99: float  # 99th percentile of training block KLT residuals


@dataclass(frozen=True)
class DispatchPolicy:
    tau_illum: float
    tau_pose: float
    tau_occl: float
    default_method: str = METHOD_EIGEN

    def __post_init__(self):
        if self.default_method not in METHODS:
            raise DataError(f"unknown method {self.default_method!r}")
        for name in ("tau_illum", "tau_pose", "tau_occl"):
            if getattr(self, name) < 0.0:
                raise DataError(f"{name} must be non-negative")


def _half_asymmetry(image: GrayImage) -> float:
    half = image.w // 2
    if half == 0:
        return 0.0
    left = float(image.pixels[:, :half].mean())
    right = float(image.pixels[:, image.w - half:].mean())
    return abs(left - right)


def block_residuals(bank: hmm1d.SubjectBank, image: GrayImage) -> np.ndarray:
    """Per-block distance to the KLT subspace."""
    if bank.klt is None:
        raise DataError("occlusion profiling requires a KLT-based bank")
    blocks = hmm1d.extract_blocks(image, bank.params)
    centered = blocks - bank.klt.mean
    recon = (centered @ bank.klt.basis.T) @ bank.klt.basis
    return np.linalg.norm(centered - recon, axis=1)


def calibrate_context(train_images: list[GrayImage],
                      bank: hmm1d.SubjectBank) -> ProfileContext:
    """Standardization statistics from clean training images."""
    if not train_images:
        raise DataError("no training images to calibrate on")
    means = np.array([img.pixels.mean() for img in train_images])
    asyms = np.array([_half_asymmetry(img) for img in train_images])
    resids = np.concatenate([block_residuals(bank, img) for img in train_images])
    return ProfileContext(
        mean_mu=float(means.mean()),
        mean_sigma=max(float(means.std()), _SIGMA_FLOOR),
        asym_sigma=max(float(asyms.std()), _SIGMA_FLOOR),
        resid_p99=float(np.percentile(resids, 99)),
    )


def profile(image: GrayImage, eigen: eigenfaces.EigenModel, frontal_ref: np.ndarray,
            bank: hmm1d.SubjectBank, context: ProfileContext) -> ImageProfile:
    """Measure pose, illumination and occlusion properties of a probe."""
    face = flatten(image)
    pose = float(np.linalg.norm(
        eigenfaces.project(eigen, face) - eigenfaces.project(eigen, frontal_ref)))
    mean_term = abs(float(image.pixels.mean()) - context.mean_mu) / context.mean_sigma
    asym_term = _half_asymmetry(image) / context.asym_sigma
    resids = block_residuals(bank, image)
    occlusion = float(np.mean(resids > context.resid_p99))
    return ImageProfile(pose, mean_term + asym_term, occlusion)


def select(prof: ImageProfile, policy: DispatchPolicy) -> str:
    """Fixed-priority routing; a total function of (profile, policy).

    Strong illumination or occlusion go to the fisherface model, large pose
    deviation to the HMM, anything else to the policy default.
    """
    if prof.illumination_deviation > policy.tau_illum:
        return METHOD_FISHER
    if prof.occlusion_degree > policy.tau_occl:
        return METHOD_FISHER
    if prof.pose_deviation > policy.tau_pose:
        return METHOD_HMM
    return policy.default_method


def frontal_ref_index(train_images: list[GrayImage], context: ProfileContext) -> int:
    """Pick the most representative frontal face: minimal illumination score."""
    best, best_score = 0, np.inf
    for i, img in enumerate(train_images):
        score = (abs(float(img.pixels.mean()) - context.mean_mu) / context.mean_sigma
                 + _half_asymmetry(img) / context.asym_sigma)
        if score < best_score:
            best, best_score = i, score
    return best


def calibrate_policy(train_images: list[GrayImage], eigen: eigenfaces.EigenModel,
                     frontal_ref: np.ndarray, bank: hmm1d.SubjectBank,
                     context: ProfileContext, percentile: float = 95.0,
                     default_method: str = METHOD_EIGEN) -> DispatchPolicy:
    """Thresholds at the given percentile of clean-training profiles."""
    profiles = [profile(img, eigen, frontal_ref, bank, context) for img in train_images]
    return DispatchPolicy(
        tau_illum=float(np.percentile([p.illumination_deviation for p in profiles], percentile)),
        tau_pose=float(np.percentile([p.pose_deviation for p in profiles], percentile)),
        tau_occl=float(np.percentile([p.occlusion_degree for p in profiles], percentile)),
        default_method=default_method,
    )


def recognize_multi(
    eigen: eigenfaces.EigenModel,
    fisher: fisherfaces.FisherModel,
    bank: hmm1d.SubjectBank,
    frontal_ref: np.ndarray,
    policy: DispatchPolicy,
    context: ProfileContext,
    image: GrayImage,
) -> tuple[str, str, ImageProfile]:
    """Profile, select a recognizer, and delegate; returns (method, label, profile)."""
    if not eigen.labels == fisher.labels == bank.labels:
        raise DataError("models were trained on different label sets")
    if not eigen.dims == fisher.dims == bank.dims:
        raise DataError("models were trained on different image dimensions")
    if (image.h, image.w) != eigen.dims:
        raise DataError(f"image dims {(image.h, image.w)} != model dims {eigen.dims}")
    prof = profile(image, eigen, frontal_ref, bank, context)
    method = select(prof, policy)
    model = {METHOD_EIGEN: eigen, METHOD_FISHER: fisher, METHOD_HMM: bank}[method]
    return method, model.predict(image)[0], prof


def write_policy_file(path: Path, policy: DispatchPolicy, context: ProfileContext,
                      frontal_ref: str) -> None:
    """key=value policy file, including the calibration statistics."""
    lines = [
        f"tau_illum={policy.tau_illum!r}",
        f"tau_pose={policy.tau_pose!r}",
        f"tau_occl={policy.tau_occl!r}",
        f"default_method={policy.default_method}",
        f"frontal_ref={frontal_ref}",
        f"mean_mu={context.mean_mu!r}",
        f"mean_sigma={context.mean_sigma!r}",
        f"asym_sigma={context.asym_sigma!r}",
        f"resid_p99={context.resid_p99!r}",
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_policy_file(path: Path) -> tuple[DispatchPolicy, ProfileContext, str]:
    """Parse a policy file; every key is required, unknown keys are rejected."""
    known = {"tau_illum", "tau_pose", "tau_occl", "default_method", "frontal_ref",
             "mean_mu", "mean_sigma", "asym_sigma", "resid_p99"}
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read policy file {path}: {exc}") from exc
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}:{ln}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in known:
            raise DataError(f"{path}:{ln}: unknown policy key {key!r}")
        values[key] = value.strip()
    missing = sorted(known - set(values))
    if missing:
        raise DataError(f"{path}: missing policy keys: {', '.join(missing)}")
    try:
        policy = DispatchPolicy(
            tau_illum=float(values["tau_illum"]),
            tau_pose=float(values["tau_pose"]),
            tau_occl=float(values["tau_occl"]),
            default_method=values["default_method"],
        )
        context = ProfileContext(
            mean_mu=float(values["mean_mu"]),
            mean_sigma=float(values["mean_sigma"]),
            asym_sigma=float(values["asym_sigma"]),
            resid_p99=float(values["resid_p99"]),
        )
    except ValueError as exc:
        raise DataError(f"{path}: malformed numeric value: {exc}") from exc
    return policy, context, values["frontal_ref"]
