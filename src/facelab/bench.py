"""Evaluation harness: closed-set error reports.

Rejections (unknown-face / not-a-face verdicts from the eigenface model)
count as errors against labeled test images, matching a single error-rate
column. Reports are assembled in lexicographic path order so identical
inputs always produce byte-identical CSV.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Sequence

from .archive import method_of
from .dataset import DatasetManifest, GrayImage, load_labeled_images
from .errors import DataError


@dataclass(frozen=True)
class ReportRecord:
    path: str
    truth: str
    prediction: str
    score: float
    correct: bool


@dataclass(frozen=True)
class ErrorReport:
    error_rate: float
    records: list[ReportRecord]


def predict(model, images: Sequence[GrayImage]) -> list[tuple[str, float]]:
    """Per image, (predicted label or marker, score) under any model; DataError
    for other objects."""
    method_of(model)
    return model.predict(images)


def evaluate_entries(model, entries: list[tuple[str, str, GrayImage]]) -> ErrorReport:
    """Classify labeled (truth, path, image) entries into an ErrorReport."""
    if not entries:
        raise DataError("empty test set")
    known = set(model.labels)
    missing = sorted({truth for truth, _, _ in entries} - known)
    if missing:
        raise DataError(f"test labels not covered by the model: {', '.join(missing)}")
    ordered = sorted(entries, key=lambda e: e[1])
    predictions = predict(model, [image for _, _, image in ordered])
    records = [ReportRecord(path, truth, prediction, score, prediction == truth)
               for (truth, path, _), (prediction, score) in zip(ordered, predictions)]
    wrong = sum(1 for rec in records if not rec.correct)
    return ErrorReport(wrong / len(records), records)


def evaluate(model, test: DatasetManifest) -> ErrorReport:
    """Evaluate against every image referenced by the manifest."""
    if test.dims != model.dims:
        raise DataError(f"dataset dims {test.dims} != model dims {model.dims}")
    entries = [(label, str(path), image)
               for label, path, image in load_labeled_images(test)]
    return evaluate_entries(model, entries)


def report_to_csv(report: ErrorReport) -> str:
    """CSV with columns path,truth,prediction,score,correct, rows in path order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["path", "truth", "prediction", "score", "correct"])
    for rec in report.records:
        writer.writerow([rec.path, rec.truth, rec.prediction,
                         format(rec.score, ".17g"), int(rec.correct)])
    return buf.getvalue()

