"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Reports go to stdout as CSV unless --report is given. Paths are UTF-8 text.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import bench, dispatcher, hmm1d
from .archive import load_model, method_of, save_model
from .dataset import (SplitSpec, check_dims, check_path, flatten, load_labeled_images,
                      load_pgm_file, replacing, scan_dataset, split, write_atomic)
from .eigenfaces import EigenModel, component_count, train_eigen
from .errors import DataError, FacelabError, NumericError
from .fisherfaces import FisherModel, train_fisher
from .hmm1d import BlockParams, SubjectBank, train_bank
from .numerics import face_pca, sample_matrix

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2 for data errors
        raise _UsageError(message)


def _split_arg(text: str) -> tuple[SplitSpec, str | None]:
    """Parse 'k:N,seed:S[,part:train|test]'; the part is None when not given."""
    fields = {}
    for piece in text.split(","):
        key, sep, value = piece.partition(":")
        if not sep or key not in ("k", "seed", "part") or key in fields:
            raise argparse.ArgumentTypeError(f"malformed split spec {text!r}")
        fields[key] = value
    if "k" not in fields:
        raise argparse.ArgumentTypeError(f"split spec {text!r} needs k:N")
    try:
        k = int(fields["k"])
        seed = int(fields.get("seed", "0"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-integer value in split spec {text!r}") from None
    part = fields.get("part")
    if part not in (None, "train", "test"):
        raise argparse.ArgumentTypeError(f"split part must be train or test, got {part!r}")
    if k < 1:
        raise argparse.ArgumentTypeError("split k must be >= 1")
    if seed < 0:
        raise argparse.ArgumentTypeError("split seed must be >= 0")
    return SplitSpec(k=k, seed=seed), part


def _build_parser() -> _Parser:
    parser = _Parser(prog="facelab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_train = sub.add_parser("train", help="train a recognizer (or all of them)")
    p_train.add_argument("--method", required=True, choices=["eigen", "fisher", "hmm", "all"])
    p_train.add_argument("--dataset", required=True, type=Path)
    p_train.add_argument("--out", required=True, type=Path,
                         help="model file, or a directory when --method all")
    p_train.add_argument("--split", type=_split_arg, default=None,
                         help="train on the train half of k:N,seed:S")
    p_train.add_argument("--k", type=int, default=40, help="eigenface components requested")
    p_train.add_argument("--states", type=int, default=hmm1d.DEFAULT_STATES)
    p_train.add_argument("--block-l", type=int, default=hmm1d.DEFAULT_BLOCK_HEIGHT)
    p_train.add_argument("--overlap", type=int, default=hmm1d.DEFAULT_OVERLAP)
    p_train.add_argument("--klt-d", type=int, default=hmm1d.DEFAULT_KLT_DIM)
    p_train.add_argument("--features", choices=[hmm1d.FEATURE_KLT, hmm1d.FEATURE_RAW],
                         default=hmm1d.FEATURE_KLT)
    p_train.set_defaults(func=_cmd_train)

    p_rec = sub.add_parser("recognize", help="classify one image")
    p_rec.add_argument("--model", required=True, type=Path,
                       help="model file, or the models directory with --multi")
    p_rec.add_argument("--image", required=True, type=Path)
    p_rec.add_argument("--policy", type=Path, default=None)
    p_rec.add_argument("--multi", action="store_true",
                       help="profile the image and dispatch to a recognizer")
    p_rec.set_defaults(func=_cmd_recognize)

    p_eval = sub.add_parser("evaluate", help="error report over a dataset")
    p_eval.add_argument("--model", required=True, type=Path)
    p_eval.add_argument("--dataset", required=True, type=Path)
    p_eval.add_argument("--split", type=_split_arg, default=None,
                        help="evaluate on one half of k:N,seed:S[,part:train|test]")
    p_eval.add_argument("--report", type=Path, default=None)
    p_eval.set_defaults(func=_cmd_evaluate)

    p_assess = sub.add_parser("assess", help="print a probe's profile and chosen method")
    p_assess.add_argument("--models", required=True, type=Path)
    p_assess.add_argument("--policy", required=True, type=Path)
    p_assess.add_argument("--image", required=True, type=Path)
    p_assess.set_defaults(func=_cmd_assess)

    p_inspect = sub.add_parser("inspect", help="dump model metadata")
    p_inspect.add_argument("--model", required=True, type=Path)
    p_inspect.set_defaults(func=_cmd_inspect)
    return parser


def _cmd_train(args) -> int:
    if args.method == "all" and args.features == hmm1d.FEATURE_RAW:
        raise _UsageError("--method all needs --features klt to profile occlusion")
    if args.split is not None and args.split[1] is not None:
        raise _UsageError("train --split takes no part: it always trains on the train half")
    manifest = scan_dataset(args.dataset)
    if args.split is not None:
        manifest, _ = split(manifest, args.split[0])
    dims = manifest.dims
    entries = load_labeled_images(manifest)
    images = [(label, img) for label, _, img in entries]
    # views of the pixels, taken only when the eigen or fisher trainer runs
    vectors = lambda: [(label, flatten(img)) for label, img in images]  # noqa: E731
    residuals: list[np.ndarray] = []  # each training image's block residuals, from train_bank
    trainers = {
        "eigen": lambda: train_eigen(vectors(), args.k, dims),
        "fisher": lambda: train_fisher(vectors(), dims),
        "hmm": lambda: train_bank(images, BlockParams(args.block_l, args.overlap, dims),
                                  args.states, args.klt_d, feature_mode=args.features,
                                  residuals=residuals),
    }
    if args.method != "all":
        save_model(trainers[args.method](), args.out)
        print(f"saved,{args.method},{args.out}")
        return EXIT_OK

    # --method all: three models plus a calibrated dispatch policy
    out_dir = args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    eigen, fisher = _train_faces(vectors(), args.k, dims)
    models = {"eigen": eigen, "fisher": fisher, "hmm": trainers["hmm"]()}
    policy, context, ref = dispatcher.calibrate([img for _, img in images], models["eigen"],
                                                models["hmm"], residuals)
    # no file is replaced before all four are written; the policy goes first, so that a
    # reference path it cannot hold (absolute, to be found from any working directory)
    # stops train before any file is written
    targets = [out_dir / "policy.cfg"] + [out_dir / f"{method}.ffm" for method in models]
    with replacing(targets) as (policy_tmp, *model_tmps):
        dispatcher.write_policy_file(policy_tmp, policy, context,
                                     str(entries[ref][1].absolute()))
        for tmp, model in zip(model_tmps, models.values()):
            save_model(model, tmp)
    print(f"saved,all,{out_dir}")
    return EXIT_OK


def _train_faces(faces: list[tuple[str, np.ndarray]], k: int, dims: tuple[int, int]
                 ) -> tuple[EigenModel, FisherModel]:
    """Eigenfaces and fisherfaces from one face_pca, solved for the more of
    eigen's min(k, M - 1) directions and fisher's N - c, after train_eigen's
    own argument checks, so that errors come in the order of training each
    alone. Each keeps a prefix of the shared basis."""
    count = max(component_count(faces, k), len(faces) - len({label for label, _ in faces}))
    pca = face_pca(*sample_matrix(faces, dims), count)
    return train_eigen(faces, k, dims, pca), train_fisher(faces, dims, pca)


def _load_dispatch(models_dir: Path, policy_path: Path) -> tuple[
        EigenModel, FisherModel, SubjectBank, np.ndarray, dispatcher.DispatchPolicy,
        dispatcher.ProfileContext]:
    """What dispatching a probe reads, in recognize_multi's argument order."""
    policy, context, ref_path = dispatcher.read_policy_file(policy_path)
    models = tuple(load_model(models_dir / f"{method}.ffm") for method in dispatcher.METHODS)
    if tuple(method_of(model) for model in models) != dispatcher.METHODS:
        raise DataError(f"{models_dir}: unexpected model types in eigen/fisher/hmm files")
    frontal = check_dims(load_pgm_file(Path(ref_path)), models[0].dims, "frontal reference")
    return (*models, flatten(frontal), policy, context)


def _cmd_recognize(args) -> int:
    if args.multi != (args.policy is not None):
        raise _UsageError("--multi and --policy must be given together")
    image = load_pgm_file(args.image)
    if args.multi:
        method, label, _ = dispatcher.recognize_multi(
            *_load_dispatch(args.model, args.policy), image)
        print(f"{args.image},{method},{label}")
        return EXIT_OK
    [(prediction, score)] = bench.predict(load_model(args.model), [image])
    print(f"{args.image},{prediction},{format(score, '.17g')}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    model = load_model(args.model)
    manifest = scan_dataset(args.dataset)
    if args.split is not None:
        spec, part = args.split
        train_m, test_m = split(manifest, spec)
        manifest = train_m if part == "train" else test_m
    report = bench.evaluate(model, manifest)
    csv_text = bench.report_to_csv(report)
    if args.report is not None:
        write_atomic(args.report, csv_text)
        print(f"error_rate,{format(report.error_rate, '.17g')}")
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


def _cmd_assess(args) -> int:
    method, _, prof = dispatcher.recognize_multi(*_load_dispatch(args.models, args.policy),
                                                 load_pgm_file(args.image))
    print(f"pose_deviation,{format(prof.pose_deviation, '.17g')}")
    print(f"illumination_deviation,{format(prof.illumination_deviation, '.17g')}")
    print(f"occlusion_degree,{format(prof.occlusion_degree, '.17g')}")
    print(f"method,{method}")
    return EXIT_OK


def _cmd_inspect(args) -> int:
    model = load_model(args.model)
    method = method_of(model)
    print(f"method,{method}")
    print(f"dims,{model.dims[0]},{model.dims[1]}")
    if method == "eigen":
        print(f"components,{model.k}")
        print(f"theta_face,{format(model.theta_face, '.17g')}")
        print(f"theta_known,{format(model.theta_known, '.17g')}")
    elif method == "fisher":
        print(f"discriminants,{model.m}")
    else:
        print(f"states,{next(iter(model.models.values())).n_states}")
        print(f"block_height,{model.params.height}")
        print(f"overlap,{model.params.overlap}")
        print(f"features,{model.feature_mode}")
    print(f"labels,{' '.join(model.labels)}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        for path in (value for value in vars(args).values() if isinstance(value, Path)):
            check_path(path)  # every path option, before anything is read
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (FacelabError, OSError) as exc:  # an OSError names the path it could not use
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
