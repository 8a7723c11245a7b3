"""Command line front end: infer, train, predict, verify.

Exit codes are part of the interface and stay stable:

* 0 success,
* 1 verification bars failed or a verify worker died, or a predict line failed,
* 2 usage or data errors (bad flags, malformed input, schema conflicts),
  and a closed stdout or a failed write to it,
* 3 training aborted on non-finite numbers: a loss, or the outputs of
  the last minibatch after the last step (no model file is written),
* 130 interrupted (Ctrl-C); no partial output file is left behind.

A closed or broken stderr never changes an exit code, and text meant
for stderr never goes to stdout. A predict line whose model outputs are
not all finite fails with the error ``non-finite model output``.

Config precedence for training is flags over config file over defaults,
and the effective configuration is echoed into the training report.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import asdict, fields, replace

# one BLAS thread, unless the user set a count: the model's matrices are
# too small to gain from more, and some OpenBLAS kernels sum a GEMM in
# another order at another thread count.  It must be set before numpy
# loads; importing hmil loads nothing.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

# perfbench's tracer test asserts this module binds encode_document
from .encoding import EncodingError, encode_document  # noqa: F401,E402
from .model import (  # noqa: E402
    ACTIVATIONS,
    AGGREGATIONS,
    ModelConfig,
    ModelError,
    ModelLoadError,
    build_model,
    load_model,
    replacing,
    save_model,
)
from .schema import (  # noqa: E402
    DEFAULT_CATEGORICAL_THRESHOLD,
    Product,
    SchemaError,
    dumps_schema,
    infer_schema,
    loads_schema,
    node_paths,
)
from .training import (  # noqa: E402
    LOSSES, TrainConfig, TrainingDiverged, predict_scores, train)
from .verification import SUITE_NAMES, run_suite, summarize_report  # noqa: E402

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it


class CliError(Exception):
    """User-facing failure; the message goes to stderr."""

    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _note(text: str) -> None:
    """Print ``text`` on stderr; a closed or broken stderr loses it."""
    if sys.stderr is not None:  # None if fd 2 was closed at start
        with contextlib.suppress(OSError):  # as argparse does for usage errors
            print(text, file=sys.stderr)


@contextlib.contextmanager
def _failing(verb: str, path: str):
    """Raise an OSError from the body as ``cannot <verb> <path>``."""
    try:
        yield
    except OSError as exc:
        raise CliError(f"cannot {verb} {path}: {exc.strerror}")


def _open_jsonl(path: str):
    # surrogateescape defers undecodable bytes to _parse_lines, which
    # can name their line
    with _failing("read", path):
        return open(path, "r", encoding="utf-8", errors="surrogateescape")


def _parse_lines(fh):
    """(line_number, document, error) per non-blank line of a file from
    ``_open_jsonl``; error is None or why the line has no document."""
    for number, line in enumerate(fh, start=1):
        if not line.strip():
            continue
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            yield number, None, "invalid UTF-8"
            continue
        try:
            doc = json.loads(line)
        except (ValueError, RecursionError) as exc:  # long ints, deep nests
            yield number, None, f"invalid JSON: {exc}"
            continue
        yield number, doc, None


def _iter_jsonl(path: str):
    """(line_number, document) per non-blank line of a JSONL file, read
    as it is consumed; a malformed line aborts with its location."""
    with _open_jsonl(path) as fh, _failing("read", path):
        for number, doc, error in _parse_lines(fh):
            if error is not None:
                raise CliError(f"{path}:{number}: {error}")
            yield number, doc


@contextlib.contextmanager
def _replacing(path: str):
    """``model.replacing`` for text; OSErrors are write errors."""
    with _failing("write", path), replacing(path) as fh:
        yield fh


def _node_counts(schema) -> dict[str, int]:
    counts = dict.fromkeys(
        ("numeric", "string", "categorical", "bag", "product"), 0)
    for _, node in node_paths(schema):
        counts[node.kind] += 1
    return counts


def cmd_infer(args) -> int:
    if args.categorical_threshold < 0:
        raise CliError("--categorical-threshold must be >= 0, "
                       f"got {args.categorical_threshold}")
    try:
        schema = infer_schema(
            (doc for _, doc in _iter_jsonl(args.input)),
            categorical_threshold=args.categorical_threshold)
    except SchemaError as exc:
        raise CliError(str(exc))
    with _replacing(args.output) as fh:
        fh.write(dumps_schema(schema) + "\n")
    counts = _node_counts(schema)
    total = sum(counts.values())
    parts = ", ".join(f"{v} {k}" for k, v in counts.items() if v)
    print(f"wrote {args.output}: {total} nodes ({parts})")
    return EXIT_OK


def _load_schema_file(path: str):
    try:
        with _failing("read", path), open(path, "r", encoding="utf-8") as fh:
            return loads_schema(fh.read())
    except (SchemaError, UnicodeDecodeError) as exc:
        raise CliError(f"{path}: {exc}")


_MODEL_KEYS = {f.name for f in fields(ModelConfig)}
_TRAIN_KEYS = {f.name for f in fields(TrainConfig)}
_SETTINGS = {f.name: f.default  # one flag each, in this order
             for f in (*fields(ModelConfig), *fields(TrainConfig))}


def _resolve_configs(args) -> tuple[dict, dict]:
    """Merge defaults, config file, and flags (in rising precedence)
    into keyword dicts for the model and trainer."""
    merged: dict = {}
    if args.config:
        try:
            with _failing("read", args.config), \
                    open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except ValueError as exc:  # also UnicodeDecodeError
            raise CliError(f"{args.config}: invalid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise CliError(f"{args.config}: config must be a JSON object")
        unknown = loaded.keys() - _SETTINGS.keys()
        if unknown:
            raise CliError(f"{args.config}: unknown config keys: "
                           f"{', '.join(sorted(unknown))}")
        merged.update(loaded)
    for key in _SETTINGS:
        value = getattr(args, key)
        if value is not None:
            merged[key] = value
    model_kw = {k: v for k, v in merged.items() if k in _MODEL_KEYS}
    train_kw = {k: v for k, v in merged.items() if k in _TRAIN_KEYS}
    return model_kw, train_kw


def cmd_train(args) -> int:
    schema = _load_schema_file(args.schema)
    rows = list(_iter_jsonl(args.train))
    if not rows:
        raise CliError(f"{args.train}: empty corpus")

    raw_labels = []
    stripped = []
    for number, doc in rows:
        if not isinstance(doc, dict) or doc.get(args.label_field) is None:
            raise CliError(f"{args.train}:{number}: missing label field "
                           f"{args.label_field!r}")
        label = doc[args.label_field]
        if isinstance(label, (list, dict)):
            raise CliError(f"{args.train}:{number}: label field "
                           f"{args.label_field!r} is an array or object")
        if isinstance(label, float) and not math.isfinite(label):
            # json reads NaN and Infinity, which strict JSON has not
            raise CliError(f"{args.train}:{number}: label field "
                           f"{args.label_field!r} is not a finite number")
        doc = dict(doc)
        raw_labels.append(doc.pop(args.label_field))
        stripped.append((number, doc))
    if isinstance(schema, Product) and args.label_field in schema.field_names:
        schema = replace(schema, fields=tuple(
            f for f in schema.fields if f.name != args.label_field))

    model_kw, train_kw = _resolve_configs(args)
    loss = train_kw.get("loss", TrainConfig.loss)
    if loss == "ce":
        # keyed by JSON text, not by Python equality, which merges true
        # with 1 and false with 0
        texts = [json.dumps(v) for v in raw_labels]
        classes = sorted(dict(zip(texts, raw_labels)).values(),
                         key=lambda v: (str(type(v)), str(v)))
        if len(classes) < 2:
            raise CliError("training needs at least two distinct labels")
        index = {json.dumps(value): i for i, value in enumerate(classes)}
        targets = np.array([index[t] for t in texts])
        model_kw.setdefault("output_dim", len(classes))
    else:
        classes = None
        for (number, _), value in zip(stripped, raw_labels):
            if isinstance(value, str):  # float() would read "3" or "nan"
                raise CliError(f"{args.train}:{number}: mse loss needs a "
                               f"numeric label, got the string {value!r}")
            try:  # a JSON integer can lie past the float range
                float(value)
            except OverflowError:
                raise CliError(f"{args.train}:{number}: mse loss needs "
                               "numeric labels within float range")
        targets = np.array([[float(v)] for v in raw_labels])
        model_kw.setdefault("output_dim", 1)

    try:
        model_config = ModelConfig(**model_kw)
        train_config = TrainConfig(**train_kw)
        if classes is not None and model_config.output_dim < len(classes):
            raise ValueError(f"output_dim {model_config.output_dim} is "
                             f"below the {len(classes)} distinct labels")
        if classes is None and model_config.output_dim != 1:
            raise ValueError("mse loss needs output_dim 1, "
                             f"got {model_config.output_dim}")
        model = build_model(schema, model_config)
    except (ModelError, ValueError) as exc:
        raise CliError(str(exc))
    try:
        report = train(model, [doc for _, doc in stripped], targets,
                       train_config)
    except EncodingError as exc:
        raise CliError(f"{args.train}:{stripped[exc.index][0]}: {exc}")
    except TrainingDiverged as exc:
        raise CliError(f"training diverged: {exc}", EXIT_NUMERIC)

    with _failing("write", args.output):
        save_model(model, args.output, extra={
            "label_field": args.label_field, "classes": classes, "loss": loss})

    report_path = args.report or args.output + ".report.json"
    payload = {"n_documents": len(stripped),
               "label_field": args.label_field,
               "classes": classes,
               "model_config": asdict(model_config),
               "train_config": asdict(train_config),
               **asdict(report)}
    with _replacing(report_path) as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(f"trained on {len(stripped)} documents for {train_config.epochs} "
          f"epochs; wrote {args.output} and {report_path}")
    return EXIT_OK


def cmd_predict(args) -> int:
    try:
        model, extra = load_model(args.model)
    except (OSError, ModelLoadError) as exc:
        raise CliError(f"{args.model}: {exc}")
    if not isinstance(extra, dict):
        raise CliError(f"{args.model}: malformed config blob: "
                       "extra is not an object")
    label_field, classes = extra.get("label_field"), extra.get("classes")
    if not (label_field is None or isinstance(label_field, str)) or not (
            classes is None or (isinstance(classes, list) and classes)):
        raise CliError(f"{args.model}: malformed config blob: label_field "
                       "is not a string or classes not a non-empty array")
    # each record is spelled as json.dumps(record, sort_keys=True) spells
    # it, from the JSON text of each prediction an output can name
    dim = model.config.output_dim
    texts = ([json.dumps(c, sort_keys=True) for c in classes] if classes
             else None if dim == 1 else [str(i) for i in range(dim)])

    def items(fh):  # reads report the input; other OSErrors are writes
        with _failing("read", args.input):
            for number, doc, error in _parse_lines(fh):
                if isinstance(doc, dict):
                    doc.pop(label_field, None)
                yield number, doc, error

    failed = False
    with _open_jsonl(args.input) as fh, (
            contextlib.nullcontext(sys.stdout) if args.output == "-"
            else _replacing(args.output)) as out:
        for number, outputs, error in predict_scores(model, items(fh)):
            scores = None if error is not None else outputs.tolist()
            if scores is not None and not all(map(math.isfinite, scores)):
                error = "non-finite model output"
            if error is not None:
                failed = True
                out.write(json.dumps({"line": number, "error": str(error)},
                                     sort_keys=True) + "\n")
                continue
            if texts is None:  # one output and no classes
                prediction = repr(scores[0])
            else:  # the first maximum, as np.argmax picks it; -0.0 == 0.0
                top = scores[:len(texts)]  # outputs past the classes name none
                prediction = texts[top.index(max(top))]
            out.write(f'{{"prediction": {prediction}, "scores": '
                      f'[{", ".join(map(repr, scores))}]}}\n')
    return EXIT_FAILED if failed else EXIT_OK


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise CliError(f"--seed must be >= 0, got {args.seed}")
    try:
        report = run_suite(args.suite, args.seed)
    except ChildProcessError as exc:  # a worker running some checks failed
        raise CliError(str(exc), EXIT_FAILED) from None
    print(json.dumps(report, sort_keys=True, indent=2))
    _note(summarize_report(report))
    for check in report["checks"]:
        if not check["passed"]:
            _note(f"failed: {check['name']}")
    return EXIT_OK if report["passed"] else EXIT_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hmil",
        description="schema inference and permutation-invariant networks "
                    "for nested JSON data")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("infer", help="infer a schema from JSONL documents")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--categorical-threshold", type=int,
                   default=DEFAULT_CATEGORICAL_THRESHOLD)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("train", help="train a model on labeled JSONL")
    p.add_argument("--schema", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--label-field", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--config", help="JSON file with config overrides")
    p.add_argument("--report", help="training report path "
                                    "(default: <output>.report.json)")
    choices = {"activation": ACTIVATIONS, "aggregation": AGGREGATIONS,
               "loss": LOSSES}
    for name, default in _SETTINGS.items():
        p.add_argument("--" + name.replace("_", "-"), type=type(default),
                       choices=choices.get(name))
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score JSONL documents with a model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", default="-",
                   help="output JSONL path, or - for stdout")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--suite", choices=list(SUITE_NAMES), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    return parser


def _run(argv: list[str] | None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if sys.stdout is None and (args.command != "predict"
                                   or args.output == "-"):
            raise CliError("cannot write stdout")  # fd 1 was closed
        with np.errstate(all="ignore"):  # overflow ends in exit 3 or 1
            return args.func(args)
    except CliError as exc:
        _note(f"error: {exc}")
        return exc.code
    except RecursionError:  # every recursion here follows input nesting
        _note("error: input nested too deeply")
        return EXIT_USAGE
    except MemoryError:  # e.g. a chunk of very wide leaves
        _note("error: input too large")
        return EXIT_USAGE


def main(argv: list[str] | None = None) -> int:
    try:
        code = _run(argv)
        if sys.stdout is not None:
            sys.stdout.flush()  # so a failed write shows here, not at exit
        return code
    except OSError:  # every file's errors are CliErrors: this is stdout's
        _note("error: cannot write stdout")
        # the interpreter flushes stdout again at exit: point fd 1 at
        # /dev/null, as the Python docs' note on SIGPIPE does
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE
    except KeyboardInterrupt:
        _note("error: interrupted")
        return EXIT_INTERRUPTED


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
