"""Command-line front end: synth, select, eval, project, oracle.

Every artefact-producing command writes a flat key-value manifest: the
command, then every flag under its dest in parser order (``_flags``), then
the sha256 of each input file, then the results.  Each key is the dest of
the flag that sets it, and only where the artefacts go is left out, so a run
replays byte for byte from its manifest alone.  Each artefact is replaced
atomically (``dataset.atomic_write``); the manifest is deleted before the
first artefact and written last, so a directory without one holds an
unfinished run.  Exit codes: 0 success, 2 usage errors, 1 data errors, 141
when stdout's reader has closed the pipe.  Each GA or synth flag stores
into the ``GaConfig`` or ``SynthSpec`` field of its name and takes that
field's default, so the library alone declares those parameters.  A usage
error is a ``ConfigError``, a value the caller chose that is refused, whether
by a flag check here or by the library code that owns the parameter.  An
optional flag is given exactly when its value is not None, so an empty
value goes to the code that owns it: ``--mask ''`` is a usage error and an
empty input path fails at load.  An empty artefact path or ``--out-dir``,
or an artefact path naming an existing directory, is a usage error before
anything is written; a negative seed is one that ``GaConfig`` and
``SynthSpec`` refuse.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import os
import re
import sys
import time
from dataclasses import fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .dataset import (
    DEFAULT_LABEL_COLUMN,
    ConfigError,
    Dataset,
    DatasetError,
    atomic_write,
    cell_text,
    load_csv,
    normalize_minmax,
    split_random,
    unify_vocabulary,
    write_csv,
    write_rows,
)
from .ga import GaConfig, evolve, exhaustive_best, write_trace
from .knn import REJECT, FeatureMask, recognition_rate
from .pca import fit_pca2, project_rows
from .plot import axis_bounds, write_svg_scatter
from .synth import SynthSpec, generate, generate_pool

EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a closed pipe

# default pool: 14 class sizes summing to 237, split 187/50 by --test-count
DEFAULT_CLASS_SIZES = (20, 20, 8, 4, 20, 20, 20, 20, 20, 15, 20, 10, 20, 20)
# synth's pool-split flags, which default to None on the parser so that a
# per-class run can tell a given one and refuse it
POOL_DEFAULTS = {"class_sizes": ",".join(map(str, DEFAULT_CLASS_SIZES)),
                 "test_count": 50, "stratified": False}


def _fmt(value) -> str:
    """A ``key = value`` line's value as ``cell_text`` writes it, plain where
    the line reads it back as itself, else JSON: text that is not printable,
    has edge whitespace, starts with ``"`` or ``[`` or spells
    ``none``/``true``/``false``, or a list with an item holding ``;``."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    listed = isinstance(value, list)  # a repeatable flag's values, or a list of results
    text = ";".join(value) if listed else cell_text(value)
    if (not text.isprintable() or text != text.strip() or text.startswith(('"', '['))
            or text in ("none", "true", "false") or listed and any(";" in v for v in value)):
        return json.dumps(value if listed else text)
    return text


# where a run writes is not part of what it computes: a replay picks its own
NOT_ECHOED = {"func", "subcommand", "out_dir", "out", "svg"}


def _flags(args, **resolved) -> list[tuple[str, object]]:
    """A manifest's parameter block: the command, then every flag of ``args``
    under its dest in parser order, a ``resolved`` value in place of the raw
    one of the same name."""
    given = vars(args) | resolved
    return [("command", args.subcommand)] + [
        (dest, value) for dest, value in given.items() if dest not in NOT_ECHOED]


def _digests(args, *dests: str) -> list[tuple[str, str]]:
    """``<dest>_sha256`` of each input file named by a set flag in ``dests``."""
    return [(f"{dest}_sha256", hashlib.sha256(Path(path).read_bytes()).hexdigest())
            for dest in dests if (path := getattr(args, dest)) is not None]


def _write_pairs(pairs: list[tuple[str, object]], fh) -> None:
    """One ``key = value`` line per pair: every manifest and stdout report."""
    fh.writelines(f"{key} = {_fmt(value)}\n" for key, value in pairs)


def _write_manifest(pairs: list[tuple[str, object]], path) -> None:
    with atomic_write(path) as fh:
        _write_pairs(pairs, fh)


def _refuse_empty(args, *dests: str) -> None:
    """An empty path names no file, though ``Path`` reads it as ``.``: each
    artefact flag in ``dests`` that is given empty is a usage error."""
    for dest in dests:
        if getattr(args, dest) == "":
            raise ConfigError(f"--{dest.replace('_', '-')} is empty: it names no file")


def _refuse_overwrites(inputs, artefacts) -> None:
    """Each artefact must be a file of its own: one that resolves to an input
    or to an earlier artefact would destroy it, and the manifest would then
    list or hash a file that no longer holds what it says.  An existing
    directory in its place, or an existing file where one of its directories
    must go, would fail the write after the work."""
    taken = {Path(path).resolve(): f"input {path}" for path in inputs}
    for path in artefacts:
        resolved = Path(path).resolve()
        if resolved in taken:
            raise ConfigError(f"artefact {path} would overwrite {taken[resolved]}")
        if Path(path).is_dir():
            raise ConfigError(f"artefact {path} cannot be written: it is a directory")
        taken[resolved] = f"artefact {path}"
        for parent in Path(path).parents:
            if parent.exists() and not parent.is_dir():
                raise ConfigError(f"artefact {path} cannot be written: {parent} is a file")


def _parse_int_list(text: str, what: str) -> list[int]:
    """Comma-separated canonical decimals, each ``0|[1-9][0-9]*``: no sign,
    space, underscore or leading zero, so ``007`` and ``01`` are refused."""
    tokens = text.split(",")
    if not all(re.fullmatch(r"0|[1-9][0-9]*", tok) for tok in tokens):
        raise ConfigError(f"{what} must be comma-separated integers without signs, "
                          f"spaces or leading zeros: {text!r}")
    return [int(tok) for tok in tokens]


def _from_args(cls, args, **parsed):
    """``cls`` from the ``args`` entries named after its fields, ``parsed`` in
    place of text flags; an absent or None entry keeps the field's default."""
    given = vars(args) | parsed
    return cls(**{f.name: given[f.name] for f in fields(cls) if given.get(f.name) is not None})


def _load(path, args) -> Dataset:
    return load_csv(path, label_column=args.label_column, has_header=args.has_header)


def _load_problem(args, *paths, normalize: bool = False) -> list[Dataset]:
    """Load ``paths`` (training set first) onto one class vocabulary, before
    any work: every file must have the training set's feature count (else a
    data error naming the file) and ``--k`` must fit the training rows (else
    a usage error).  ``normalize`` min-max scales all on the training bounds."""
    loaded = [_load(path, args) for path in paths]
    width = loaded[0].feature_count
    for path, d in zip(paths[1:], loaded[1:]):
        if d.feature_count != width:
            raise DatasetError(f"{path} has {d.feature_count} features, "
                               f"but training set {paths[0]} has {width}")
    train, *others = unify_vocabulary(*loaded)
    if not 1 <= args.k <= train.n_samples:
        raise ConfigError(f"--k must be in 1..{train.n_samples}, got {args.k}")
    if normalize:
        train, others = normalize_minmax(train, others)
    return [train, *others]


def _names_a_file(value: str) -> bool:
    try:
        return Path(value).is_file()
    except OSError as exc:
        if exc.errno != errno.ENAMETOOLONG:
            raise
        return False


def _parse_mask(value: str, feature_count: int) -> FeatureMask:
    """Mask text, or a file whose first non-comment line is mask text.

    A value that is valid mask text and also names a file has two readings,
    so it is a usage error; ``./70`` names the file ``70``.  A value too long
    to be a file name, such as a bit string on a few hundred features, is
    mask text."""
    if not _names_a_file(value):
        return _parse_mask_text(value, value, feature_count)
    try:
        mask = _parse_mask_text(value, value, feature_count)
    except ConfigError:
        lines = [ln.strip() for ln in Path(value).read_text(encoding="utf-8-sig").splitlines()]
        lines = [ln for ln in lines if ln and not ln.startswith("#")]
        if not lines:
            raise ConfigError(f"mask file {value} is empty")
        return _parse_mask_text(lines[0], value, feature_count)
    raise ConfigError(
        f"--mask {value!r} is ambiguous: it reads as features "
        f"{mask.to_index_string()} and also names a file; write ./{value} "
        "to read the file"
    )


def _parse_mask_text(source: str, value: str, feature_count: int) -> FeatureMask:
    """A 0/1 string of exactly ``feature_count`` characters with at least one
    ``1`` is a bit string; anything else must be a comma list of canonical
    decimal indices (so ``0`` on one feature is feature 0).  ``value`` is
    what the user wrote, for messages."""
    if len(source) == feature_count and set(source) <= {"0", "1"} and "1" in source:
        return FeatureMask.from_string(source)
    indices = _parse_int_list(
        source, f"mask {value!r}, unless a {feature_count}-character 0/1 string,")
    try:
        return FeatureMask.from_indices(indices, feature_count)
    except ValueError as exc:
        raise ConfigError(f"cannot parse mask {value!r}: {exc}")


def _dataset_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--label-column", default=DEFAULT_LABEL_COLUMN,
                     help="label column name or 0-based index (default %(default)s)")
    sub.add_argument("--no-header", dest="has_header", action="store_false",
                     help="files have no header row")


# ---------------------------------------------------------------- synth

def cmd_synth(args) -> int:
    _refuse_empty(args, "out_dir")
    uniform = args.train_per_class is not None or args.test_per_class is not None
    if uniform and (args.train_per_class is None or args.test_per_class is None):
        raise ConfigError("--train-per-class and --test-per-class go together")
    given = {dest: value for dest in POOL_DEFAULTS
             if (value := getattr(args, dest)) is not None and value is not False}
    if uniform and given:
        raise ConfigError(", ".join("--" + dest.replace("_", "-") for dest in given)
                          + ": pool-split flags, unused with --train-per-class")
    # a per-class manifest echoes none for each pool-split flag: none applied
    pool = dict.fromkeys(POOL_DEFAULTS) if uniform else POOL_DEFAULTS | given
    spec = _from_args(SynthSpec, args,
                      informative=_parse_int_list(args.informative, "--informative"))
    out_dir = Path(args.out_dir)
    train_path, test_path, manifest_path = (
        out_dir / name for name in ("train.csv", "test.csv", "manifest.txt"))
    _refuse_overwrites([], [train_path, test_path, manifest_path])
    if uniform:
        train, test = generate(spec)
    else:
        sizes = tuple(_parse_int_list(pool["class_sizes"], "--class-sizes"))
        train, test = split_random(generate_pool(spec, sizes), pool["test_count"],
                                   spec.seed, stratified=pool["stratified"])

    manifest_path.unlink(missing_ok=True)
    write_csv(train, train_path)
    write_csv(test, test_path)
    mode = [("mode", "per_class")] if uniform else [("mode", "pool_split"),
                                                     ("pool_size", sum(sizes))]
    manifest = _flags(args, **pool) + mode + [
        ("train_rows", train.n_samples),
        ("test_rows", test.n_samples),
        ("train_file", train_path),
        ("test_file", test_path),
    ]
    _write_manifest(manifest, manifest_path)
    print(f"wrote {train_path} ({train.n_samples} rows) and "
          f"{test_path} ({test.n_samples} rows)")
    return EXIT_OK


# ---------------------------------------------------------------- select

def cmd_select(args) -> int:
    _refuse_empty(args, "out_dir")
    paths = [args.train, args.eval] + ([args.holdout] if args.holdout is not None else [])
    out_dir = Path(args.out_dir)
    trace_path, mask_path, summary_path = (
        out_dir / name for name in ("trace.csv", "best_mask.txt", "summary.txt"))
    _refuse_overwrites(paths, [trace_path, mask_path, summary_path])
    train, eval_set, *rest = _load_problem(args, *paths, normalize=args.normalize)
    holdout = rest[0] if rest else None
    cfg = _from_args(GaConfig, args)

    started = time.perf_counter()
    best, trace, stopped = evolve(train, eval_set, cfg)
    wall = time.perf_counter() - started

    summary_path.unlink(missing_ok=True)
    write_trace(trace, trace_path)
    mask = best.mask
    with atomic_write(mask_path) as fh:
        fh.write(mask.to_string() + "\n")

    length = train.feature_count
    eval_n = eval_set.n_samples

    manifest = _flags(args, per_bit_flip_rate=cfg.flip_rate(length)) + _digests(
        args, "train", "eval", "holdout") + [
        ("train_samples", train.n_samples),
        ("eval_samples", eval_n),
        ("n_classes", len(train.classes)),
        ("original_features", length),
        ("generations_run", len(trace) - 1),
        ("stopped_by", stopped),
        ("best_fitness", best.fitness),
        ("final_recognition_hits", best.hits),
        ("final_recognition_rate_percent", f"{100.0 * best.hits / eval_n:.2f}"),
        ("final_feature_count", best.nf),
        ("selected_features", mask.to_index_string()),
        ("reduction_rate_percent", f"{100.0 * (length - best.nf) / length:.2f}"),
    ]
    if holdout is not None:
        h_hits, h_rate, _ = recognition_rate(train, holdout, cfg.k, mask)
        manifest += [
            ("holdout_samples", holdout.n_samples),
            ("holdout_hits", h_hits),
            ("holdout_rate_percent", f"{100.0 * h_rate:.2f}"),
        ]
    _write_manifest(manifest, summary_path)

    _write_pairs([("generations_run", len(trace) - 1), ("best_fitness", best.fitness),
                  ("hits", f"{best.hits} / {eval_n}"),
                  ("selected_features", mask.to_index_string()),
                  ("wall_time_seconds", f"{wall:.3f}")], sys.stdout)
    print(f"artefacts in {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------- eval

def cmd_eval(args) -> int:
    train, test = _load_problem(args, args.train, args.test, normalize=args.normalize)
    mask = _parse_mask(args.mask, train.feature_count)
    hits, rate, predicted = recognition_rate(
        train, test, args.k, mask, reject_ties=args.reject_ties
    )
    _write_pairs([("command", "eval"), ("k", args.k), ("mask", mask.to_string()),
                  ("active_features", mask.to_index_string()), ("hits", hits),
                  ("rate", rate)], sys.stdout)
    for idx, (guess, actual) in enumerate(zip(predicted.tolist(), test.labels.tolist())):
        pred_name = "REJECT" if guess == REJECT else train.classes[guess]
        marker = "" if guess == actual else "\tMISS"
        print(f"{idx}\t{pred_name}\t{train.classes[actual]}{marker}")
    return EXIT_OK


# ---------------------------------------------------------------- project

def _expand_pairs(pair_args: list[str], mask: Optional[FeatureMask],
                  feature_count: int) -> list[tuple[int, int]]:
    pairs: list[tuple[int, int]] = []
    for value in pair_args:
        if value == "all":
            if mask is None:
                raise ConfigError("--pair all needs --mask to supply the feature set")
            active = [int(i) for i in mask.active_indices()]
            pairs += [(a, b) for n, a in enumerate(active) for b in active[n + 1:]]
            continue
        ints = _parse_int_list(value, "--pair")
        if len(ints) != 2 or ints[0] == ints[1]:
            raise ConfigError(f"--pair wants two distinct indices, got {value!r}")
        pairs.append((ints[0], ints[1]))
    for a, b in pairs:
        if not (0 <= a < feature_count and 0 <= b < feature_count):
            raise ConfigError(f"--pair ({a},{b}) out of range 0..{feature_count - 1}")
    return pairs


def cmd_project(args) -> int:
    _refuse_empty(args, "out", "svg")
    data = _load(args.dataset, args)
    mask = _parse_mask(args.mask, data.feature_count) if args.mask is not None else None
    if mask is not None and mask.active_count < 2 and (args.pair is None or "all" in args.pair):
        raise ConfigError("the PCA and --pair all need at least two active features in "
                          f"--mask, got {mask.to_index_string()}")
    out = Path(args.out)
    manifest_path = out.with_suffix(".manifest.txt")
    manifest = _flags(args, mask=mask.to_string() if mask is not None else None) + _digests(
        args, "dataset") + [
        ("samples", data.n_samples),
        ("features", data.feature_count),
    ]
    # (coordinates CSV, SVG or None, coordinates, CSV columns, SVG axis labels) per view
    if args.pair is not None:
        pairs = _expand_pairs(args.pair, mask, data.feature_count)
        svg = Path(args.svg) if args.svg is not None else None
        views = [(out.with_name(f"{out.stem}_pair_{a}_{b}{out.suffix or '.csv'}"),
                  svg.with_name(f"{svg.stem}_pair_{a}_{b}{svg.suffix or '.svg'}")
                  if svg is not None else None,
                  data.features[:, [a, b]], [f"f{a}", f"f{b}"],
                  (f"feature {a}", f"feature {b}")) for a, b in pairs]
        manifest.append(("pairs", [f"{a},{b}" for a, b in pairs]))
    else:
        model = fit_pca2(data, mask)
        manifest += [("eigenvalue1", model.eigenvalue1), ("eigenvalue2", model.eigenvalue2)]
        # --svg echoed in outputs as given
        views = [(out, args.svg, project_rows(model, data.features), ["pc1", "pc2"],
                  ("pc1", "pc2"))]
    # every view is computed, and each SVG's axes checked, before anything is
    # deleted or written. A parsed --mask that names a file was read from it
    for _, svg_out, coords, *_ in views:
        if svg_out is not None:
            axis_bounds(coords)
    mask_file = [args.mask] if mask is not None and _names_a_file(args.mask) else []
    _refuse_overwrites([args.dataset] + mask_file, [
        path for view in views for path in view[:2] if path is not None] + [manifest_path])
    manifest_path.unlink(missing_ok=True)

    outputs: list[str] = []
    for coords_out, svg_out, coords, columns, (x_label, y_label) in views:
        write_rows(coords_out, ["sample_index", "label_name"] + columns,
                   ([idx, data.classes[lab]] + row for idx, (row, lab)
                    in enumerate(zip(coords.tolist(), data.labels))))
        outputs.append(str(coords_out))
        if svg_out is not None:
            write_svg_scatter(svg_out, coords, data.labels, data.classes,
                              x_label=x_label, y_label=y_label)
            outputs.append(str(svg_out))

    manifest.append(("outputs", outputs))
    _write_manifest(manifest, manifest_path)
    for artefact in outputs:
        print(f"wrote {artefact}")
    return EXIT_OK


# ---------------------------------------------------------------- oracle

def cmd_oracle(args) -> int:
    train, eval_set = _load_problem(args, args.train, args.eval)
    cfg = _from_args(GaConfig, args)
    best, scored = exhaustive_best(train, eval_set, cfg)
    _write_pairs([("command", "oracle"), ("alpha", cfg.alpha), ("beta", cfg.beta),
                  ("k", cfg.k), ("subsets_evaluated", scored),
                  ("best_mask", best.mask.to_string()),
                  ("best_features", best.mask.to_index_string()),
                  ("best_fitness", best.fitness), ("hits", best.hits), ("nf", best.nf)],
                 sys.stdout)
    return EXIT_OK


# ---------------------------------------------------------------- parser

SCORE_FLAGS = [
    ("--k", "k", int, "neighbours in the vote"),
    ("--alpha", "alpha", float, "fitness weight per hit"),
    ("--beta", "beta", float, "fitness penalty per active feature"),
]
SEARCH_FLAGS = [
    ("--pop", "population_size", int, "population size"),
    ("--generations", "max_generations", int, "generation budget"),
    ("--crossover-prob", "crossover_prob", float, "crossover probability per pair"),
    ("--mutation-prob", "mutation_prob", float, "per-chromosome mutation probability"),
    ("--bit-flip-rate", "per_bit_flip_rate", float,
     "per-bit flip rate inside a mutation, None meaning 1/L"),
    ("--seed", "seed", int, "GA seed"),
    ("--elite", "elite_count", int, "best individuals kept per generation"),
    ("--tournament", "tournament_size", int, "tournament size of parent selection"),
    ("--stop-on-fitness", "stop_on_fitness", float, "stop at this best fitness"),
    ("--stall-generations", "stall_generations", int,
     "stop after this many generations without a better individual"),
]
SYNTH_FLAGS = [
    ("--classes", "n_classes", int, "number of classes"),
    ("--features", "n_features", int, "number of features"),
    ("--separation", "class_separation", float,
     "gap between adjacent class means on informative features"),
    ("--noise-sd", "noise_sd", float, "noise standard deviation on every feature"),
    ("--seed", "seed", int, "generator and split seed"),
]


def _config_flags(sub: argparse.ArgumentParser, cls, rows) -> None:
    """One flag per (flag, field, type, help) row: it stores into the ``cls``
    field it names and takes that field's default."""
    for flag, name, kind, text in rows:
        sub.add_argument(flag, dest=name, type=kind, default=getattr(cls, name),
                         help=f"{text} (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evoknn",
        description="Genetic search over feature subsets for nearest-neighbour "
                    "classifiers: dataset synthesis, GA selection, evaluation, "
                    "2D projection, and an exhaustive oracle.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("synth", help="generate a planted-feature dataset pair")
    p.add_argument("--out-dir", default="synth_out",
                   help="output directory (default %(default)s)")
    _config_flags(p, SynthSpec, SYNTH_FLAGS)
    p.add_argument("--informative", default=",".join(map(str, SynthSpec.informative)),
                   help="comma-separated informative feature indices (default %(default)s)")
    p.add_argument("--train-per-class", type=int,
                   help="with --test-per-class: exact per-class counts instead of a pool")
    p.add_argument("--test-per-class", type=int,
                   help="with --train-per-class: exact per-class counts instead of a pool")
    p.add_argument("--class-sizes",
                   help=f"per-class pool sizes (default {POOL_DEFAULTS['class_sizes']})")
    p.add_argument("--test-count", type=int, help="random test samples drawn from the "
                   f"pool (default {POOL_DEFAULTS['test_count']})")
    p.add_argument("--stratified", action="store_true",
                   help="stratify the pool split per class")
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("select", help="run the genetic feature search")
    p.add_argument("train", help="training CSV")
    p.add_argument("eval", help="evaluation CSV scored inside the fitness")
    p.add_argument("--out-dir", required=True)
    _config_flags(p, GaConfig, SCORE_FLAGS + SEARCH_FLAGS)
    p.add_argument("--normalize", action="store_true",
                   help="min-max scale features using training bounds")
    p.add_argument("--holdout", default=None,
                   help="third dataset never seen by the GA, reported in the summary")
    _dataset_flags(p)
    p.set_defaults(func=cmd_select)

    p = subs.add_parser("eval", help="evaluate one mask on a train/test pair")
    p.add_argument("train")
    p.add_argument("test")
    p.add_argument("--mask", required=True,
                   help="0/1 string of one character per feature, comma-separated "
                        "indices, or a file holding either")
    _config_flags(p, GaConfig, SCORE_FLAGS[:1])
    p.add_argument("--reject-ties", action="store_true",
                   help="report REJECT instead of breaking vote ties")
    p.add_argument("--normalize", action="store_true")
    _dataset_flags(p)
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("project", help="2D projection scatter data (PCA or raw pairs)")
    p.add_argument("dataset")
    p.add_argument("--mask", default=None)
    p.add_argument("--out", required=True, help="coordinates CSV path")
    p.add_argument("--svg", default=None, help="optional SVG scatterplot path")
    p.add_argument("--pair", action="append", default=None,
                   help="plot raw features i,j instead of PCA; repeatable; "
                        "'all' expands to every pair of --mask's active features")
    _dataset_flags(p)
    p.set_defaults(func=cmd_project)

    p = subs.add_parser("oracle", help="exhaustive subset search (small feature counts)")
    p.add_argument("train")
    p.add_argument("eval")
    _config_flags(p, GaConfig, SCORE_FLAGS)
    _dataset_flags(p)
    p.set_defaults(func=cmd_oracle)

    return parser


def _refuse_lost_values(parser: argparse.ArgumentParser, args) -> None:
    """Python 3.11's argparse parses a single-valued ``--flag=--`` to ``[]``,
    or ``[[]]`` for an appended flag, where a later argparse may keep the
    text ``--``.  Either reading is refused, so every version exits 2."""
    subs = next(action for action in parser._actions if action.dest == "subcommand")
    for action in subs.choices[args.subcommand]._actions:
        value = getattr(args, action.dest, None)
        if value == "--" or isinstance(value, list) and (
                not value or any(not isinstance(v, str) or v == "--" for v in value)):
            flag = "/".join(action.option_strings) or action.dest
            raise ConfigError(f"{flag} has no value: '--' is read as none")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _refuse_lost_values(parser, args)
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
        return code
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader of stdout has gone, as with `| head`: no error to report.
        # Unflushed output then goes to devnull, so the exit flush is silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (DatasetError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
