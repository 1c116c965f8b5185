"""End-to-end command-line behaviour: artefacts, replays, exit codes."""

import argparse
import collections
import contextlib
import csv
import hashlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from evoknn import cli, ga, knn
from evoknn.dataset import (atomic_write, from_rows, load_csv, split_random,
                            unify_vocabulary, write_csv, write_rows)
from evoknn.ga import TRACE_COLUMNS, GaConfig, GenerationStats, exhaustive_best, write_trace
from evoknn.knn import FeatureMask, recognition_rate
from evoknn.pca import fit_pca2, project_rows
from evoknn.synth import SynthSpec, generate_pool


@pytest.fixture
def data_dir(tmp_path):
    """A small planted synthetic train/test pair written through the CLI."""
    out = tmp_path / "data"
    code = cli.main([
        "synth", "--out-dir", str(out), "--classes", "3", "--features", "6",
        "--informative", "1,4", "--separation", "8", "--seed", "5",
        "--train-per-class", "8", "--test-per-class", "4",
    ])
    assert code == 0
    return out


def manifest_value(text):
    """The README's reading of a manifest value: no value has edge whitespace,
    so it is stripped; then JSON when it starts with ``"`` or ``[``, None for
    the bare ``none``, else the text itself."""
    text = text.strip()
    if text.startswith(('"', '[')):
        return json.loads(text)
    return None if text == "none" else text


def manifest_items(value):
    """The items of a list value (``pair``, ``pairs``, ``outputs``): a JSON
    array as it is, plain text split on ``;``."""
    return value if isinstance(value, list) else value.split(";")


def read_manifest(path):
    pairs = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(" = ")
        pairs[key] = manifest_value(value)
    return pairs


def stdout_field(capsys, name):
    text = capsys.readouterr().out
    match = re.search(rf"^{name} = (.+)$", text, re.MULTILINE)
    assert match, f"{name} not in output:\n{text}"
    return match.group(1)


# ----------------------------------------------------------- synth

def test_synth_default_pool_split_is_187_50(tmp_path, capsys):
    out = tmp_path / "pool"
    assert cli.main(["synth", "--out-dir", str(out)]) == 0
    train = load_csv(out / "train.csv")
    test = load_csv(out / "test.csv")
    assert train.n_samples == 187 and test.n_samples == 50
    assert train.feature_count == 117
    manifest = read_manifest(out / "manifest.txt")
    assert manifest["mode"] == "pool_split"
    assert manifest["pool_size"] == "237"
    assert manifest["informative"] == "70,101,112"
    capsys.readouterr()


def test_synth_per_class_mode_and_replay(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["synth", "--classes", "4", "--features", "10", "--informative",
            "0,9", "--seed", "77", "--train-per-class", "5",
            "--test-per-class", "2"]
    assert cli.main(args + ["--out-dir", str(a)]) == 0
    assert cli.main(args + ["--out-dir", str(b)]) == 0
    assert (a / "train.csv").read_bytes() == (b / "train.csv").read_bytes()
    assert (a / "test.csv").read_bytes() == (b / "test.csv").read_bytes()
    manifest = read_manifest(a / "manifest.txt")
    assert manifest["mode"] == "per_class"
    assert read_manifest(b / "manifest.txt") == read_manifest(a / "manifest.txt") | {
        "train_file": str(b / "train.csv"), "test_file": str(b / "test.csv")}
    capsys.readouterr()


def test_synth_usage_errors(tmp_path, capsys):
    base = ["synth", "--out-dir", str(tmp_path / "x")]
    assert cli.main(base + ["--informative", "0,99", "--features", "10",
                            "--train-per-class", "2", "--test-per-class", "1"]) == 2
    assert cli.main(base + ["--train-per-class", "3"]) == 2  # missing partner
    assert cli.main(base + ["--class-sizes", "5,5"]) == 2  # 14 classes expected
    assert cli.main(base + ["--classes", "2", "--informative", "0",
                            "--class-sizes", "5,5", "--test-count", "10"]) == 2
    assert cli.main(base + ["--informative", "0,zap"]) == 2
    assert cli.main(base + ["--informative", "1,,4"]) == 2  # empty item
    assert cli.main(base + ["--informative", "007"]) == 2  # leading zeros
    # refused by generate_pool, which is inside the usage-error mapping
    assert cli.main(base + ["--class-sizes", "0,20,8,4,20,20,20,20,20,15,20,10,20,20"]) == 2
    # a pool-split flag has nothing to apply to in per-class mode; each of
    # these exited 0 with a manifest echoing values that were never used
    per_class = base + ["--train-per-class", "2", "--test-per-class", "1"]
    for pool_flag in (["--stratified"], ["--test-count", "7"], ["--test-count", "50"],
                      ["--class-sizes", "1,2"], ["--stratified", "--test-count", "7",
                                                 "--class-sizes", "1,2"]):
        capsys.readouterr()
        assert cli.main(per_class + pool_flag) == 2
        assert pool_flag[0] in capsys.readouterr().err
    assert not (tmp_path / "x").exists()
    capsys.readouterr()


@pytest.mark.parametrize("flags, named", [
    (["--separation", "nan"], "class_separation must be positive and finite, got nan"),
    (["--noise-sd", "inf"], "noise_sd must be positive and finite, got inf"),
    (["--separation", "1e308"], "class_separation 1e+308 puts a class mean"),
    (["--noise-sd", "1e308"], "noise_sd 1e+308 with class_separation 10.0 draws"),
])
def test_synth_scale_refusals_name_their_field(tmp_path, capsys, flags, named):
    # these exited 2 with the dataset's "features contain NaN or infinite
    # values", and the overflowing ones printed numpy's RuntimeWarning too
    out = tmp_path / "x"
    for mode in ([], ["--train-per-class", "2", "--test-per-class", "1"]):
        assert cli.main(["synth", "--out-dir", str(out)] + flags + mode) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Warning" not in captured.err
        assert captured.err == f"usage error: {named}" + captured.err.split(named)[1]
    assert not out.exists()


def test_synth_stratified_split_matches_the_library(tmp_path, capsys):
    out = tmp_path / "strat"
    assert cli.main(["synth", "--out-dir", str(out), "--stratified", "--noise-sd", "0.5",
                     "--seed", "3"]) == 0
    capsys.readouterr()
    manifest = read_manifest(out / "manifest.txt")
    assert {key: manifest[key] for key in ("mode", "stratified", "noise_sd", "test_count")} == {
        "mode": "pool_split", "stratified": "true", "noise_sd": "0.5", "test_count": "50"}

    pool = generate_pool(SynthSpec(noise_sd=0.5, seed=3), cli.DEFAULT_CLASS_SIZES)
    want = split_random(pool, 50, 3, stratified=True)[1]
    uniform = split_random(pool, 50, 3)[1]
    got = load_csv(out / "test.csv")

    def per_class(d):
        return collections.Counter(d.classes[lab] for lab in d.labels)

    assert per_class(got) == per_class(want) != per_class(uniform)
    assert np.array_equal(got.features, want.features)


# ----------------------------------------------------------- select

SELECT_FLAGS = ["--pop", "14", "--generations", "25", "--seed", "3",
                "--alpha", "0.5", "--beta", "0.5"]


def test_select_writes_artifacts_and_replays_identically(data_dir, tmp_path, capsys):
    train, test = str(data_dir / "train.csv"), str(data_dir / "test.csv")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["select", train, test, "--out-dir", str(out1)] + SELECT_FLAGS) == 0
    assert cli.main(["select", train, test, "--out-dir", str(out2)] + SELECT_FLAGS) == 0
    capsys.readouterr()

    trace = (out1 / "trace.csv").read_bytes()
    assert trace == (out2 / "trace.csv").read_bytes()
    assert (out1 / "summary.txt").read_bytes() == (out2 / "summary.txt").read_bytes()
    header = trace.decode().splitlines()[0]
    assert header == "generation,best_fitness,median_fitness,min_fitness,best_nf,best_hits,best_mask"

    summary = read_manifest(out1 / "summary.txt")
    assert summary["population_size"] == "14"
    assert summary["seed"] == "3"
    assert summary["original_features"] == "6"
    mask_text = (out1 / "best_mask.txt").read_text().strip()
    assert len(mask_text) == 6 and set(mask_text) <= {"0", "1"}
    assert summary["selected_features"] == FeatureMask.from_string(mask_text).to_index_string()
    assert summary["stopped_by"] == "generation_budget"
    assert summary["generations_run"] == "25"


# sha256 of select's artefacts, each recorded on the code before a refactor
# of the GA or the k-NN kernel; every later change must keep reproducing them.
# (synth flags, select flags, {artefact: sha256})
GOLDEN_SELECT_RUNS = [
    # the AC-7 problem, recorded before the mask types were merged
    (["--classes", "4", "--features", "12", "--informative", "2,7", "--separation", "8",
      "--seed", "11", "--train-per-class", "6", "--test-per-class", "3"],
     ["--pop", "16", "--generations", "30", "--seed", "9", "--alpha", "0.5", "--beta", "0.5"],
     {"trace.csv": "2e6258d85a00c4a4865b4b3c14acc6c8b94e478c04e288f1b2090b8e86931314"}),
    # the paper's reference run (115 generations), recorded before the k-NN
    # query paths were merged into one kernel
    (["--seed", "12957"],
     ["--seed", "12957", "--stop-on-fitness", "28.2"],
     {"trace.csv": "b378d87d5f9cac5dfb11325a127f0ce774028056358d3faa71040ed877eec4fb",
      "best_mask.txt": "8f2a0d911bd050d4b39ef957345d652b1cf07f80431e4a8a8d91869d81d22e75"}),
]


def _synth_and_select(base, synth_flags, select_flags):
    data, out = base / "data", base / "run"
    assert cli.main(["synth", "--out-dir", str(data)] + synth_flags) == 0
    assert cli.main(["select", str(data / "train.csv"), str(data / "test.csv"),
                     "--out-dir", str(out)] + select_flags) == 0
    return out


def _record_chunks(mp):
    """Patch ``knn._d2`` and ``knn._vote`` to log, in call order, each d2
    pass's mask count and each vote's d2 shape: a list of (name, size)."""
    seen = []
    d2, vote = knn._d2, knn._vote

    def logged_d2(train, queries, masks, *args, **kwargs):
        seen.append(("_d2", len(masks)))
        return d2(train, queries, masks, *args, **kwargs)

    def logged_vote(block, *args, **kwargs):
        seen.append(("_vote", block.shape))
        return vote(block, *args, **kwargs)

    mp.setattr(knn, "_d2", logged_d2)
    mp.setattr(knn, "_vote", logged_vote)
    return seen


def _assert_one_vote_per_chunk(seen, n_masks, queries, train):
    # each chunk's d2 pass is followed by one vote on its whole 3-D block
    widths = [size for _, size in seen[0::2]]
    assert [name for name, _ in seen] == ["_d2", "_vote"] * len(widths)
    assert [shape for _, shape in seen[1::2]] == [(w, queries, train) for w in widths]
    assert sum(widths) == n_masks


def _record_terms(mp):
    """Patch ``knn._term`` to log the feature index of each term computed."""
    features, term = [], knn._term

    def logged_term(train, queries, j, *args, **kwargs):
        features.append(j)
        return term(train, queries, j, *args, **kwargs)

    mp.setattr(knn, "_term", logged_term)
    return features


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    """The last (reference) run of GOLDEN_SELECT_RUNS, made once per module
    with every ``ga.fitness`` and ``ga.recognition_rate`` call counted by
    name and number of positional arguments, every ``knn._d2`` and
    ``knn._vote`` call logged and every ``knn._term`` feature logged:
    (out dir, counts, chunk log, term log, synth's and select's stdout)."""
    calls = collections.Counter()

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name, len(args)] += 1
            return func(*args, **kwargs)
        return wrapper

    stdout = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(stdout):
        for name in ("fitness", "recognition_rate"):
            mp.setattr(ga, name, counted(name, getattr(ga, name)))
        seen = _record_chunks(mp)
        terms = _record_terms(mp)
        out = _synth_and_select(tmp_path_factory.mktemp("reference"),
                                *GOLDEN_SELECT_RUNS[-1][:2])
    return out, calls, seen, terms, stdout.getvalue()


@pytest.fixture(scope="module")
def reference_select(reference_run):
    """The reference run's (out dir, counts)."""
    return reference_run[:2]


def test_select_trace_matches_golden_digest(tmp_path, capsys, reference_select):
    outs = [_synth_and_select(tmp_path / str(n), synth_flags, select_flags)
            for n, (synth_flags, select_flags, _) in enumerate(GOLDEN_SELECT_RUNS[:-1])]
    outs.append(reference_select[0])
    capsys.readouterr()
    for out, (_, _, golden) in zip(outs, GOLDEN_SELECT_RUNS):
        for name, want in golden.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == want, name


# the reference select's stdout, recorded before the stdout reports shared the
# manifests' line writer: its wall time masked, its out dir made relative
REFERENCE_SELECT_STDOUT = """\
generations_run = 115
best_fitness = 28.2
hits = 50 / 50
selected_features = 70,101,112
wall_time_seconds = *
artefacts in run
"""


def test_reference_select_stdout_matches_its_recording(reference_run):
    out, stdout = reference_run[0], reference_run[4]
    report = stdout.split("\n", 1)[1]  # after synth's one line
    report = re.sub(r"(?m)^wall_time_seconds = \d+\.\d{3}$", "wall_time_seconds = *", report)
    assert report.replace(f"artefacts in {out}", f"artefacts in {out.name}") \
        == REFERENCE_SELECT_STDOUT


def test_reference_select_scores_each_distinct_mask_once(reference_select):
    # the benchmark counts fresh evaluations and times the knn layer by
    # wrapping these two names, and reads the mask at its positional slot
    out, calls = reference_select
    assert read_manifest(out / "summary.txt")["generations_run"] == "115"
    assert calls == {("fitness", 4): 4760, ("recognition_rate", 4): 4760}


def test_reference_select_votes_each_scored_chunk_once(reference_run):
    # 4,760 fresh masks of the 187-row train set on the 50-row eval set
    _assert_one_vote_per_chunk(reference_run[2], 4760, 50, 187)


def test_reference_select_computes_each_term_once(reference_run):
    # the run's term table holds one term per feature, filled in order; the
    # d2 passes read it and compute none
    assert reference_run[3] == list(range(117))


def test_reference_select_without_the_term_table_writes_the_same_bytes(
        tmp_path, capsys, reference_run, monkeypatch):
    # above TERM_BUDGET each chunk computes the terms its masks use, as
    # before the table: 21,711 terms, the same chunks and the same artefacts
    monkeypatch.setattr(knn, "TERM_BUDGET", 0)
    seen = _record_chunks(monkeypatch)
    terms = _record_terms(monkeypatch)
    out = _synth_and_select(tmp_path, *GOLDEN_SELECT_RUNS[-1][:2])
    capsys.readouterr()
    assert len(terms) == 21711
    assert seen == reference_run[2]
    ref = reference_run[0]
    for name in ("trace.csv", "best_mask.txt"):
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name
    # the summary names its own paths, and nothing else differs
    summary = (ref / "summary.txt").read_text(encoding="utf-8")
    assert str(ref.parent) in summary
    assert ((out / "summary.txt").read_text(encoding="utf-8")
            == summary.replace(str(ref.parent), str(tmp_path)))


def test_select_every_ga_flag_reaches_the_summary(data_dir, tmp_path, capsys):
    # one non-default value per GaConfig field, set through its flag
    given = {
        "population_size": ("--pop", 12), "max_generations": ("--generations", 4),
        "crossover_prob": ("--crossover-prob", 0.75), "mutation_prob": ("--mutation-prob", 0.5),
        "per_bit_flip_rate": ("--bit-flip-rate", 0.25), "alpha": ("--alpha", 0.25),
        "beta": ("--beta", 0.75), "k": ("--k", 3), "seed": ("--seed", 8),
        "elite_count": ("--elite", 2), "tournament_size": ("--tournament", 3),
        "stop_on_fitness": ("--stop-on-fitness", 100.0),
        "stall_generations": ("--stall-generations", 9),
    }
    assert set(given) == {f.name for f in fields(GaConfig)}
    assert all(value != getattr(GaConfig, name) for name, (_, value) in given.items())
    out = tmp_path / "run"
    argv = ["select", str(data_dir / "train.csv"), str(data_dir / "test.csv"),
            "--out-dir", str(out)]
    for flag, value in given.values():
        argv += [flag, str(value)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    summary = read_manifest(out / "summary.txt")
    for name, (flag, value) in given.items():
        assert summary[name] == cli._fmt(value), flag


def test_config_flags_store_into_the_library_fields():
    # a flag whose dest misses its field would silently run on the default
    parse = cli.build_parser().parse_args
    plumbing = {"subcommand", "func", "train", "eval", "out_dir", "label_column", "has_header"}
    select = parse(["select", "t.csv", "e.csv", "--out-dir", "o"])
    assert set(vars(select)) - plumbing - {"normalize", "holdout"} == {
        f.name for f in fields(GaConfig)}
    oracle = parse(["oracle", "t.csv", "e.csv"])
    assert set(vars(oracle)) - plumbing == {"k", "alpha", "beta"}
    synth = parse(["synth"])
    assert set(vars(synth)) - plumbing - {"class_sizes", "test_count", "stratified"} == {
        f.name for f in fields(SynthSpec)}

    assert cli._from_args(GaConfig, select) == GaConfig()
    assert cli._from_args(GaConfig, oracle) == GaConfig()
    informative = cli._parse_int_list(synth.informative, "--informative")
    assert cli._from_args(SynthSpec, synth, informative=informative) == SynthSpec()

    evaluate = parse(["eval", "t.csv", "e.csv", "--mask", "1"])
    assert evaluate.k == GaConfig.k
    assert evaluate.label_column == inspect.signature(load_csv).parameters[
        "label_column"].default
    assert "has_header" in inspect.signature(load_csv).parameters


def test_select_stop_on_fitness_reports_target(data_dir, tmp_path, capsys):
    out = tmp_path / "run"
    code = cli.main([
        "select", str(data_dir / "train.csv"), str(data_dir / "test.csv"),
        "--out-dir", str(out), "--pop", "14", "--generations", "200",
        "--seed", "3", "--alpha", "0.5", "--beta", "0.5",
        "--stop-on-fitness", "5.0",
    ])
    assert code == 0
    capsys.readouterr()
    summary = read_manifest(out / "summary.txt")
    assert summary["stopped_by"] == "target_fitness"
    assert int(summary["generations_run"]) < 200
    assert float(summary["best_fitness"]) >= 5.0


def test_select_zero_generations_evaluates_initial_population(data_dir, tmp_path, capsys):
    out = tmp_path / "zero"
    code = cli.main([
        "select", str(data_dir / "train.csv"), str(data_dir / "test.csv"),
        "--out-dir", str(out), "--pop", "10", "--generations", "0",
        "--seed", "1", "--alpha", "0.5", "--beta", "0.5",
    ])
    assert code == 0
    capsys.readouterr()
    lines = (out / "trace.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("0,")


def test_select_holdout_and_stall(data_dir, tmp_path, capsys):
    out = tmp_path / "hold"
    code = cli.main([
        "select", str(data_dir / "train.csv"), str(data_dir / "test.csv"),
        "--holdout", str(data_dir / "test.csv"),
        "--out-dir", str(out), "--pop", "12", "--generations", "300",
        "--stall-generations", "10", "--seed", "2",
        "--alpha", "0.5", "--beta", "0.5", "--normalize",
    ])
    assert code == 0
    capsys.readouterr()
    summary = read_manifest(out / "summary.txt")
    assert summary["stopped_by"] == "stalled"
    assert summary["holdout_samples"] == "12"
    assert 0.0 <= float(summary["holdout_rate_percent"]) <= 100.0
    # the holdout is the eval file, so it scores as the GA's best did
    assert summary["holdout_hits"] == summary["final_recognition_hits"]
    assert summary["holdout_rate_percent"] == summary["final_recognition_rate_percent"]
    assert summary["normalize"] == "true"


def test_select_stall_at_the_budget_reports_stalled(tmp_path, capsys):
    # one informative feature: the generation-0 best is never beaten, so the
    # stall count reaches 3 at the budget generation and the stall rule wins
    data = tmp_path / "data"
    assert cli.main([
        "synth", "--out-dir", str(data), "--classes", "3", "--features", "4",
        "--informative", "0", "--train-per-class", "5", "--test-per-class", "3",
    ]) == 0
    out = tmp_path / "run"
    assert cli.main([
        "select", str(data / "train.csv"), str(data / "test.csv"), "--out-dir", str(out),
        "--generations", "3", "--stall-generations", "3",
        "--alpha", "0.5", "--beta", "0.5",
    ]) == 0
    capsys.readouterr()
    summary = read_manifest(out / "summary.txt")
    assert summary["generations_run"] == "3"
    assert summary["stopped_by"] == "stalled"


def test_select_is_quiet_when_alpha_and_beta_do_not_sum_to_one(data_dir, tmp_path, capsys):
    # the paper's alpha = beta = 0.6 need not sum to 1: the fitness only
    # ranks masks, so the run writes nothing to stderr and no warnings key
    out = tmp_path / "quiet"
    code = cli.main([
        "select", str(data_dir / "train.csv"), str(data_dir / "test.csv"),
        "--out-dir", str(out), "--pop", "8", "--generations", "2", "--seed", "1",
        "--alpha", "0.6", "--beta", "0.6",
    ])
    assert code == 0
    assert capsys.readouterr().err == ""
    assert "warnings" not in read_manifest(out / "summary.txt")


# ----------------------------------------------------------- eval

def test_eval_matches_library_recognition(data_dir, capsys):
    code = cli.main(["eval", str(data_dir / "train.csv"), str(data_dir / "test.csv"),
                     "--mask", "1,4", "--k", "1"])
    assert code == 0
    out = capsys.readouterr().out
    rate = float(re.search(r"^rate = (.+)$", out, re.MULTILINE).group(1))
    hits = int(re.search(r"^hits = (\d+)$", out, re.MULTILINE).group(1))

    train, test = unify_vocabulary(load_csv(data_dir / "train.csv"),
                                   load_csv(data_dir / "test.csv"))
    want_hits, want_rate, _ = recognition_rate(train, test, 1,
                                               FeatureMask.from_indices([1, 4], 6))
    assert hits == want_hits and rate == want_rate


def test_eval_mask_forms_are_equivalent(data_dir, tmp_path, capsys):
    train, test = str(data_dir / "train.csv"), str(data_dir / "test.csv")
    assert cli.main(["eval", train, test, "--mask", "010010"]) == 0
    by_string = capsys.readouterr().out
    assert cli.main(["eval", train, test, "--mask", "1,4"]) == 0
    by_indices = capsys.readouterr().out

    mask_file = tmp_path / "mask.txt"
    mask_file.write_text("010010\n")
    assert cli.main(["eval", train, test, "--mask", str(mask_file)]) == 0
    by_file = capsys.readouterr().out

    bom_file = tmp_path / "bom.txt"  # as some editors save a UTF-8 file
    bom_file.write_text("\ufeff1,4\n", encoding="utf-8")
    assert cli.main(["eval", train, test, "--mask", str(bom_file)]) == 0
    by_bom_file = capsys.readouterr().out

    assert by_string.replace("010010", "M") == by_indices.replace("010010", "M")
    assert by_file == by_string == by_bom_file


def test_a_mask_too_long_to_name_a_file_is_read_as_mask_text(tmp_path, capsys):
    # 300 characters exceed a file name's 255 bytes: asking whether the value
    # names a file raised ENAMETOOLONG, and eval and project exited 1
    data = tmp_path / "wide"
    assert cli.main(["synth", "--out-dir", str(data), "--classes", "2",
                     "--features", "300", "--informative", "7,250", "--seed", "3",
                     "--train-per-class", "4", "--test-per-class", "2"]) == 0
    capsys.readouterr()
    train, test = str(data / "train.csv"), str(data / "test.csv")
    bits = FeatureMask.from_indices([7, 250], 300).to_string()
    assert cli.main(["eval", train, test, "--mask", bits]) == 0
    by_string = capsys.readouterr().out
    assert cli.main(["eval", train, test, "--mask", "7,250"]) == 0
    assert capsys.readouterr().out == by_string
    coords = tmp_path / "coords.csv"
    assert cli.main(["project", train, "--mask", bits, "--out", str(coords)]) == 0
    capsys.readouterr()
    assert read_manifest(coords.with_suffix(".manifest.txt"))["mask"] == bits


def test_eval_scores_its_mask_in_one_d2_pass_and_one_vote(data_dir, monkeypatch, capsys):
    # eval takes the path select scores with: one (1, test, train) block
    seen = _record_chunks(monkeypatch)
    assert cli.main(["eval", str(data_dir / "train.csv"), str(data_dir / "test.csv"),
                     "--mask", "1,4", "--k", "2", "--reject-ties"]) == 0
    capsys.readouterr()
    _assert_one_vote_per_chunk(seen, 1, 12, 24)
    assert len(seen) == 2


def test_eval_reject_ties_flag(data_dir, capsys):
    code = cli.main(["eval", str(data_dir / "train.csv"), str(data_dir / "test.csv"),
                     "--mask", "1,4", "--k", "2", "--reject-ties"])
    assert code == 0
    capsys.readouterr()


# ----------------------------------------------------------- oracle

def test_oracle_matches_library_exhaustive(data_dir, capsys):
    code = cli.main(["oracle", str(data_dir / "train.csv"), str(data_dir / "test.csv"),
                     "--alpha", "0.5", "--beta", "0.5"])
    assert code == 0
    out = capsys.readouterr().out
    got_mask = re.search(r"^best_mask = ([01]+)$", out, re.MULTILINE).group(1)
    got_fit = float(re.search(r"^best_fitness = (.+)$", out, re.MULTILINE).group(1))
    got_scored = int(re.search(r"^subsets_evaluated = (.+)$", out, re.MULTILINE).group(1))

    train, test = unify_vocabulary(load_csv(data_dir / "train.csv"),
                                   load_csv(data_dir / "test.csv"))
    cfg = GaConfig(alpha=0.5, beta=0.5, seed=0)
    best, scored = exhaustive_best(train, test, cfg)
    assert got_mask == best.mask.to_string()
    assert got_fit == best.fitness
    assert got_scored == scored == 63


def test_oracle_scores_each_subset_once(data_dir, monkeypatch, capsys):
    # the benchmark's hooks on these two names must see one call per subset
    calls = collections.Counter()

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name, len(args)] += 1
            return func(*args, **kwargs)
        return wrapper

    for name in ("fitness", "recognition_rate"):
        monkeypatch.setattr(ga, name, counted(name, getattr(ga, name)))
    assert cli.main(["oracle", str(data_dir / "train.csv"), str(data_dir / "test.csv"),
                     "--alpha", "0.5", "--beta", "0.5"]) == 0
    assert stdout_field(capsys, "subsets_evaluated") == "63"
    assert calls == {("fitness", 4): 63, ("recognition_rate", 4): 63}


def test_oracle_votes_each_scored_chunk_once(data_dir, monkeypatch, capsys):
    seen = _record_chunks(monkeypatch)
    assert cli.main(["oracle", str(data_dir / "train.csv"), str(data_dir / "test.csv"),
                     "--alpha", "0.5", "--beta", "0.5"]) == 0
    capsys.readouterr()
    # the enumerator extends prefixes itself, so it makes no _d2 pass; its
    # votes cover the 63 subsets of 6 features, 12 eval rows against 24 train
    # rows, in blocks of at most D2_BUDGET bytes
    assert {name for name, _ in seen} == {"_vote"}
    assert sum(shape[0] for _, shape in seen) == 63
    assert all(shape[1:] == (12, 24) for _, shape in seen)
    assert all(8 * np.prod(shape) <= knn.D2_BUDGET for _, shape in seen)


# stdout sha256 of the oracle-k3 benchmark's problem 0 and of the CI vote-tie
# eval reports on the reference pair, as recorded on Python 3.11
ORACLE_K3_PROBLEM_0_SHA256 = "a5c3b0a423ae071f54c6c87ec5c73f851c41854dae5f87af4ea936c26974004c"
EVAL_TIE_SHA256 = {
    ("--k", "3"): "cc55320a3d31a101fcbc9c0b8fff951045eae32d990ce5d0f387c97b612514f6",
    ("--k", "2", "--reject-ties"):
        "1f192334f3634f15ebdbae36a21da0c284b57ba3731efbc7096bb79c75827226",
    ("--k", "1"): "45eb6309831204e573bd859116760e37588c133f3e5523585b1fdb83c4d75393",
    ("--k", "1", "--reject-ties"):
        "45eb6309831204e573bd859116760e37588c133f3e5523585b1fdb83c4d75393",
}


def _stdout_sha256(capsys, argv):
    assert cli.main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


def test_oracle_k3_problem_0_and_the_eval_tie_reports_match_their_digests(tmp_path, capsys):
    # the same bytes CI pins: every subset's score at k = 3 decides the
    # oracle's report, and every predicted class the eval reports
    k3, ref = tmp_path / "k3", tmp_path / "ref"
    assert cli.main(["synth", "--out-dir", str(k3), "--classes", "6", "--features", "14",
                     "--informative", "1,5,9", "--separation", "6", "--train-per-class",
                     "10", "--test-per-class", "5", "--seed", "12957"]) == 0
    assert cli.main(["synth", "--out-dir", str(ref), "--seed", "12957"]) == 0
    capsys.readouterr()
    assert _stdout_sha256(capsys, ["oracle", str(k3 / "train.csv"), str(k3 / "test.csv"),
                                   "--k", "3"]) == ORACLE_K3_PROBLEM_0_SHA256
    for flags, want in EVAL_TIE_SHA256.items():
        assert _stdout_sha256(capsys, ["eval", str(ref / "train.csv"), str(ref / "test.csv"),
                                       "--mask", "0,1,2,3,4", *flags]) == want, flags


def test_oracle_guard_exit_code(tmp_path, capsys):
    wide = tmp_path / "wide"
    assert cli.main(["synth", "--out-dir", str(wide), "--classes", "2",
                     "--features", "21", "--informative", "0",
                     "--train-per-class", "3", "--test-per-class", "2"]) == 0
    oracle = ["oracle", str(wide / "train.csv"), str(wide / "test.csv"),
              "--alpha", "0.5", "--beta", "0.5"]
    assert cli.main(oracle) == 1
    assert "guard of 20" in capsys.readouterr().err
    # the guard is a constant, not a flag
    with pytest.raises(SystemExit) as exc:
        cli.main(oracle + ["--max-features", "15"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("flag, value", [
    ("--alpha", "nan"), ("--beta", "inf"), ("--stop-on-fitness", "nan")])
def test_non_finite_ga_weights_are_usage_errors(data_dir, tmp_path, capsys, flag, value):
    # a NaN or infinite weight makes every fitness NaN, and a NaN target is
    # never reached: refused before any work, so no directory is made
    train, test = str(data_dir / "train.csv"), str(data_dir / "test.csv")
    out = tmp_path / "run"
    assert cli.main(["select", train, test, "--out-dir", str(out),
                     "--pop", "8", "--generations", "2", flag, value]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()
    if flag != "--stop-on-fitness":
        assert cli.main(["oracle", train, test, flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "must be finite" in captured.err


@pytest.mark.parametrize("weights, named", [
    (["--alpha", "1e308", "--beta", "1e308"], "alpha 1e+308 times 12"),
    (["--beta", "1e308"], "beta 1e+308 times 6"),
])
def test_weights_whose_fitness_overflows_are_usage_errors(data_dir, tmp_path, monkeypatch,
                                                          capsys, weights, named):
    # finite weights whose products pass the largest double: select wrote
    # best_fitness = nan and oracle reported {5} at inf with 4 of 12 hits.
    # Each search refuses them before it scores a mask, as a usage error
    def no_work(*args, **kwargs):
        raise AssertionError("scoring started")

    for name in ("term_table", "mask_predictions", "subset_predictions"):
        monkeypatch.setattr(ga, name, no_work)
    train, test = str(data_dir / "train.csv"), str(data_dir / "test.csv")
    out = tmp_path / "run"
    for argv in (["select", train, test, "--out-dir", str(out), "--pop", "10",
                  "--generations", "5"] + weights, ["oracle", train, test] + weights):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and f"{named} overflows a double" in captured.err
    assert not out.exists()


# ----------------------------------------------------------- project

def test_project_pca_coords_and_svg(data_dir, tmp_path, capsys):
    coords = tmp_path / "viz" / "coords.csv"
    svg = tmp_path / "viz" / "scatter.svg"
    code = cli.main(["project", str(data_dir / "train.csv"), "--mask", "1,4",
                     "--out", str(coords), "--svg", str(svg)])
    assert code == 0
    capsys.readouterr()
    lines = coords.read_text().splitlines()
    assert lines[0] == "sample_index,label_name,pc1,pc2"
    assert len(lines) == 25
    first = lines[1].split(",")
    assert first[0] == "0" and first[1].startswith("c")
    float(first[2]), float(first[3])  # parseable floats
    assert svg.read_text().startswith("<svg ")
    manifest = read_manifest(coords.with_suffix(".manifest.txt"))
    assert manifest["mask"] == "010010"
    assert float(manifest["eigenvalue1"]) >= float(manifest["eigenvalue2"])


def test_project_replay_is_byte_identical(data_dir, tmp_path, capsys):
    out1, out2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    for out in (out1, out2):
        assert cli.main(["project", str(data_dir / "train.csv"),
                         "--out", str(out)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def _cli_env(**overrides):
    """The environment for a ``python -m evoknn.cli`` subprocess that imports
    the package under test."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **overrides)


def test_project_bytes_do_not_depend_on_blas_thread_count(tmp_path, capsys):
    # A threaded BLAS product splits its sums by thread count, so a covariance
    # formed through one changes in its last bits between 1 and 2 OpenBLAS
    # threads. Two processes write the same paths one after the other. On a
    # 1-core host both runs use one thread and this test cannot fail.
    pool = tmp_path / "pool"
    assert cli.main(["synth", "--out-dir", str(pool), "--seed", "12957"]) == 0
    capsys.readouterr()
    viz = tmp_path / "viz"
    argv = [sys.executable, "-m", "evoknn.cli", "project", str(pool / "train.csv"),
            "--out", str(viz / "c.csv"), "--svg", str(viz / "s.svg")]
    runs = []
    for threads in ("1", "2"):
        env = _cli_env(OPENBLAS_NUM_THREADS=threads)
        subprocess.run(argv, env=env, check=True, capture_output=True, timeout=120)
        runs.append([(viz / name).read_bytes()
                     for name in ("c.csv", "s.svg", "c.manifest.txt")])
    assert runs[0] == runs[1]


def test_project_coords_csv_quotes_class_names(tmp_path, capsys):
    names = ["gran, grey", 'say "hi"', "plain"]
    data = tmp_path / "data.csv"
    write_csv(from_rows([[0.0, 1.0], [2.0, 0.5], [1.0, 3.0], [4.0, 2.0]],
                        names + ["plain"]), data)
    coords = tmp_path / "coords.csv"
    assert cli.main(["project", str(data), "--out", str(coords)]) == 0
    capsys.readouterr()
    with coords.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["sample_index", "label_name", "pc1", "pc2"]
    assert [len(row) for row in rows] == [4] * 5
    assert [row[1] for row in rows[1:]] == names + ["plain"]


def _csv_bytes(header, rows):
    """The bytes of a CSV file built apart from ``dataset.write_rows``: each
    float cell, numpy's included, as ``repr`` of a Python float, and the csv
    module's quoting."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                         for v in row])
    return buf.getvalue().encode("utf-8")


def test_synth_and_project_csvs_match_an_independent_formatter(reference_select, tmp_path,
                                                               capsys):
    out = reference_select[0]
    train_path = out.parent / "data" / "train.csv"
    train = load_csv(train_path)
    assert train_path.read_bytes() == _csv_bytes(
        [f"f{j}" for j in range(train.feature_count)] + ["label"],
        [[*row, train.classes[lab]] for row, lab in zip(train.features, train.labels)])
    coords = tmp_path / "coords.csv"
    assert cli.main(["project", str(train_path), "--mask", str(out / "best_mask.txt"),
                     "--out", str(coords)]) == 0
    capsys.readouterr()
    mask = FeatureMask.from_string((out / "best_mask.txt").read_text().strip())
    xy = project_rows(fit_pca2(train, mask), train.features)  # rows of np.float64
    assert coords.read_bytes() == _csv_bytes(
        ["sample_index", "label_name", "pc1", "pc2"],
        [[idx, train.classes[lab], *row] for idx, (row, lab) in enumerate(zip(xy, train.labels))])


def test_trace_and_quoted_names_match_an_independent_formatter(tmp_path):
    # a numpy float in the trace is written as Python's repr, 28.2
    stats = [GenerationStats(0, np.float64(28.2), 25.799999999999997, -0.6, 3, 50,
                             FeatureMask.from_string("0110")),
             GenerationStats(1, 28.8, np.float64(0.1), np.float64(-1e300), 2, 51,
                             FeatureMask.from_string("1001"))]
    write_trace(stats, tmp_path / "trace.csv")
    got = (tmp_path / "trace.csv").read_bytes()
    assert got == _csv_bytes(TRACE_COLUMNS, [
        [getattr(s, name) for name in TRACE_COLUMNS[:-1]] + [s.best_mask.to_string()]
        for s in stats])
    assert got.splitlines()[1] == b"0,28.2,25.799999999999997,-0.6,3,50,0110"
    names = ["gran, grey", 'say "hi"', "plain"]
    data = from_rows([[0.5, -0.0], [1e-310, 2.0], [np.float64(3.25), 4.0]], names)
    write_csv(data, tmp_path / "data.csv")
    assert (tmp_path / "data.csv").read_bytes() == _csv_bytes(
        ["f0", "f1", "label"], [[*row, name] for row, name in zip(data.features, names)])


def test_project_names_a_covariance_overflow(tmp_path, capsys):
    # finite values whose covariance is past the largest double: a data error
    # that says so, before any artefact is written
    data = tmp_path / "big.csv"
    data.write_text("a,b,label\n1e300,-1e300,x\n-1e300,1e300,y\n1e300,1e300,x\n")
    assert cli.main(["project", str(data), "--out", str(tmp_path / "c.csv")]) == 1
    err = capsys.readouterr().err
    assert "overflows" in err and "eigenvalue" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.csv"]


def _temp_files(directory):
    return [p.name for p in directory.rglob("*") if p.name.endswith(".tmp")]


def test_a_refused_project_leaves_an_earlier_run_alone(data_dir, tmp_path, capsys):
    # a one-feature PCA mask (a usage error) and a covariance overflow (a data
    # error) each deleted the manifest of the earlier run and left its coords
    coords = tmp_path / "p" / "c.csv"
    manifest = coords.with_suffix(".manifest.txt")
    train = str(data_dir / "train.csv")
    assert cli.main(["project", train, "--mask", "1,4", "--out", str(coords)]) == 0
    before = {path: path.read_bytes() for path in (coords, manifest)}
    big = tmp_path / "big.csv"
    big.write_text("a,b,label\n1e300,-1e300,x\n-1e300,1e300,y\n1e300,1e300,x\n")
    for argv, code, said in (
            (["project", train, "--mask", "4"], 2, "at least two active features in --mask"),
            (["project", str(big)], 1, "overflows")):
        capsys.readouterr()
        assert cli.main(argv + ["--out", str(coords)]) == code, argv
        assert said in capsys.readouterr().err
        assert {path: path.read_bytes() for path in before} == before
        assert sorted(p.name for p in coords.parent.iterdir()) == ["c.csv", "c.manifest.txt"]


@pytest.mark.filterwarnings("error")  # numpy's RuntimeWarnings raise
def test_project_refuses_an_svg_frame_that_overflows_before_writing(tmp_path, capsys):
    # finite features whose padded SVG frame passes the largest double: every
    # marker read cx="nan" with exit 0. Now a data error naming the overflow,
    # with no numpy warning, before an earlier run's files are touched
    out, svg = tmp_path / "p" / "c.csv", tmp_path / "p" / "s.svg"
    small = tmp_path / "small.csv"
    small.write_text("a,b,label\n0,0,x\n1,1,y\n")
    view = ["--pair", "0,1", "--out", str(out), "--svg", str(svg)]
    assert cli.main(["project", str(small)] + view) == 0
    capsys.readouterr()
    before = {path: path.read_bytes() for path in out.parent.iterdir()}
    assert len(before) == 3
    for rows in ("1e308,-1e308,x\n-1e308,1e308,y\n1e308,1e308,x\n", "0,0,x\n1.79e308,1,y\n"):
        big = tmp_path / "big.csv"
        big.write_text("a,b,label\n" + rows)
        assert cli.main(["project", str(big)] + view) == 1
        err = capsys.readouterr().err
        assert "x axis, padded" in err and "past the largest double" in err
        assert {path: path.read_bytes() for path in out.parent.iterdir()} == before
    # a constant axis at 1e20, where 1e20 +- 1.0 == 1e20, is drawn: finite
    flat = tmp_path / "flat.csv"
    flat.write_text("a,b,label\n1e20,0,x\n1e20,1,y\n1e20,2,x\n")
    assert cli.main(["project", str(flat)] + view) == 0
    text = (tmp_path / "p" / "s_pair_0_1.svg").read_text()
    assert text.count('cx="295.00"') == 3 and not re.findall(r"\b(?:nan|inf)\b", text)


@pytest.mark.filterwarnings("error")  # numpy's RuntimeWarnings raise
def test_normalize_names_a_scaling_overflow(tmp_path, capsys):
    # finite features read "features contain NaN or infinite values" after
    # three RuntimeWarnings: a span that overflows, and a value over a tiny span
    big, tiny, far = (tmp_path / name for name in ("big.csv", "tiny.csv", "far.csv"))
    big.write_text("a,b,label\n1e308,-1e308,x\n-1e308,1e308,y\n1e308,1e308,x\n")
    tiny.write_text("a,b,label\n0,0,x\n1e-300,1,y\n")
    far.write_text("a,b,label\n1e10,0,x\n")
    for train, test in ((big, big), (tiny, far)):
        assert cli.main(["eval", str(train), str(test), "--mask", "0,1", "--normalize"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "scaling feature 0 on the training bounds overflows a double" in captured.err
    out = tmp_path / "run"
    assert cli.main(["select", str(tiny), str(far), "--out-dir", str(out), "--normalize",
                     "--pop", "4", "--generations", "1"]) == 1
    assert "scaling feature 0" in capsys.readouterr().err
    assert not out.exists()


def test_one_active_feature_is_a_usage_error_for_the_pca_and_pair_all(data_dir, tmp_path,
                                                                      capsys):
    # the PCA exited 1 where --pair all exited 2 on the same mask
    train, out = str(data_dir / "train.csv"), str(tmp_path / "c.csv")
    for view in ([], ["--pair", "all"]):
        assert cli.main(["project", train, "--mask", "4", "--out", out] + view) == 2
        assert "at least two active features in --mask, got 4" in capsys.readouterr().err
    # explicit pairs do not draw from the mask, so it may have one feature
    assert cli.main(["project", train, "--mask", "4", "--pair", "1,4", "--out", out]) == 0
    capsys.readouterr()


def test_project_makes_the_svg_directory(data_dir, tmp_path, capsys):
    coords, svg = tmp_path / "coords.csv", tmp_path / "figs" / "s.svg"
    assert cli.main(["project", str(data_dir / "train.csv"), "--out", str(coords),
                     "--svg", str(svg)]) == 0
    capsys.readouterr()
    assert svg.read_text().startswith("<svg ")
    assert coords.with_suffix(".manifest.txt").exists()


def test_failed_project_leaves_no_manifest(data_dir, tmp_path, capsys):
    # a rerun that fails after writing new coordinates must not leave the
    # previous run's manifest beside them
    coords, svg = tmp_path / "coords.csv", tmp_path / "s.svg"
    argv = ["project", str(data_dir / "train.csv"), "--out", str(coords), "--svg", str(svg)]
    assert cli.main(argv) == 0
    svg.unlink()
    (svg / "blocker").mkdir(parents=True)  # the SVG cannot replace a directory
    assert cli.main(argv + ["--mask", "1,4"]) == 1
    capsys.readouterr()
    assert not coords.with_suffix(".manifest.txt").exists()
    assert _temp_files(tmp_path) == []


@pytest.mark.parametrize("under", ["", "run", "a/b"])
def test_an_artefact_path_under_a_file_is_refused_before_any_work(data_dir, monkeypatch,
                                                                  capsys, under):
    # the file in the way is named, nothing is loaded, generated or written,
    # and the file keeps its bytes
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("load_csv", "generate", "generate_pool", "evolve"):
        monkeypatch.setattr(cli, name, no_work)
    train, test = data_dir / "train.csv", data_dir / "test.csv"
    before = {path: path.read_bytes() for path in data_dir.iterdir()}
    out_dir = str(train / under) if under else str(train)
    for argv in (["select", str(train), str(test), "--out-dir", out_dir],
                 ["synth", "--out-dir", out_dir]):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{train} is a file" in captured.err, argv
        assert {path: path.read_bytes() for path in data_dir.iterdir()} == before
    monkeypatch.undo()  # project loads its dataset first, then refuses before writing
    assert cli.main(["project", str(train), "--out", str(Path(out_dir) / "c.csv")]) == 2
    assert f"{train} is a file" in capsys.readouterr().err
    assert {path: path.read_bytes() for path in data_dir.iterdir()} == before


def test_failed_select_leaves_no_summary_and_no_temp_file(data_dir, tmp_path, capsys,
                                                          monkeypatch):
    train, test = str(data_dir / "train.csv"), str(data_dir / "test.csv")
    out = tmp_path / "run"
    assert cli.main(["select", train, test, "--out-dir", str(out)] + SELECT_FLAGS) == 0
    previous_trace = (out / "trace.csv").read_bytes()

    def write_half_a_trace(trace, path):
        with atomic_write(path) as fh:
            fh.write("generation,best_fit")
            raise OSError("disk full")

    monkeypatch.setattr(cli, "write_trace", write_half_a_trace)
    assert cli.main(["select", train, test, "--out-dir", str(out)] + SELECT_FLAGS) == 1
    assert "disk full" in capsys.readouterr().err
    assert not (out / "summary.txt").exists()
    assert (out / "trace.csv").read_bytes() == previous_trace
    assert _temp_files(tmp_path) == []


def test_project_explicit_pairs(data_dir, tmp_path, capsys):
    out = tmp_path / "p.csv"
    code = cli.main(["project", str(data_dir / "train.csv"),
                     "--pair", "1,4", "--pair", "0,5", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    pair_a = tmp_path / "p_pair_1_4.csv"
    pair_b = tmp_path / "p_pair_0_5.csv"
    assert pair_a.exists() and pair_b.exists()
    header = pair_a.read_text().splitlines()[0]
    assert header == "sample_index,label_name,f1,f4"
    # raw feature pairs, not projections: values equal the dataset columns
    train = load_csv(data_dir / "train.csv")
    row0 = pair_a.read_text().splitlines()[1].split(",")
    assert float(row0[2]) == train.features[0, 1]
    assert float(row0[3]) == train.features[0, 4]


def test_project_pair_all_expands_mask_pairs(data_dir, tmp_path, capsys):
    out = tmp_path / "q.csv"
    code = cli.main(["project", str(data_dir / "train.csv"), "--mask", "0,1,4",
                     "--pair", "all", "--out", str(out), "--svg",
                     str(tmp_path / "q.svg")])
    assert code == 0
    capsys.readouterr()
    for a, b in ((0, 1), (0, 4), (1, 4)):
        assert (tmp_path / f"q_pair_{a}_{b}.csv").exists()
        assert (tmp_path / f"q_pair_{a}_{b}.svg").exists()
    manifest = read_manifest(out.with_suffix(".manifest.txt"))
    assert manifest["pairs"] == "0,1;0,4;1,4"


def test_project_pair_usage_errors(data_dir, tmp_path, capsys):
    train = str(data_dir / "train.csv")
    out = str(tmp_path / "x.csv")
    assert cli.main(["project", train, "--pair", "all", "--out", out]) == 2
    assert cli.main(["project", train, "--pair", "1", "--out", out]) == 2
    assert cli.main(["project", train, "--pair", "2,2", "--out", out]) == 2
    assert cli.main(["project", train, "--pair", "0,9", "--out", out]) == 2
    assert cli.main(["project", train, "--pair", "1,4,", "--out", out]) == 2
    assert cli.main(["project", train, "--pair", "07,1", "--out", out]) == 2
    # one active feature has no pair: the run would list no output at all
    assert cli.main(["project", train, "--mask", "1", "--pair", "all", "--out", out]) == 2
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]  # nothing written


def test_manifests_record_the_label_column_and_header_flags(data_dir, tmp_path, capsys):
    # a headerless copy of the pair with the label first, so that neither file
    # loads under the default flags
    bare = {}
    for name in ("train", "test"):
        d = load_csv(data_dir / f"{name}.csv")
        bare[name] = tmp_path / f"{name}_bare.csv"
        bare[name].write_text("".join(
            ",".join([d.classes[lab]] + [repr(float(v)) for v in row]) + "\n"
            for row, lab in zip(d.features, d.labels)))
    flags = ["--label-column", "0", "--no-header"]
    assert cli.main(["select", str(bare["train"]), str(bare["test"]), "--out-dir",
                     str(tmp_path / "run"), "--generations", "1", "--pop", "6"] + flags) == 0
    assert cli.main(["project", str(bare["train"]), "--out", str(tmp_path / "c.csv")]
                    + flags) == 0
    assert cli.main(["project", str(data_dir / "train.csv"),
                     "--out", str(tmp_path / "d.csv")]) == 0
    capsys.readouterr()
    for manifest in (tmp_path / "run" / "summary.txt", tmp_path / "c.manifest.txt"):
        pairs = read_manifest(manifest)
        assert (pairs["label_column"], pairs["has_header"]) == ("0", "false")
    pairs = read_manifest(tmp_path / "d.manifest.txt")
    assert (pairs["label_column"], pairs["has_header"]) == ("label", "true")


# ----------------------------------------------------------- replay from the manifest

OUTPUT_DESTS = {"out_dir", "out", "svg"}  # where a run writes, chosen anew by a replay
PATH_KEYS = {"train_file", "test_file", "outputs"}  # manifest entries naming outputs


def replay_argv(manifest):
    """The argv of a run rebuilt from its manifest alone: each parameter key
    is the dest of one action of the subcommand, and that action gives its
    flag. Every such dest must be in the manifest."""
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    argv = [manifest["command"]]
    for action in subparsers.choices[manifest["command"]]._actions:
        if action.dest == "help" or action.dest in OUTPUT_DESTS:
            continue
        assert action.dest in manifest, f"{action.dest} is not in the manifest"
        value, flag = manifest[action.dest], action.option_strings[:1]
        if value is None:
            continue
        if not flag:
            argv.append(value)
        elif isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
            argv += flag if value != cli._fmt(action.default) else []
        elif isinstance(action, argparse._AppendAction):
            for item in manifest_items(value):
                argv += flag + [item]
        else:
            argv += flag + [value]
    return argv


def assert_replays(tmp_path, argv, outputs, manifest_name, runs=("first", "second")):
    """Run ``argv`` with the output flags ``outputs(directory)`` into one fresh
    directory, check the input digests and output paths its manifest records,
    then run the argv rebuilt from that manifest into another. Every artefact
    must be the same bytes, and so must the manifest less its output paths.
    ``runs`` names the two directories. Returns the first manifest."""
    first, second = (tmp_path / name for name in runs)
    assert cli.main(argv + outputs(first)) == 0
    manifest = read_manifest(first / manifest_name)
    for key, digest in manifest.items():
        if key.endswith("_sha256"):
            source = Path(manifest[key.removesuffix("_sha256")])
            assert hashlib.sha256(source.read_bytes()).hexdigest() == digest, key
    written = [manifest[key] for key in ("train_file", "test_file") if key in manifest]
    for path in written + manifest_items(manifest.get("outputs", [])):
        assert Path(path).parent == first and Path(path).is_file(), path
    assert cli.main(replay_argv(manifest) + outputs(second)) == 0
    names = sorted(path.name for path in first.iterdir())
    assert names == sorted(path.name for path in second.iterdir())
    for name in names:
        if name != manifest_name:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def parameters_and_results(directory):
        lines = (directory / manifest_name).read_text().splitlines()
        return [line for line in lines if line.partition(" = ")[0] not in PATH_KEYS]

    assert parameters_and_results(first) == parameters_and_results(second)
    return manifest


def digest_keys(manifest):
    return {key for key in manifest if key.endswith("_sha256")}


@pytest.mark.parametrize("mode", [
    ["--train-per-class", "5", "--test-per-class", "2"],
    ["--class-sizes", "6,7,8", "--test-count", "6", "--stratified"],
], ids=["per_class", "pool_split"])
def test_synth_replays_from_its_manifest(tmp_path, capsys, mode):
    argv = ["synth", "--classes", "3", "--features", "6", "--informative", "1,4",
            "--separation", "3", "--noise-sd", "0.5", "--seed", "21"] + mode
    manifest = assert_replays(tmp_path, argv, lambda d: ["--out-dir", str(d)],
                              "manifest.txt")
    capsys.readouterr()
    assert digest_keys(manifest) == set()


def test_select_replays_from_its_manifest(data_dir, tmp_path, capsys):
    # headerless copies with the label first, read through --no-header and
    # --label-column 0
    bare = {}
    for name in ("train", "test"):
        d = load_csv(data_dir / f"{name}.csv")
        bare[name] = str(tmp_path / f"{name}_bare.csv")
        Path(bare[name]).write_text("".join(
            ",".join([d.classes[lab]] + [repr(float(v)) for v in row]) + "\n"
            for row, lab in zip(d.features, d.labels)))
    argv = ["select", bare["train"], bare["test"], "--holdout", bare["train"],
            "--no-header", "--label-column", "0", "--normalize", "--pop", "10",
            "--generations", "6", "--seed", "4", "--stall-generations", "4"]
    manifest = assert_replays(tmp_path, argv, lambda d: ["--out-dir", str(d)],
                              "summary.txt")
    capsys.readouterr()
    assert digest_keys(manifest) == {"train_sha256", "eval_sha256", "holdout_sha256"}
    assert (manifest["has_header"], manifest["holdout"]) == ("false", bare["train"])


@pytest.mark.parametrize("view, bits", [
    (["--mask", "MASK_FILE"], "010010"),
    (["--mask", "0,1,4", "--pair", "all", "--pair", "2,3"], "110010"),
], ids=["pca", "pairs"])
def test_project_replays_from_its_manifest(data_dir, tmp_path, capsys, view, bits):
    mask_file = tmp_path / "mask.txt"
    mask_file.write_text("1,4\n")
    argv = ["project", str(data_dir / "train.csv")] + [
        str(mask_file) if arg == "MASK_FILE" else arg for arg in view]
    manifest = assert_replays(
        tmp_path, argv, lambda d: ["--out", str(d / "c.csv"), "--svg", str(d / "s.svg")],
        "c.manifest.txt")
    capsys.readouterr()
    assert digest_keys(manifest) == {"dataset_sha256"}
    assert manifest["mask"] == bits  # resolved, even when --mask names a file


# ----------------------------------------------------------- errors & exit codes

def test_missing_file_is_a_data_error(capsys):
    assert cli.main(["eval", "no_such.csv", "also_missing.csv",
                     "--mask", "1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_ragged_csv_is_a_data_error(tmp_path, capsys):
    good = tmp_path / "good.csv"
    good.write_text("f0,f1,label\n1,2,a\n3,4,b\n")
    bad = tmp_path / "bad.csv"
    bad.write_text("f0,f1,label\n1,2,a\n3,4\n")
    assert cli.main(["eval", str(good), str(bad), "--mask", "0"]) == 1
    assert "row 3" in capsys.readouterr().err


@pytest.mark.parametrize("cell, name", [("1_000", "a"), ("\u0662", "a"),
                                        ("1", "a\x01b"), ("1", "a\nb")])
def test_lenient_numbers_and_control_characters_in_names_are_data_errors(
        tmp_path, capsys, cell, name):
    # float() reads both cells, as 1000.0 and 2.0; a name holding U+0001 made
    # an SVG that XML refuses, and one holding a line break split eval's one
    # line per sample
    path = tmp_path / "d.csv"
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            [["f0", "f1", "label"], [cell, "2", name], ["3", "4", "b"]])
    for argv in (["eval", str(path), str(path), "--mask", "0,1"],
                 ["project", str(path), "--pair", "0,1", "--out", str(tmp_path / "c.csv"),
                  "--svg", str(tmp_path / "s.svg")]):
        assert cli.main(argv) == 1, argv
        assert "error:" in capsys.readouterr().err, argv
    assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]


@pytest.mark.parametrize("cell, name", [("nan", "a"), ("1", "a\x01b")])
def test_a_data_error_from_building_a_dataset_names_its_file(data_dir, tmp_path, capsys,
                                                             cell, name):
    # the checks run when the loaded rows become a Dataset, after the reader
    # has left the file; its name must still reach the message
    bad = tmp_path / "bad.csv"
    with bad.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            [["f0", "f1", "label"], [cell, "2", name], ["3", "4", "b"]])
    good = tmp_path / "good.csv"
    good.write_text("f0,f1,label\n1,2,a\n3,4,b\n")
    for argv in (["eval", str(good), str(bad), "--mask", "0"],
                 ["eval", str(bad), str(good), "--mask", "0"]):
        assert cli.main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and str(good) not in err, argv


def test_unknown_label_column_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("f0,f1,label\n1,2,a\n3,4,b\n")
    assert cli.main(["eval", str(path), str(path), "--mask", "0",
                     "--label-column", "nope"]) == 1
    capsys.readouterr()


def test_bad_mask_is_a_usage_error(data_dir, tmp_path, capsys):
    train, test = str(data_dir / "train.csv"), str(data_dir / "test.csv")
    assert cli.main(["eval", train, test, "--mask", "frogs"]) == 2
    assert cli.main(["eval", train, test, "--mask", "9"]) == 2  # out of range
    garbled = tmp_path / "mask.txt"
    garbled.write_text("# comment only\n")
    assert cli.main(["eval", train, test, "--mask", str(garbled)]) == 2
    # a 0/1 string of the wrong length is no index list either: leading zeros
    # are rejected instead of read as "01" -> [1] or "0000111" -> [111]
    assert cli.main(["eval", train, test, "--mask", "01"]) == 2
    assert cli.main(["eval", train, test, "--mask", "0000111"]) == 2
    assert cli.main(["eval", train, test, "--mask", "1,,4"]) == 2
    # the one integer-list grammar: no spaces around the commas
    assert cli.main(["eval", train, test, "--mask", "1, 4"]) == 2
    # all zeros selects nothing, so it is no bit string; as an index list its
    # leading zeros make it a usage error rather than an empty-mask data error
    assert cli.main(["eval", train, test, "--mask", "000000"]) == 2
    capsys.readouterr()


def test_a_repeated_mask_index_is_a_usage_error_naming_it(data_dir, tmp_path, capsys):
    # FeatureMask.from_indices would merge the repeat, and the run would
    # silently score fewer features than the list names
    train, test = str(data_dir / "train.csv"), str(data_dir / "test.csv")
    mask_file = tmp_path / "mask.txt"
    mask_file.write_text("# repeats feature 1\n1,4,1\n")
    coords = tmp_path / "coords.csv"
    for argv, repeated in (
            (["eval", train, test, "--mask", "1,4,4"], "4"),
            (["eval", train, test, "--mask", "4,1,4,1"], "1,4"),
            (["eval", train, test, "--mask", str(mask_file)], "1"),
            (["project", train, "--mask", "4,1,4", "--out", str(coords)], "4")):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"names feature index {repeated} more than once" in captured.err, argv
    assert not coords.exists()


def test_mask_text_that_also_names_a_file_is_ambiguous(data_dir, tmp_path,
                                                       monkeypatch, capsys):
    train, test = str(data_dir / "train.csv"), str(data_dir / "test.csv")
    monkeypatch.chdir(tmp_path)
    Path("4").write_text("0,1\n")
    assert cli.main(["eval", train, test, "--mask", "4"]) == 2
    err = capsys.readouterr().err
    assert "ambiguous" in err and "features 4" in err and "./4" in err
    assert cli.main(["eval", train, test, "--mask", "./4"]) == 0
    assert stdout_field(capsys, "active_features") == "0,1"


def test_mask_text_naming_no_file_leaves_project_free_to_write_that_name(
        data_dir, tmp_path, monkeypatch, capsys):
    # only a mask read from a file is one of project's inputs
    monkeypatch.chdir(tmp_path)
    assert cli.main(["project", str(data_dir / "train.csv"), "--mask", "1,4",
                     "--out", "1,4"]) == 0
    assert Path("1,4").read_text().startswith("sample_index,label_name,pc1,pc2\n")
    capsys.readouterr()


def test_closed_stdout_exits_141_without_a_message(data_dir):
    env = _cli_env()
    env.pop("PYTHONUNBUFFERED", None)
    # buffered, the closed pipe shows at the final flush; with -u, at a print
    for flags in ([], ["-u"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "evoknn.cli", "eval",
                 str(data_dir / "train.csv"), str(data_dir / "test.csv"), "--mask", "1,4"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b""), flags


@st.composite
def masks(draw):
    length = draw(st.integers(1, 130))
    active = draw(st.sets(st.integers(0, length - 1), min_size=1))
    return FeatureMask.from_indices(sorted(active), length)


@settings(derandomize=True, database=None)
@example(FeatureMask.from_string("1"))  # its index form "0" is also a 0/1 string of length L
@given(masks())
def test_mask_text_forms_parse_back_to_the_same_mask(mask):
    for text in (mask.to_string(), mask.to_index_string()):
        assert cli._parse_mask(text, mask.length) == mask


def written_plain(value):
    """The README's plain rule: text that is printable, has no edge
    whitespace, starts with neither ``"`` nor ``[`` and spells none of
    ``none``/``true``/``false``, or a list of items holding no ``;`` whose
    ``;``-join is such text."""
    text = ";".join(value) if isinstance(value, list) else value
    return (text.isprintable() and text == text.strip() and not text.startswith(('"', '['))
            and text not in ("none", "true", "false")
            and not (isinstance(value, list) and any(";" in item for item in value)))


@settings(derandomize=True, database=None)
@example("a\nb")
@example(" sp/train.csv")
@example("none")
@example("[x")
@example("\u2028")
@example("x\udcff")  # a non-UTF-8 byte in a POSIX path, as os.fsdecode reads it
@example(["o;x.csv", "p;q.svg"])
@example(["none"])
@example([""])
@given(st.text() | st.lists(st.text(), min_size=1))
def test_a_manifest_line_reads_back_as_its_value(value):
    lines = f"key = {cli._fmt(value)}\n".splitlines()
    assert len(lines) == 1
    lines[0].encode("utf-8")  # as the manifest file is written
    text = lines[0].partition(" = ")[2]
    read = manifest_value(text)
    assert (manifest_items(read) if isinstance(value, list) else read) == value
    if written_plain(value):
        assert text == (";".join(value) if isinstance(value, list) else value)
    else:
        assert text == json.dumps(value)


def test_a_numpy_float_reads_as_a_python_float_in_every_report(data_dir, tmp_path,
                                                              monkeypatch, capsys):
    # repr(np.float64(28.2)) is "np.float64(28.2)" in numpy 2; every manifest,
    # stdout report and CSV cell writes 28.2
    def numpy_fitness(search):
        def wrapper(*args, **kwargs):
            best, *rest = search(*args, **kwargs)
            return (best._replace(fitness=np.float64(28.2)), *rest)
        return wrapper

    def numpy_rate(*args, **kwargs):
        hits, _, predicted = recognition_rate(*args, **kwargs)
        return hits, np.float64(28.2), predicted

    for name in ("evolve", "exhaustive_best"):
        monkeypatch.setattr(cli, name, numpy_fitness(getattr(cli, name)))
    monkeypatch.setattr(cli, "recognition_rate", numpy_rate)
    train, test = str(data_dir / "train.csv"), str(data_dir / "test.csv")
    out = tmp_path / "run"
    assert cli.main(["select", train, test, "--out-dir", str(out), "--pop", "6",
                     "--generations", "2"]) == 0
    assert stdout_field(capsys, "best_fitness") == "28.2"
    assert read_manifest(out / "summary.txt")["best_fitness"] == "28.2"
    assert cli.main(["oracle", train, test]) == 0
    assert stdout_field(capsys, "best_fitness") == "28.2"
    assert cli.main(["eval", train, test, "--mask", "1,4"]) == 0
    assert stdout_field(capsys, "rate") == "28.2"
    write_rows(tmp_path / "cells.csv", ["x"], [[np.float64(28.2)]])
    assert (tmp_path / "cells.csv").read_text() == "x\n28.2\n"


def test_bad_flag_values_are_usage_errors(data_dir, tmp_path, capsys):
    # checked once after loading, before any work: the training set has 24 rows
    train, test = str(data_dir / "train.csv"), str(data_dir / "test.csv")
    for argv in (["eval", train, test, "--mask", "1,4", "--k", "999"],
                 ["oracle", train, test, "--k", "0"],
                 ["select", train, test, "--out-dir", str(tmp_path / "run"), "--pop", "0"]):
        assert cli.main(argv) == 2, argv
        assert "usage error:" in capsys.readouterr().err


def test_feature_count_mismatch_is_a_data_error_before_any_work(data_dir, tmp_path, capsys):
    # every file must have the training set's 6 features; the check names the
    # odd file and runs before the GA, so select leaves no artefact behind
    other = tmp_path / "other"
    assert cli.main(["synth", "--out-dir", str(other), "--classes", "3",
                     "--features", "4", "--informative", "1",
                     "--train-per-class", "3", "--test-per-class", "2"]) == 0
    train, test = str(data_dir / "train.csv"), str(data_dir / "test.csv")
    wrong = str(other / "test.csv")
    run = tmp_path / "run"
    for argv in (["eval", train, wrong, "--mask", "1,4"],
                 ["select", train, wrong, "--out-dir", str(run)] + SELECT_FLAGS,
                 ["select", train, test, "--holdout", wrong, "--out-dir", str(run)]
                 + SELECT_FLAGS,
                 ["oracle", train, wrong]):
        capsys.readouterr()
        assert cli.main(argv) == 1, argv
        assert wrong in capsys.readouterr().err, argv
        assert list(run.glob("*")) == [], argv


@pytest.mark.parametrize("flag", ["train", "eval", "--holdout", "dataset", "--label-column"])
def test_input_path_with_a_line_break_replays_from_its_manifest(
        data_dir, tmp_path, monkeypatch, capsys, flag):
    # an echoed input path or label column that a plain `key = value` line
    # cannot hold (a line break, edge spaces, a `;`, a name that reads as none
    # or true) is written as JSON: it reads back as itself, and the run
    # replays from its manifest
    odd = {"train": "tr\nain.csv", "eval": "none", "--holdout": " hold;out.csv ",
           "dataset": "true", "--label-column": "none"}[flag]
    inputs = tmp_path / "in"
    inputs.mkdir()
    monkeypatch.chdir(inputs)
    for name in ("train", "test"):
        text = (data_dir / f"{name}.csv").read_text()
        if flag == "--label-column":
            text = text.replace(",label\n", ",none\n", 1)
        Path(f"{name}.csv").write_text(text)
    paths = {"train": "train.csv", "eval": "test.csv", "--holdout": "test.csv",
             "dataset": "train.csv"}
    if flag in paths:
        Path(odd).write_bytes(Path(paths[flag]).read_bytes())
        paths[flag] = odd
    label = ["--label-column", odd] if flag == "--label-column" else []
    runs = []
    if flag != "dataset":
        runs.append((["select", paths["train"], paths["eval"], "--holdout", paths["--holdout"]]
                     + SELECT_FLAGS + label, lambda d: ["--out-dir", str(d)], "summary.txt"))
    if flag in ("dataset", "--label-column"):
        runs.append((["project", paths["dataset"]] + label,
                     lambda d: ["--out", str(d / "c.csv")], "c.manifest.txt"))
    for argv, outputs, manifest_name in runs:
        manifest = assert_replays(tmp_path, argv, outputs, manifest_name,
                                  runs=(f"{argv[0]}1", f"{argv[0]}2"))
        assert manifest[flag.lstrip("-").replace("-", "_")] == odd
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["--out-dir", "--out", "--svg"])
def test_output_path_with_a_line_break_replays_from_its_manifest(
        data_dir, tmp_path, capsys, flag):
    # synth echoes its out dir into the manifest's train_file and test_file,
    # project its outputs into `outputs`: a line break, a `;` or a leading
    # space there is written as JSON, so each output path reads back as
    # itself (assert_replays finds every one) and the run replays
    if flag == "--out-dir":
        argv = ["synth", "--classes", "2", "--features", "3", "--informative", "1",
                "--train-per-class", "3", "--test-per-class", "2"]
        manifest = assert_replays(tmp_path, argv, lambda d: ["--out-dir", str(d)],
                                  "manifest.txt", runs=(" a;\nrun", " b;\nrun"))
        assert manifest["train_file"] == str(tmp_path / " a;\nrun" / "train.csv")
    else:
        # `--out o;x.csv --svg p;q.svg` once read back as four outputs
        names = {"--out": ["o;x.csv", "p;q.svg"], "--svg": ["c.csv", " sc;\natter.svg"]}[flag]
        view = ["--pair", "1,4"] if flag == "--svg" else []
        manifest = assert_replays(
            tmp_path, ["project", str(data_dir / "train.csv")] + view,
            lambda d: ["--out", str(d / names[0]), "--svg", str(d / names[1])],
            Path(names[0]).stem + ".manifest.txt")
        assert len(manifest["outputs"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["synth", "--out-dir=--"],
    ["select", "{train}", "{test}", "--out-dir", "{run}", "--seed=--"],
    ["eval", "{train}", "{test}", "--mask=--"],
    ["eval", "{train}", "{test}", "--mask", "1", "--k=--"],
    ["project", "{train}", "--out", "{run}/coords.csv", "--pair=--"],
    ["oracle", "{train}", "{test}", "--alpha=--"],
])
def test_a_flag_given_equals_dashes_is_a_usage_error_before_any_write(
        data_dir, tmp_path, monkeypatch, capsys, argv):
    # argparse 3.11 parses a single-valued `--flag=--` to [] ([[]] for the
    # appended --pair): synth, eval, project and oracle crashed on it, and
    # select wrote `seed = `, which does not replay.  A later argparse keeps
    # the text `--`, and refuses it itself where the flag takes a number.
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    run = tmp_path / "run"
    argv = [arg.format(train=data_dir / "train.csv", test=data_dir / "test.csv", run=run)
            for arg in argv]
    flag = next(arg for arg in argv if arg.endswith("=--"))[: -len("=--")]
    capsys.readouterr()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2
    assert flag in err and "Traceback" not in err
    assert out == "" and list(work.iterdir()) == [] and not run.exists()


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_no_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    # the SVG over the coordinates, the manifest over the SVG, and the
    # coordinates over the input
    ["project", "{train}", "--out", "{run}/p.out", "--svg", "{run}/p.out"],
    ["project", "{train}", "--out", "{run}/q.csv", "--svg", "{run}/q.manifest.txt"],
    ["project", "{train}", "--out", "{train}"],
    ["project", "{train}", "--out", "{run}/../data/train.csv", "--mask", "1,4"],
    # a repeated pair writes its CSV twice, and a pair's SVG named like its CSV
    ["project", "{train}", "--out", "{run}/r.csv", "--pair", "1,4", "--pair", "1,4"],
    ["project", "{train}", "--out", "{run}/r.csv", "--pair", "1,4", "--svg", "{run}/r.csv"],
    # select's trace, best mask and summary over its train, eval or holdout file
    ["select", "{data}/trace.csv", "{test}", "--out-dir", "{data}"],
    ["select", "{train}", "{data}/best_mask.txt", "--out-dir", "{data}"],
    ["select", "{train}", "{test}", "--holdout", "{data}/summary.txt", "--out-dir", "{data}"],
    # the coordinates or the SVG over the mask file that --mask read
    ["project", "{train}", "--mask", "{run}/m.txt", "--out", "{run}/m.txt"],
    ["project", "{train}", "--mask", "{run}/m.txt", "--out", "{run}/c.csv",
     "--svg", "{run}/m.txt"],
])
def test_an_artefact_path_that_overwrites_another_file_is_a_usage_error(
        data_dir, tmp_path, capsys, argv):
    # each of these exited 0, leaving a file destroyed and a manifest that
    # lists or hashes what is no longer there
    for name in ("trace.csv", "best_mask.txt", "summary.txt"):
        (data_dir / name).write_bytes((data_dir / "train.csv").read_bytes())
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "m.txt").write_text("1,4\n")
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    argv = [arg.format(train=data_dir / "train.csv", test=data_dir / "test.csv",
                       data=data_dir, run=tmp_path / "run") for arg in argv]
    argv += SELECT_FLAGS if argv[0] == "select" else []
    assert cli.main(argv) == 2
    assert "usage error: artefact" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
