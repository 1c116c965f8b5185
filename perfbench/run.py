"""evoknn benchmark: time to solution for select, oracle and synth->project.

One run is one fresh Python process acting as a closed-loop single client:
it solves problems of one workload back to back, each operation starting
when the previous one returned, while one more problem of typical length
still fits in ``--seconds``.  Problem 0 uses ``--seed`` itself; problem
i > 0 uses a seed derived from (--seed, i).  The program is driven only
through ``evoknn.cli.main`` on generated CSVs, and every output is
recounted independently (see reference.py).

    python3 perfbench/run.py --workload select-ref --seed 12957 --seconds 60 --trace 0
    python3 perfbench/run.py --all --seed 1547

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs every
problem twice, untraced and traced in alternating order, and reports the
per-layer metrics from the traced operation plus the tracing overhead.  The
last line of standard output is one JSON object (correct, attempted,
failed, metrics); the line before it, prefixed ``detail``, holds counters,
replay digests, every per-layer metric and the machine facts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from spans import CallCounter, Tracer, run_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")  # relative to ROOT, so artefact paths replay byte for byte
SETUP_REPEATS = 5

UNITS = {"wall_s": "s", "solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
         "masks_per_s": "1/s", "error_rate": "failed/attempted"}


def problem_seed(seed: int, i: int) -> int:
    if i == 0:
        return seed
    digest = hashlib.sha256(f"{seed}:{i}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def source_digest() -> str:
    """Identity of the program and the benchmark, for the cross-run replay ledger."""
    h = hashlib.sha256()
    for tree in (SRC, Path(__file__).resolve().parent):
        for path in sorted(tree.rglob("*.py")):
            if "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_facts() -> dict:
    import numpy

    facts = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
             "host": "shared: other tenants' load varies during a run",
             "python": platform.python_version(), "numpy": numpy.__version__}
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        lscpu = ""
    for line in lscpu.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("Model name", "L2 cache", "L3 cache"):
            facts[key.strip().lower().replace(" ", "_")] = value.strip()
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    facts["blas_threads"] = _blas_threads()
    return facts


def _blas_threads():
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run one evoknn command in-process; (exit code, stdout, stderr)."""
    from evoknn import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation, not a failed run
            traceback.print_exc(file=err)
            code = -1
    return code, out.getvalue(), err.getvalue()


def solve(workload, seed: int, d: Path, tracer=None, op: int = 0) -> dict:
    """Set up, time and verify one problem; the record of the operation.

    A tracer also sees the untimed set-up, so input generation shows up in
    the synth and dataset layers.
    """
    shutil.rmtree(d, ignore_errors=True)
    counter = CallCounter()
    stdouts, steps_s, errors = [], [], []
    with contextlib.ExitStack() as hooks:
        hooks.enter_context(counter.installed())
        if tracer is not None:
            tracer.op = op
            hooks.enter_context(tracer.installed())
        code, _, err = workload.setup(call_cli, seed, d)
        if code != 0:
            errors.append(f"set-up exited {code}: {err.strip()[-400:]}")
        for argv in workload.steps(seed, d) if not errors else ():
            started = perf_counter()
            if tracer is not None:
                with tracer.span("cli", argv[0]):
                    code, out, err = call_cli(argv)
            else:
                code, out, err = call_cli(argv)
            steps_s.append(perf_counter() - started)
            stdouts.append(out)
            if code != 0:
                errors.append(f"evoknn {argv[0]} exited {code}: {err.strip()[-400:]}")
                break
    record = {"seed": seed, "traced": tracer is not None, "wall_s": sum(steps_s),
              "steps_s": steps_s, "counts": {}, "digests": {}, "masks": None, "errors": errors}
    if not errors:
        try:
            outcome = workload.verify(seed, d, stdouts, counter.calls)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            errors.append(f"output check could not run: {exc!r}")
        else:
            errors += outcome.errors
            record.update(counts=outcome.counts, digests=outcome.digests, masks=outcome.masks)
    shutil.rmtree(d, ignore_errors=True)
    return record


def measure_setup(workload_name: str, seed: int) -> list[float]:
    """Process start through import and input generation, in fresh processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        started = perf_counter()
        with subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                               "--workload", workload_name, "--seed", str(seed), "--setup-only"],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            ready = child.stdout.readline().strip()
            elapsed = perf_counter() - started
            child.stdout.read()
            if child.wait(timeout=120) != 0 or ready != "ready":
                raise RuntimeError(f"set-up process failed (exit {child.returncode})")
        times.append(elapsed)
    return times


class Ledger:
    """Digests and counters per problem, compared across runs of the same code."""

    def __init__(self, path: Path):
        self.path = path
        self.source = source_digest()
        try:
            saved = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            saved = {}
        self.entries = saved.get("entries", {}) if saved.get("source") == self.source else {}

    def check(self, workload: str, record: dict) -> None:
        if record["errors"]:
            return
        key = f"{workload}/{record['seed']}"
        seen = {"counts": record["counts"], "digests": record["digests"]}
        if key in self.entries and self.entries[key] != seen:
            record["errors"].append(f"replay differs from an earlier run of this code: {key}")
        self.entries.setdefault(key, seen)

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"source": self.source, "entries": self.entries}),
                       encoding="utf-8")
        os.replace(tmp, self.path)


def run(workload_name: str, seed: int, seconds: float, traced: bool) -> dict:
    workload = WORKLOADS[workload_name]
    WORK.mkdir(exist_ok=True)
    ledger = Ledger(WORK / "replay.json")
    setup_times = measure_setup(workload_name, seed)
    d = WORK / workload_name / "problem"
    tracer = Tracer() if traced else None
    problems, traced_ops, overheads, ops = [], {}, [], []
    window = perf_counter()
    i, laps = 0, []
    # start another problem only if one more typical lap still fits the window
    while i == 0 or perf_counter() - window + statistics.median(laps) <= seconds:
        lap = perf_counter()
        p = problem_seed(seed, i)
        if not traced:
            record = solve(workload, p, d)
            ledger.check(workload_name, record)
            ops.append(record)
        else:
            # alternate which side goes first so drift cancels in the overhead
            order = (False, True) if i % 2 == 0 else (True, False)
            pair = {}
            for with_trace in order:
                pair[with_trace] = solve(workload, p, d, tracer if with_trace else None, op=i)
            plain, record = pair[False], pair[True]
            for r in (plain, record):
                ledger.check(workload_name, r)
            if not plain["errors"] and not record["errors"] and plain["digests"] != record["digests"]:
                record["errors"].append("tracing changed the outputs")
            ops += [plain, record]
            if not record["errors"]:
                traced_ops[i] = record["wall_s"]
                overheads.append(record["wall_s"] - plain["wall_s"])
        problems.append(p)
        laps.append(perf_counter() - lap)
        i += 1
    ledger.save()

    failed = sum(1 for r in ops if r["errors"])
    timed = [r for r in ops if not r["errors"] and not r["traced"]]
    masked = [r for r in timed if r["masks"]]
    end_to_end = {
        "wall_s": workload.wall(timed) if timed else None,
        "solve_s": statistics.median(r["wall_s"] for r in timed) if timed else None,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "masks_per_s": (sum(r["masks"] for r in masked) / sum(r["wall_s"] for r in masked)
                        if masked else None),
        "error_rate": failed / len(ops),
    }
    detail = {"workload": workload_name, "seed": seed, "trace": int(traced),
              "problems": problems, "end_to_end": end_to_end, "setup_runs_s": setup_times,
              "ops": ops, "machine": machine_facts()}
    if traced:
        layers = run_metrics(tracer.spans, traced_ops)
        layers["trace_overhead_s"] = statistics.median(overheads) if overheads else None
        detail["per_layer"] = layers
        tracer.write_csv(WORK / "spans" / f"{workload_name}-seed{seed}.csv")
    # the result line carries exactly the metrics BENCHMARK.json lists for this mode
    listed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    values = detail["per_layer"] if traced else end_to_end
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
               for m in listed["per_layer" if traced else "end_to_end"]}
    return {"detail": detail,
            "result": {"correct": failed == 0, "attempted": len(ops), "failed": failed,
                       "metrics": metrics}}


def print_run(out: dict) -> None:
    detail = out["detail"]
    print(f"workload {detail['workload']}  seed {detail['seed']}  trace {detail['trace']}  "
          f"problems {len(detail['problems'])}")
    for key, value in detail["end_to_end"].items():
        print(f"  {key} = {_fmt(value)} {UNITS[key]}")
    for key, value in detail.get("per_layer", {}).items():
        print(f"  {key} = {_fmt(value)}")
    for op in detail["ops"]:
        for error in op["errors"]:
            print(f"  FAILED problem {op['seed']}: {error}")
    print("detail " + json.dumps(detail))
    print(json.dumps(out["result"]))


def _fmt(value) -> str:
    return "null" if value is None else f"{value:.6g}"


def run_all(seed: int, seconds: float, out_path: Path) -> int:
    """Every workload, untraced then traced, each run in a fresh process."""
    results = {"seed": seed, "seconds": seconds, "workloads": {}}
    for name in WORKLOADS:
        entry = results["workloads"][name] = {}
        for trace in (0, 1):
            proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                   "--workload", name, "--seed", str(seed),
                                   "--seconds", str(seconds), "--trace", str(trace)],
                                  cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("detail "):
                print(f"{name} trace {trace}: run failed (exit {proc.returncode})\n{proc.stderr}")
                return 1
            detail = json.loads(lines[-2][len("detail "):])
            result = json.loads(lines[-1])
            results["machine"] = detail.pop("machine")
            entry["traced" if trace else "untraced"] = {"result": result, "detail": detail}
        untraced = entry["untraced"]["detail"]["end_to_end"]
        layers = entry["traced"]["detail"]["per_layer"]
        print(f"{name}:")
        for key, value in untraced.items():
            print(f"  {key:<24} {_fmt(value):>12} {UNITS[key]}")
        for key, value in layers.items():
            print(f"  {key:<24} {_fmt(value):>12}")
    print("machine: " + json.dumps(results["machine"]))
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out_path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=12957)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced; write --out")
    parser.add_argument("--out", type=Path, default=WORK / "results.json")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "evoknn" / "__init__.py").is_file():
        print(f"error: no evoknn sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import evoknn

    if Path(evoknn.__file__).resolve().parent != SRC / "evoknn":
        print(f"error: imported evoknn from {evoknn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seed, args.seconds, args.out)
    if args.workload is None:
        parser.error("--workload is required unless --all is given")
    if args.setup_only:
        d = WORK / args.workload / "setup"
        shutil.rmtree(d, ignore_errors=True)
        code, _, err = WORKLOADS[args.workload].setup(call_cli, args.seed, d)
        if code != 0:
            print(err, file=sys.stderr)
            return 1
        print("ready", flush=True)
        shutil.rmtree(d, ignore_errors=True)
        return 0
    print_run(run(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
