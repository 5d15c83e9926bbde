"""End-to-end and per-layer benchmark of the fairaudit CLI.

One workload per process, one closed-loop client: each ``run_cli`` call
starts after the previous one returns.  A run repeats the workload's CLI
session ("pass") until the next pass would overrun ``--seconds``, with at
least two passes.  Wall times are minima over repeats: ``total_s`` sums,
over the session's calls, each call's fastest pass, and ``setup_s`` is the
fastest set-up.  On a shared host, other tenants slow a CPU-bound call for
tens of seconds at a time, by up to half; the median of repeats follows that
contention, and the fastest repeat moves much less.

    python3 perfbench/run.py --workload onehot_trees --seed 1 --seconds 40 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured
with no tracing.  ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics: self time (fastest traced pass), calls and
work counts per layer (see ``spans.py``), untraced wall time per
subcommand, and the tracing overhead.  Human-readable details go to
stdout before the last line, which is one JSON object; the full record,
with the environment and the sha256 of every report, goes to
``.perfbench/results/``.

A call fails when it exits non-zero, when its report breaks an invariant
(``checks.py``) or when its report differs from the same call in the first
pass.  At ``--seed 0`` the digests are also compared with
``perfbench/digests.json``, the reports this commit produced; differences
are printed, not counted as failures.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
REFERENCE_DIGESTS = os.path.join(HERE, "digests.json")

DEFAULT_SEED = 0
# Set-ups run before the first pass; one more follows every pass, so the
# fastest set-up is taken over the whole run, not over a few seconds.
SETUP_FIRST = 3
SETUP_TIMEOUT_S = 60
MIN_PASSES = 2
SUBCOMMANDS = ("audit", "decompose", "curves", "noise", "test", "subgroups")
MODULES = ("cli", "costs", "curves", "data", "decomposition", "kernels",
           "learners", "noise_bounds", "report", "stats", "subgroups")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def environment(kernels) -> dict:
    import numpy as np

    numba_importable = importlib.util.find_spec("numba") is not None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = None
    env = {
        "kernel_path": "numba" if kernels.USE_NUMBA else "fallback",
        "kernels.USE_NUMBA": bool(kernels.USE_NUMBA),
        "numba_importable": numba_importable,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
    }
    if not numba_importable:
        env["unchecked"] = [
            "README: numba kernels 'roughly 35x faster' than the fallback; "
            "numba cannot be imported here, so the compiled path is not timed",
            "tests/test_kernels.py::test_fallback_matches_numba_path compares "
            "the fallback with itself when numba is absent, so it checks "
            "nothing about the compiled path",
        ]
    return env


def run_setup(workload: str, seed: int, directory: str) -> float:
    """Time one fresh interpreter that imports fairaudit.cli and generates
    the inputs into ``directory``."""
    argv = [sys.executable, os.path.join(HERE, "workloads.py"),
            "--workload", workload, "--seed", str(seed), "--dir", directory]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.DEVNULL) as proc:
        # A blocking wait returns as soon as the child exits; a wait
        # with a timeout polls in steps of up to 50 ms.
        timer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
    seconds = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"set-up exited with {code}: {' '.join(argv)}")
    return seconds


def run_pass(cli, calls, pass_dir, reference, checks) -> dict:
    """One closed-loop session; records wall time, failures and digests."""
    record = {"total_s": 0.0, "by_call": {}, "by_command": {},
              "report_bytes": 0, "failed": 0, "problems": {}, "digests": {}}
    for label, argv in calls:
        out = os.path.join(pass_dir, label)
        start = time.perf_counter()
        try:
            code = cli.run_cli(argv + ["--out", out])
        except Exception:  # a traceback is a failed call, not a crash
            traceback.print_exc()
            code = "exception"
        wall = time.perf_counter() - start
        command = label.split(".")[0]
        record["total_s"] += wall
        record["by_call"][label] = wall
        record["by_command"][command] = record["by_command"].get(command, 0.0) + wall
        problems = checks.check_output(out) if code == 0 else [f"exit code {code}"]
        digests = checks.digests(out)
        if label in reference and digests != reference[label]:
            problems.append("report differs from the first pass")
        reference.setdefault(label, digests)
        record["digests"][label] = digests
        record["report_bytes"] += checks.output_bytes(out)
        if problems:
            record["failed"] += 1
            record["problems"][label] = problems
        shutil.rmtree(out, ignore_errors=True)
    return record


def compare_reference(workload: str, digests: dict) -> list:
    """Labels whose digests differ from perfbench/digests.json."""
    try:
        with open(REFERENCE_DIGESTS, "r", encoding="utf-8") as fh:
            reference = json.load(fh).get(workload)
    except FileNotFoundError:
        reference = None
    if reference is None:
        return ["<no reference digests for this workload>"]
    labels = sorted(set(reference) | set(digests))
    return [label for label in labels if reference.get(label) != digests.get(label)]


def fastest_session(passes, command=None) -> float:
    """Sum over the session's calls (of one subcommand, if given) of each
    call's fastest wall time across ``passes``."""
    return sum(
        min(p["by_call"][label] for p in passes)
        for label in passes[0]["by_call"]
        if command is None or label.split(".")[0] == command
    )


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far.  It is reported after
    the first pass, as one session in a fresh process would reach it: later
    passes fragment the heap, and by how much changed from run to run of
    the same code and seed by about 10 MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def declared_metrics(trace: bool) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def measure(args, modules, work) -> tuple:
    from spans import Tracer
    import checks
    import workloads

    cli = modules["cli"]
    setup_times, setup_dirs = [], []

    def setup():
        directory = os.path.join(work, f"setup{len(setup_dirs)}")
        setup_times.append(run_setup(args.workload, args.seed, directory))
        setup_dirs.append(directory)

    for _ in range(SETUP_FIRST):
        setup()
    inputs = workloads.input_paths(setup_dirs[0])
    calls = workloads.session(args.workload, args.seed, inputs)

    reference, passes, missing = {}, [], set()
    start = time.perf_counter()
    while True:
        traced = args.trace and len(passes) % 2 == 1
        tracer = Tracer().install(modules) if traced else None
        try:
            record = run_pass(cli, calls, os.path.join(work, f"pass{len(passes)}"),
                              reference, checks)
        finally:
            if tracer is not None:
                tracer.uninstall()
        record["traced"] = bool(traced)
        if tracer is not None:
            record["layers"] = tracer.layer_metrics()
            record["absent_bindings"] = tracer.absent
            missing.update(tracer.missing_calls(args.workload))
        record["peak_rss_mb"] = peak_rss_mb()
        passes.append(record)
        setup()
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["total_s"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > args.seconds:
            break

    input_digests = [checks.digests(d, workloads.INPUT_FILES) for d in setup_dirs]
    problems = []
    if any(d != input_digests[0] for d in input_digests):
        problems.append("set-up produced different inputs for the same seed")
    if missing:
        problems.append("a traced pass recorded zero calls on expected "
                        "bindings: " + ", ".join(sorted(missing)))
    untraced = [p for p in passes if not p["traced"]]
    values = {
        "total_s": fastest_session(untraced),
        "setup_s": min(setup_times),
        "peak_rss_mb": passes[0]["peak_rss_mb"],
    }
    if args.trace:
        traced_passes = [p for p in passes if p["traced"]]
        # Counts repeat exactly across passes; times take the fastest, as
        # total_s does, so self times compare with total_s.
        for name in traced_passes[0]["layers"]:
            values[name] = min(p["layers"][name] for p in traced_passes)
        values["report.bytes"] = min(p["report_bytes"] for p in traced_passes)
        for command in SUBCOMMANDS:
            values[f"cli.{command}.wall_s"] = fastest_session(untraced, command)
        values["trace.overhead_ratio"] = (
            fastest_session(traced_passes) / values["total_s"] - 1.0
        )
    return values, passes, setup_times, input_digests[0], problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "fairaudit", "cli.py")):
        print(f"perfbench: no fairaudit sources under {SRC}; run from the "
              "root of a fairaudit checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    import fairaudit

    if os.path.dirname(os.path.abspath(fairaudit.__file__)) != os.path.join(SRC, "fairaudit"):
        print(f"perfbench: imported fairaudit from {fairaudit.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    modules = {
        name: importlib.import_module(f"fairaudit.{name}") for name in MODULES
    }

    # Reports echo the --data and --schema paths, so the inputs sit at the
    # same relative path in every run and every checkout; otherwise report
    # digests could not be compared across runs.
    os.chdir(ROOT)
    work = os.path.relpath(
        os.path.join(STATE, "work", f"{args.workload}-seed{args.seed}"), ROOT
    )
    shutil.rmtree(work, ignore_errors=True)
    try:
        values, passes, setup_times, input_digests, problems = measure(
            args, modules, work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(p["digests"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    first_digests = passes[0]["digests"]
    env = environment(modules["kernels"])
    results = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "setup_s": setup_times,
        "input_digests": input_digests,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "problems": problems,
        "digests": first_digests,
        "passes": passes,
        "values": values,
    }
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    results_path = os.path.join(
        STATE, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    for i, p in enumerate(passes):
        by_command = " ".join(f"{k}={v:.3f}s" for k, v in p["by_command"].items())
        print(f"pass {i} {'traced' if p['traced'] else 'untraced'}: "
              f"total={p['total_s']:.3f}s {by_command} failed={p['failed']}")
        for label, found in p["problems"].items():
            print(f"  {label}: {'; '.join(found)}")
    print(f"setup_s per repeat: {' '.join(f'{t:.3f}' for t in setup_times)}")
    print(f"fail_ratio: {failed}/{attempted}")
    if args.seed == DEFAULT_SEED:
        differing = compare_reference(args.workload, first_digests)
        print("reports differing from perfbench/digests.json: "
              + (", ".join(differing) if differing else "none"))
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(f"results: {os.path.relpath(results_path, ROOT)}")

    correct = failed == 0 and not problems
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared_metrics(bool(args.trace))
    }
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
