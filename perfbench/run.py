"""Benchmark of the wafersense pipeline: one workload per run.

    python3 perfbench/run.py --workload train_c6 --seed 1 --seconds 6 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory. A run builds the workload's inputs from the seed three
times (set-up, timed and reported as the median), then starts
perfbench/worker.py, which runs whole rounds of the workload through the
program's command-line entry point until --seconds have passed. The outputs
of every round are then checked. The last line of standard output is one
JSON object: ``correct``, ``attempted`` and ``failed`` rounds, and the
metrics — end-to-end with --trace 0, per layer with --trace 1.

All data goes to a fresh directory under .perfbench_work/runs/, removed
when the run ends. Traces and results stay in .perfbench_work/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr
from pathlib import Path

import checks
import workloads

SETUP_REPEATS = 3
RUN_LIMIT_S = 175.0
WORK = Path(".perfbench_work")
LEDGER = WORK / "ledger.json"
HERE = Path(__file__).resolve().parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small inputs, for the benchmark's own tests")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def import_program(root: Path):
    """Import wafersense from the checkout's src/, never from elsewhere."""
    src = root / "src"
    if not (src / "wafersense" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {src / 'wafersense'}; "
                         "run from the root of a wafersense checkout")
    sys.path.insert(0, str(src))
    import wafersense
    import wafersense.cli
    import wafersense.nn
    import wafersense.preprocess

    if Path(wafersense.__file__).resolve().parent != (src / "wafersense").resolve():
        raise SystemExit(f"error: wafersense was imported from {wafersense.__file__}")
    return wafersense


def program_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "wafersense").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def ledger_check(key: dict, outputs: dict) -> None:
    """Equal program and inputs must give equal outputs across runs (criterion 9)."""
    k = hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()
    ledger = json.loads(LEDGER.read_text()) if LEDGER.exists() else {}
    if k in ledger:
        checks.require(ledger[k] == outputs,
                       f"outputs differ from an earlier run of the same program "
                       f"on the same inputs: {outputs} != {ledger[k]}")
        return
    ledger[k] = outputs
    tmp = LEDGER.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    os.replace(tmp, LEDGER)


def set_up(workload, cli, run_dir: Path, log) -> tuple[dict, list[float]]:
    """Build the inputs SETUP_REPEATS times; every repeat must give the same files."""
    times, envs, digests = [], [], []
    for rep in range(1, SETUP_REPEATS + 1):
        rep_dir = run_dir / f"setup_{rep}"
        rep_dir.mkdir()
        started = time.perf_counter()
        with redirect_stderr(log):
            env = workload.setup(cli, rep_dir)
        times.append(time.perf_counter() - started)
        envs.append(env)
        digests.append({k: checks.tree_digest(v) if Path(v).is_dir() else checks.sha256_file(v)
                        for k, v in env.items() if k != "config"})
    checks.check_identical(digests, "set-up outputs")
    for rep_dir in sorted(run_dir.glob("setup_*"))[:-1]:
        shutil.rmtree(rep_dir)
    return envs[-1], times


def run_worker(spec: dict, run_dir: Path, deadline: float) -> dict:
    spec_path = run_dir / "worker_spec.json"
    spec_path.write_text(json.dumps(spec))
    with open(run_dir / "worker.log", "wb") as log:
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                                stdout=log, stderr=subprocess.STDOUT)
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise SystemExit("error: the timed phase overran the run's time limit")
    if rc != 0:
        tail = (run_dir / "worker.log").read_text(errors="replace")[-4000:]
        raise SystemExit(f"error: worker exited with {rc}\n{tail}")
    return json.loads(Path(spec["result_path"]).read_text())


def main(argv=None) -> int:
    started = time.monotonic()
    args = parse_args(argv)
    root = Path.cwd()
    program = import_program(root)
    size = workloads.TINY if args.tiny else workloads.FULL
    workload = workloads.WORKLOADS[args.workload](args.seed, size)

    stamp = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}-{time.time_ns()}"
    run_dir = WORK / "runs" / stamp
    run_dir.mkdir(parents=True)
    (WORK / "traces").mkdir(exist_ok=True)
    (WORK / "results").mkdir(exist_ok=True)
    try:
        with open(run_dir / "setup.log", "w", encoding="utf-8") as log:
            logging.basicConfig(stream=log, level=logging.INFO,
                                format="%(levelname)s %(name)s: %(message)s", force=True)
            env, setup_times = set_up(workload, program.cli, run_dir, log)
            spec = {
                "src": str((root / "src").resolve()),
                "run_dir": str(run_dir.resolve()),
                "argv": workload.round_argv(env, "{round}"),
                "seconds": args.seconds,
                "min_rounds": workload.min_rounds,
                "trace": bool(args.trace),
                "result_path": str((run_dir / "worker_result.json").resolve()),
                "spans_path": str((WORK / "traces" / f"{stamp}.json").resolve()),
            }
            result = run_worker(spec, run_dir, started + RUN_LIMIT_S)
            rounds = result["rounds"]
            good = [r for r in rounds if r["ok"]]
            failures = []
            items: list[float] = []
            try:
                checks.require(good, "no round completed")
                with redirect_stderr(log):
                    items = workload.check(program, env, [Path(r["dir"]) for r in good])
                    ledger_check({"program": program_digest(root), "workload": workload.name,
                                  "inputs": workload.inputs()},
                                 workload.outputs(Path(good[0]["dir"])))
            except (checks.CheckFailed, OSError, KeyError, ValueError) as exc:
                failures.append(str(exc))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    rates = {traced: [n / r["seconds"] for n, r in zip(items, good) if r["traced"] == traced]
             for traced in (False, True)}
    throughput = statistics.median(rates[False]) if rates[False] else 0.0
    if args.trace:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in result["layers"].items()}
        traced = statistics.median(rates[True]) if rates[True] else 0.0
        metrics["trace.throughput_untraced"] = {"value": throughput, "unit": "items/s"}
        metrics["trace.throughput_traced"] = {"value": traced, "unit": "items/s"}
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (throughput / traced - 1.0) if traced else 0.0, "unit": "%"}
        metrics["blas.threads"] = {"value": result["blas_threads"] or 0, "unit": "count"}
    else:
        metrics = {
            "throughput": {"value": throughput, "unit": "items/s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
    out = {"correct": not failures, "attempted": len(rounds),
           "failed": len(rounds) - len(good), "metrics": metrics}

    report(args, rounds, setup_times, result, failures)
    (WORK / "results" / f"{stamp}.json").write_text(json.dumps(out))
    print(json.dumps(out))
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith(".rows_per_s"):
        return "rows/s"
    if metric.endswith((".ms", ".self_ms", ".epoch1", ".later")):
        return "ms"
    if metric.endswith((".s", ".self_s")):
        return "s"
    return "count"


def report(args, rounds, setup_times, result, failures) -> None:
    err = sys.stderr
    print(f"workload {args.workload} seed {args.seed}: set-up "
          + ", ".join(f"{t:.3f}" for t in setup_times) + " s", file=err)
    for traced in (False, True):
        times = [r["seconds"] for r in rounds if r["traced"] == traced]
        if times:
            print(f"  {len(times)} {'traced' if traced else 'untraced'} rounds: median "
                  f"{statistics.median(times):.4f} s, min {min(times):.4f}, "
                  f"max {max(times):.4f}", file=err)
    for i, r in enumerate(rounds, start=1):
        if not r["ok"]:
            print(f"  round {i} FAILED", file=err)
    print(f"  peak RSS {result['peak_rss_mb']:.1f} MB, BLAS threads {result['blas_threads']}",
          file=err)
    if args.trace:
        for name in result.get("missing", []):
            print(f"  missing: {name}", file=err)
        print("  not reached on this workload: " + ", ".join(result["not_reached"]), file=err)
    for f in failures:
        print(f"  CHECK FAILED: {f}", file=err)


if __name__ == "__main__":
    sys.exit(main())
