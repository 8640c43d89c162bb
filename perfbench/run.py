"""kgpair benchmark: closed-loop CLI workloads with output checks.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload analysis --seed 1 --seconds 30 --trace 0

One client runs items back to back in this process through the real
``kgpair.cli.main`` entry point, until the timed item work reaches
``--seconds``. Outputs are checked after each item, outside the timed
interval. With ``--trace 0`` the last stdout line carries the end-to-end
metrics; with ``--trace 1`` every item runs twice, untraced and traced in
alternating order, and the last line carries the per-layer metrics.
The lines before it give a readable summary and the run record (environment,
seed, per-item output digests); the record and the spans are also written
under ``.perfbench/results`` in the checkout.
"""

from __future__ import annotations

import os

# one-thread BLAS/OpenMP pools, set before numpy is first imported
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import Recorder, install, rollup  # noqa: E402
from workloads import WORKLOADS, Schemas, items  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Fixed per workload so that a faster program does not report a higher
# percentile: the highest one with at least ten items beyond it at the
# run length in BENCHMARK.json, at the commit that defined the benchmark.
TAIL_PERCENTILE = {"analysis": 80, "probe": 50, "amplify": 70}
SETUP_REPEATS = 11
# traced runs report counts over this many leading items, so two traced
# runs with one seed give identical counts however long each item takes
TRACE_COUNT_ITEMS = 8


def load_program():
    """Import kgpair from this checkout's source tree, or exit 2."""
    if not (SRC / "kgpair" / "cli.py").is_file():
        print(f"perfbench: no kgpair source tree under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import kgpair.cli

    if Path(kgpair.cli.__file__).resolve().parent != SRC / "kgpair":
        print(f"perfbench: kgpair imported from {kgpair.cli.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    return kgpair.cli


def fresh_import_seconds() -> float:
    """Wall time of a fresh interpreter that imports kgpair.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    # no timeout: Popen.wait polls in 50 ms steps when given one
    subprocess.run([sys.executable, "-c", "import kgpair.cli"], cwd=ROOT, env=env, check=True)
    return time.perf_counter() - start


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "thread_env": {key: os.environ.get(key) for key in THREAD_ENV},
        "seed": seed,
    }


class Runner:
    """Runs items of one workload and checks their outputs."""

    def __init__(self, cli, workload: str, seed: int, work: Path):
        self.cli = cli
        self.work = work
        self.schemas = Schemas(ROOT)
        self.items = items(workload, seed, ROOT)

    def run_item(self, item, rec: Recorder | None = None) -> tuple[float, list[str], str]:
        """Time one item; returns (seconds, problems, sha256 of its outputs)."""
        def invoke(argv: list[str]) -> int:
            if rec is None:
                return self.cli.main(argv)
            with rec.span(f"cli.{argv[0]}"):
                return self.cli.main(argv)

        item.prepare(self.work)
        # collect the previous item's garbage now, so no item pays for another's
        gc.collect()
        start = time.perf_counter()
        try:
            codes = item.execute(invoke, self.work)
        except Exception:  # a crashing item counts as failed; the run goes on
            return time.perf_counter() - start, [traceback.format_exc()], ""
        elapsed = time.perf_counter() - start
        problems, blob = item.check(codes, self.work, self.schemas)
        return elapsed, problems, hashlib.sha256(blob).hexdigest()


def run_untraced(runner: Runner, seconds: float, setup_samples: int = 0) -> dict:
    """Closed loop until the item time reaches ``seconds``. Between items the
    set-up time is sampled at even steps of item time, so its median sees the
    same machine conditions as the items."""
    durations, digests, failures, setup = [], [], {}, []
    while sum(durations) < seconds:
        item = next(runner.items)
        elapsed, problems, digest = runner.run_item(item)
        durations.append(elapsed)
        digests.append(digest)
        if problems:
            failures[item.index] = problems
        if len(setup) < setup_samples and sum(durations) >= len(setup) * seconds / setup_samples:
            setup.append(fresh_import_seconds())
    setup += [fresh_import_seconds() for _ in range(setup_samples - len(setup))]
    return {"durations": durations, "digests": digests, "failures": failures, "setup": setup}


def run_traced(runner: Runner, seconds: float, count_items: int = TRACE_COUNT_ITEMS) -> dict:
    rec = Recorder()
    plain, traced, digests, failures = [], [], [], {}
    while sum(plain) + sum(traced) < seconds or len(traced) < count_items:
        item = next(runner.items)
        rec.item = len(traced)
        outcomes = {}
        for mode in (("plain", "traced") if rec.item % 2 == 0 else ("traced", "plain")):
            if mode == "traced":
                restore = install(rec)
                try:
                    outcomes[mode] = runner.run_item(item, rec)
                finally:
                    restore()
            else:
                outcomes[mode] = runner.run_item(item)
        plain.append(outcomes["plain"][0])
        traced.append(outcomes["traced"][0])
        digests.append(outcomes["traced"][2])
        problems = outcomes["plain"][1] + outcomes["traced"][1]
        if outcomes["plain"][2] != outcomes["traced"][2]:
            problems.append("traced outputs differ from untraced outputs")
        if problems:
            failures[item.index] = problems
    return {"durations": traced, "untraced": plain, "digests": digests,
            "failures": failures, "recorder": rec}


def end_to_end(workload: str, result: dict) -> dict:
    durations = result["durations"]
    q = TAIL_PERCENTILE[workload]
    failed = len(result["failures"])
    return {
        "items_per_s": (len(durations) / sum(durations), "items/s"),
        "item_p50_ms": (statistics.median(durations) * 1e3, "ms"),
        "item_tail_ms": (percentile(durations, q) * 1e3, "ms"),
        "setup_s": (statistics.median(result["setup"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_fraction": (failed / len(durations), "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_program()
    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=ROOT / ".perfbench"))
    try:
        runner = Runner(cli, args.workload, args.seed, work)
        if args.trace:
            result = run_traced(runner, args.seconds)
            plain, traced = sum(result["untraced"]), sum(result["durations"])
            metrics = rollup(result["recorder"], TRACE_COUNT_ITEMS, len(result["durations"]))
            metrics["trace.overhead_frac"] = ((traced - plain) / plain, "ratio")
        else:
            result = run_untraced(runner, args.seconds, SETUP_REPEATS)
            metrics = end_to_end(args.workload, result)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(result["durations"])
    failed = len(result["failures"])
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "environment": environment(args.seed),
        "seconds": args.seconds,
        "items": attempted,
        "tail_percentile": TAIL_PERCENTILE[args.workload],
        "item_ms": [round(d * 1e3, 3) for d in result["durations"]],
        "item_digests": result["digests"],
        "run_digest": hashlib.sha256("".join(result["digests"]).encode()).hexdigest(),
        "failures": {str(k): v for k, v in result["failures"].items()},
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        result["recorder"].write(results_dir / f"{stem}-spans.jsonl.gz")

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:9s} {name:48s} {value:14.6g} {unit}")
    print(f"items {attempted}, failed {failed}, tail percentile "
          f"p{TAIL_PERCENTILE[args.workload]}, run digest {record['run_digest'][:16]}")
    for index, problems in sorted(result["failures"].items()):
        print(f"item {index} failed: {'; '.join(problems)}")
    print(json.dumps({"record": record["environment"], "file": f".perfbench/results/{stem}.json"}))

    # failed_fraction is 0 on a healthy run, so the result line carries it
    # as "failed" over "attempted" instead of as a metric
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items() if name != "failed_fraction"},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
