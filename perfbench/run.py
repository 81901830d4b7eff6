"""liecross benchmark: one workload, one seed, a closed loop of fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N      # every workload

Workloads (why each was chosen is in BENCHMARK.json):

- induced_battery: the acceptance gate's criterion-2 loop through the API
  over the 16-module GF(5) battery; items are verified (f, d) pairs.
- groupoid_cli: `python -m liecross groupoid DOC --hom X X --emit FILE`,
  once with --format text and once with --format structured per job, on a
  seeded copy of span(y, z) in h3 over GF(3); items are arrows emitted.
- groupoid_laws: build_hom_groupoid, homotopy_classes and validate_groupoid
  on a seeded copy of X_aff over GF(5); items are composable triples.

The load is a closed loop: this process starts one child at a time and
waits for it; every child is a fresh interpreter, so liecross's module-level
scan cache never carries over between repetitions, and every scan runs with
workers=1.  A run sets up (import plus seeded input generation, in
worker.py) once, then alternates jobs and set-ups until about --seconds have
passed, and sets up again until it has SETUP_REPEATS set-ups.  Every job's
output is checked; a job with any wrong output counts as failed.

With --trace 0 the run prints the end-to-end metrics: wall_s (median job
wall time; for the CLI, both processes as a user sees them), items_per_s,
setup_s (median set-up), peak_rss_mb (median over jobs of the largest peak
RSS of a job's processes, as peak_rss.py reads it) and, on its own line,
error_rate.  With --trace 1 untraced and traced jobs alternate, the traced
ones in process (the CLI through liecross.cli.run_command), and the run
prints the per-layer metrics of spans.py as medians over traced jobs, plus
trace.overhead_s and trace.unattributed_s.  A traced run fails when a layer
the workload must reach records no calls.

Every run stamps its environment (backend, workers, nproc, Python, commit,
source digest, seed) and writes a record to .bench_out/results/; compare.py
compares two sets of records.  The last line of stdout is one JSON object
with correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import cli_check

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("induced_battery", "groupoid_cli", "groupoid_laws")
WORKERS = 1
SETUP_REPEATS = 5
RUN_LIMIT_S = 170

END_TO_END = {"wall_s": "s", "items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

KERNEL_METRICS = {"calls": "count", "candidates": "count", "survivors": "count",
                  "busy_s": "s", "candidates_per_s": "1/s"}
PER_LAYER = {
    **{f"kernel.{scan}.{key}": unit
       for scan in ("scan_derivations", "scan_lie_morphisms")
       for key, unit in KERNEL_METRICS.items()},
    "groupoid.enumerate_morphisms.calls": "count",
    "groupoid.enumerate_morphisms.self_s": "s",
    "groupoid.enumerate_morphisms.objects": "count",
    "groupoid.scan_cache.hits": "count",
    "groupoid.enumerate_derivations.calls": "count",
    "groupoid.enumerate_derivations.self_s": "s",
    "groupoid.enumerate_derivations.derivations": "count",
    "groupoid.build_hom_groupoid.self_s": "s",
    "groupoid.build_hom_groupoid.arrows": "count",
    "homotopy.shift_morphism.calls": "count",
    "homotopy.shift_morphism.busy_s": "s",
    "groupoid.validate_groupoid.busy_s": "s",
    "groupoid.validate_groupoid.triples": "count",
    "groupoid.validate_groupoid.triples_per_s": "1/s",
    "groupoid.homotopy_classes.busy_s": "s",
    "homotopy.homotopy_target.calls": "count",
    "homotopy.homotopy_target.self_s": "s",
    "homotopy.is_f0_derivation.calls": "count",
    "homotopy.is_f0_derivation.busy_s": "s",
    "morphisms.validate_crossed_morphism.calls": "count",
    "morphisms.validate_crossed_morphism.busy_s": "s",
    "documents.parse_workspace.busy_s": "s",
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "cli.emit_bytes": "bytes",
    "fields.scalar_constructions": "count",
    "linalg.linearmap_constructions": "count",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}

# Spans a traced job of each workload must record at least once.
_COMMON_LAYERS = ("kernel.scan_lie_morphisms", "kernel.scan_derivations",
                  "groupoid.enumerate_morphisms", "groupoid.enumerate_derivations",
                  "homotopy.shift_morphism")
EXPECTED_LAYERS = {
    "induced_battery": _COMMON_LAYERS + (
        "homotopy.homotopy_target", "homotopy.is_f0_derivation",
        "morphisms.validate_crossed_morphism"),
    "groupoid_cli": _COMMON_LAYERS + (
        "cli.run_command", "documents.parse_workspace",
        "groupoid.build_hom_groupoid", "groupoid.homotopy_classes"),
    "groupoid_laws": _COMMON_LAYERS + (
        "groupoid.build_hom_groupoid", "groupoid.homotopy_classes",
        "groupoid.validate_groupoid"),
}


class Step:
    """One finished child process: its wall time, exit code and output files."""

    def __init__(self, wall_s, code, stdout_path, stderr_path):
        self.wall_s, self.code = wall_s, code
        self.stdout_path, self.stderr_path = stdout_path, stderr_path

    def report(self) -> dict:
        """The worker's JSON result, or a problem entry if it has none."""
        if self.code == 0:
            lines = self.stdout_path.read_text().splitlines()
            if lines:
                try:
                    return json.loads(lines[-1])
                except ValueError:
                    pass
        tail = self.stderr_path.read_text()[-2000:]
        return {"problems": [f"worker exited {self.code}: {tail}"]}

    def peak_rss_mb(self) -> float:
        """Peak RSS that peak_rss.py wrote as the last line of stderr."""
        lines = self.stderr_path.read_text().splitlines()
        if lines and lines[-1].startswith("peak_rss_kb "):
            return int(lines[-1].split()[1]) / 1024
        return 0.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], name: str, deadline: float) -> Step:
    """Run one child to completion and time it; kill it at the deadline."""
    stdout_path, stderr_path = OUT / f"{name}.out", OUT / f"{name}.err"
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([pidfd], [], [], max(0.0, deadline - perf_counter()))
            finally:
                os.close(pidfd)
            if not ready:
                raise TimeoutError(f"{name} did not finish within the run limit")
            code = proc.wait()
            wall = perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    return Step(wall, code, stdout_path, stderr_path)


def worker_argv(workload: str, seed: int, mode: str, fmt: str = "text",
                trace: bool = False, spans: Path | None = None) -> list[str]:
    argv = [sys.executable, str(BENCH / "worker.py"), workload, "--seed", str(seed),
            "--mode", mode, "--format", fmt, "--out-dir", str(OUT)]
    if trace:
        argv += ["--trace", "--spans", str(spans)]
    return argv


def run_job(workload: str, seed: int, index: int, traced: bool, in_process: bool,
            deadline: float) -> dict:
    """One job: one worker, or for the CLI a text and a structured run."""
    formats = ("text", "structured") if workload == "groupoid_cli" else ("text",)
    job = {"wall_s": 0.0, "items": 0, "rss_mb": 0.0, "problems": [],
           "traced": traced, "layers": {}, "covered_s": 0.0}
    for fmt in formats:
        name = f"{workload}-{fmt}"
        if workload == "groupoid_cli" and not in_process:
            doc, emit = OUT / f"{workload}-seed{seed}.yaml", OUT / f"{name}.json"
            emit.unlink(missing_ok=True)
            step = run_child([sys.executable, str(BENCH / "peak_rss.py"), "liecross",
                              "groupoid", str(doc), "--hom", "X", "X",
                              "--emit", str(emit), "--format", fmt], name, deadline)
            emitted = emit.read_bytes() if emit.exists() else b""
            items, problems = cli_check.check_groupoid_output(
                fmt, step.code, step.stdout_path.read_bytes(), emitted)
            report = {"job_s": step.wall_s, "items": items, "problems": problems,
                      "peak_rss_mb": step.peak_rss_mb()}
        else:
            spans = OUT / "spans" / f"{workload}-seed{seed}-job{index}-{fmt}.json"
            step = run_child(worker_argv(workload, seed, "job", fmt, traced, spans),
                             name, deadline)
            report = step.report()
        job["wall_s"] += report.get("job_s", step.wall_s)
        job["items"] += report.get("items", 0)
        job["rss_mb"] = max(job["rss_mb"], report.get("peak_rss_mb", 0.0))
        job["problems"] += report.get("problems", [])
        job["covered_s"] += report.get("covered_s", 0.0)
        for key, value in report.get("layers", {}).items():
            job["layers"][key] = job["layers"].get(key, 0) + value
    return job


def layer_metrics(job: dict) -> dict:
    """Per-layer metrics of one traced job from its summed span totals."""
    layers = job["layers"]
    out = {name: layers.get(name, 0) for name in PER_LAYER}
    for scan in ("scan_derivations", "scan_lie_morphisms"):
        busy = layers.get(f"kernel.{scan}.busy_s", 0)
        out[f"kernel.{scan}.candidates_per_s"] = (
            layers.get(f"kernel.{scan}.candidates", 0) / busy if busy else 0)
    # Each enumerate_morphisms call needs two Lie-morphism scans; the ones
    # that did not reach the kernel were served by the scan cache.
    out["groupoid.scan_cache.hits"] = (2 * layers.get("groupoid.enumerate_morphisms.calls", 0)
                                       - layers.get("kernel.scan_lie_morphisms.calls", 0))
    busy = layers.get("groupoid.validate_groupoid.busy_s", 0)
    out["groupoid.validate_groupoid.triples_per_s"] = (
        layers.get("groupoid.validate_groupoid.triples", 0) / busy if busy else 0)
    out["cli.self_s"] = layers.get("cli.run_command.self_s", 0)
    out["trace.unattributed_s"] = job["wall_s"] - job["covered_s"]
    return out


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = perf_counter() + RUN_LIMIT_S

    def setup() -> dict:
        report = run_child(worker_argv(workload, seed, "setup"),
                           f"{workload}-setup", deadline).report()
        if "setup_s" not in report:
            raise SystemExit(f"set-up failed: {report['problems'][0]}")
        return report

    # The first set-up also writes the files the jobs read.  The others run
    # between jobs, so the median set-up time spans the whole run.
    setups = [setup()]
    env = {"backend": setups[0]["backend"], "workers": WORKERS,
           "nproc": os.cpu_count(), "python": setups[0]["python"],
           "platform": platform.platform(), "commit": commit(),
           "source_sha256": source_digest(), "seed": seed,
           "workload": workload, "trace": int(trace), "seconds": seconds}

    jobs = []
    start = perf_counter()
    while True:
        traced = trace and len(jobs) % 2 == 1
        jobs.append(run_job(workload, seed, len(jobs), traced, trace, deadline))
        setups.append(setup())
        # Stop before a job that would likely end after the run's time.
        elapsed = perf_counter() - start
        typical = statistics.median(j["wall_s"] for j in jobs)
        if elapsed + typical > seconds and (not trace or len(jobs) >= 2):
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(setup())

    failed = sum(1 for j in jobs if j["problems"])
    if trace:
        traced_jobs = [j for j in jobs if j["traced"]]
        metrics = {name: statistics.median(layer_metrics(j)[name] for j in traced_jobs)
                   for name in PER_LAYER}
        metrics["trace.overhead_s"] = (
            statistics.median(j["wall_s"] for j in traced_jobs)
            - statistics.median(j["wall_s"] for j in jobs if not j["traced"]))
        units = PER_LAYER
        missing = [name for name in EXPECTED_LAYERS[workload]
                   if any(not j["layers"].get(f"{name}.calls") for j in traced_jobs)]
        if workload == "induced_battery" and not metrics["groupoid.scan_cache.hits"]:
            missing.append("groupoid.scan_cache (no hits)")
    else:
        metrics = {
            "wall_s": statistics.median(j["wall_s"] for j in jobs),
            "items_per_s": statistics.median(j["items"] / j["wall_s"] for j in jobs),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": statistics.median(j["rss_mb"] for j in jobs),
        }
        units = END_TO_END
        missing = []
    return {"env": env, "jobs": jobs, "setups": setups, "failed": failed,
            "missing_layers": missing,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units}}


def print_result(result: dict):
    env, jobs = result["env"], result["jobs"]
    print("env " + " ".join(f"{k}={env[k]}" for k in
                            ("backend", "workers", "nproc", "python", "commit", "seed")))
    print(f"workload {env['workload']}: {len(jobs)} jobs, {result['failed']} failed, "
          f"{sum(j['items'] for j in jobs)} items")
    for job in jobs:
        for problem in job["problems"][:5]:
            print(f"  problem: {problem}")
    for name in result["missing_layers"]:
        print(f"  layer recorded no calls: {name}")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"error_rate {result['failed'] / len(jobs):.6g} ratio")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "liecross" / "__init__.py").is_file():
        print(f"no liecross sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (OUT / "spans").mkdir(parents=True, exist_ok=True)
    (OUT / "results").mkdir(exist_ok=True)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print_result(result)
        record = OUT / "results" / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        record.write_text(json.dumps(result, indent=1))
        summary["correct"] &= not result["failed"] and not result["missing_layers"]
        summary["attempted"] += len(result["jobs"])
        summary["failed"] += result["failed"]
        prefix = "" if len(workloads) == 1 else f"{workload}."
        summary["metrics"].update({prefix + name: metric
                                   for name, metric in result["metrics"].items()})
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
