"""Outside-in benchmark of qtk: run a workload's jobs, check them, report.

Usage, from the repository root:
    python3 perfbench/run.py --workload fans --seed 1 --seconds 36 --trace 0

One client runs one job at a time (closed loop).  Each job is a qtk CLI
command or one library call in a fresh child interpreter, so every job
starts with cold caches like a user's `qtk ...` run.  With --trace 0 the
run repeats the workload's job list while another pass still fits in
--seconds and reports the end-to-end metrics (medians over passes).  With
--trace 1 it repeats a plain and a traced pass instead and reports the
per-layer metrics (medians over those pairs), including the tracing
overhead.  Metric names and units come from BENCHMARK.json.  The last
stdout line is the JSON result; a readable summary, the environment stamp
and every failed job go to stderr, and the full record (with spans) to
.perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads
from oracles import check_output

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
CHILD = os.path.join(HERE, "child.py")
PROBE = os.path.join(HERE, "probe.py")
# End-to-end times scale each job by PROBE_NOMINAL_S over the time of the
# probe run just before it: seconds on a host where probe.py takes 0.1 s, as
# it does on a 2-vCPU VM with Python 3.11.  Raw times are in the record and
# on stderr.
PROBE_NOMINAL_S = 0.1
RUN_LIMIT_S = 170  # the whole run, set-up included, must end within 180 s
JOB_TIMEOUT_S = 120
SETUP_TIMEOUT_S = 60


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _child_env() -> dict:
    # Bytecode is written by the set-up child and read by every job, as with
    # an installed qtk, whatever the caller's environment says.
    drop = ("QTK_SEED", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(kind: str, argv, trace: bool, timeout: float) -> dict:
    """Run one child; return its envelope plus spawn/exit times, or an error."""
    spec = json.dumps({"src": SRC, "kind": kind, "argv": list(argv), "trace": trace})
    spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, CHILD, spec], cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"spawn": spawn, "exit": time.monotonic(), "error": f"timeout after {timeout:.0f} s"}
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    done = {"spawn": spawn, "exit": time.monotonic(), "stderr": err}
    try:
        done.update(json.loads(out.strip().splitlines()[-1]))
    except (IndexError, json.JSONDecodeError):
        tail = err.strip().splitlines()[-1:] or [""]
        done["error"] = f"no result from child (exit {proc.returncode}): {tail[0]}"
    return done


def probe_seconds() -> float:
    """Spawn-to-exit time of probe.py, which measures the host's current speed."""
    start = time.monotonic()
    try:
        done = subprocess.run([sys.executable, PROBE], cwd=ROOT, env=_child_env(),
                              capture_output=True, timeout=SETUP_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise SetupError("probe.py timed out") from exc
    if done.returncode != 0:
        raise SetupError(f"probe.py failed: {done.stderr.decode()[-300:]}")
    return time.monotonic() - start


def run_job(job: workloads.Job, trace: bool, deadline: float) -> dict:
    probe = probe_seconds()
    budget = min(JOB_TIMEOUT_S, deadline - time.monotonic())
    if budget <= 0:
        return {"id": job.id, "kind": job.kind, "wall": 0.0, "setup": 0.0, "rss_mb": 0.0,
                "probe": probe, "error": "not started: run time limit reached", "trace": None}
    done = _spawn(job.kind, job.argv, trace, budget)
    error = done.get("error")
    if error is None:
        if done["traceback"]:
            error = "traceback: " + done["traceback"].strip().splitlines()[-1]
        elif "Traceback (most recent call last)" in done["stderr"]:
            error = "traceback on stderr"
        elif done["code"] != 0:
            error = f"exit code {done['code']}"
        else:
            error = check_output(job.kind, job.expect, done["stdout"])
    return {
        "id": job.id, "kind": job.kind,
        "wall": done["exit"] - done["spawn"],
        "setup": done["ready"] - done["spawn"] if "ready" in done else 0.0,
        "rss_mb": done.get("maxrss_kb", 0) / 1024.0, "probe": probe,
        "error": error, "trace": done.get("trace"),
    }


def run_pass(jobs, trace: bool, deadline: float) -> list[dict]:
    return [run_job(job, trace, deadline) for job in jobs]


def set_up(workload: str, seed: int, workdir: str):
    """Generate the instances and validate each one with `qtk validate`."""
    if not os.path.isfile(os.path.join(SRC, "qtk", "cli.py")):
        raise SetupError(f"no qtk sources under {SRC}")
    jobs, _ = workloads.build(workload, seed, workdir)
    instances = sorted({job.instance for job in jobs})
    done = _spawn("validate", instances, False, SETUP_TIMEOUT_S)
    if done.get("error") or done.get("traceback") or done.get("code") != 0:
        raise SetupError("generated or catalog instances fail `qtk validate`: "
                         f"{done.get('error') or done.get('traceback') or done.get('stdout')}")
    report = json.loads(done["stdout"])["result"]
    bad = [r["instance"] for r in report["instances"] if not r["ok"]]
    if bad or len(report["instances"]) != len(instances):
        raise SetupError(f"instances fail validation: {bad}")
    return jobs, done["backend"]


def _commit() -> str:
    """HEAD of the checkout if it is a git work tree, else 'unknown'."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return head.stdout.strip() if head.returncode == 0 else "unknown"


def repeat(one_round, seconds: float, deadline: float) -> list:
    """Run rounds until another would overrun `seconds` (at least one)."""
    rounds = []
    start = time.monotonic()
    while True:
        rounds.append(one_round())
        now = time.monotonic()
        next_round = (now - start) / len(rounds)
        if now - start + next_round > seconds or now + next_round > deadline:
            return rounds


def _pass_total(p: list[dict], key: str, normalize: bool) -> float:
    return sum(r[key] * (PROBE_NOMINAL_S / r["probe"] if normalize else 1.0) for r in p)


def end_to_end(passes: list[list[dict]], normalize: bool = True) -> dict[str, float]:
    return {
        "wall_s": statistics.median(_pass_total(p, "wall", normalize) for p in passes),
        "setup_s": statistics.median(_pass_total(p, "setup", normalize) for p in passes),
        "peak_rss_mb": max(r["rss_mb"] for p in passes for r in p),
    }


def per_layer(pairs: list[tuple[list[dict], list[dict]]]) -> dict[str, float]:
    """Medians over (plain pass, traced pass) rounds."""
    per_round = []
    for plain, traced in pairs:
        out = tracing.aggregate([r["trace"] for r in traced if r["trace"]])
        for kind in workloads.KINDS:
            out[f"cmd.{kind}_s"] = sum(r["wall"] for r in plain if r["kind"] == kind)
        out["trace.untraced_wall_s"] = sum(r["wall"] for r in plain)
        out["trace.traced_wall_s"] = sum(r["wall"] for r in traced)
        out["trace.overhead_s"] = out["trace.traced_wall_s"] - out["trace.untraced_wall_s"]
        out["probe_s"] = statistics.median(r["probe"] for r in plain)
        per_round.append(out)
    return {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    try:
        jobs, backend = set_up(args.workload, args.seed, workdir)
        if args.trace:
            pairs = repeat(lambda: (run_pass(jobs, False, deadline),
                                    run_pass(jobs, True, deadline)), args.seconds, deadline)
            passes = [p for pair in pairs for p in pair]
            plain = [plain for plain, _ in pairs]
            metrics = per_layer(pairs)
        else:
            passes = plain = repeat(lambda: run_pass(jobs, False, deadline),
                                    args.seconds, deadline)
            metrics = end_to_end(passes)
    except SetupError as exc:
        sys.stderr.write(f"set-up error: {exc}\n")
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = [r for p in passes for r in p]
    failures = [{"job": r["id"], "pass": i, "reason": r["error"]}
                for i, p in enumerate(passes) for r in p if r["error"]]
    stamp = {"backend": backend, "python": platform.python_version(),
             "nproc": os.cpu_count(), "commit": _commit(), "workload": args.workload,
             "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
             "passes": len(passes), "jobs_per_pass": len(jobs),
             "probe_s": statistics.median(r["probe"] for r in results),
             "unscaled": end_to_end(plain, normalize=False)}
    reported = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
    record = {"stamp": stamp, "metrics": reported, "failures": failures,
              "jobs": [[{k: v for k, v in r.items() if k != "trace"} for r in p] for p in passes]}
    if args.trace:
        record["spans"] = [{"pass": i, "job": r["id"], "spans": r["trace"]["spans"]}
                           for i, p in enumerate(passes) for r in p if r["trace"]]
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    log = sys.stderr.write
    log("stamp: " + json.dumps(stamp, sort_keys=True) + "\n")
    for name, m in reported.items():
        log(f"{name} = {m['value']:.6g} {m['unit']}\n")
    log("unscaled: " + json.dumps(stamp["unscaled"], sort_keys=True) + "\n")
    log(f"fail_ratio = {len(failures)}/{len(results)} attempted"
        f" = {len(failures) / len(results):.3g}\n")
    for f in failures:
        log(f"FAILED pass {f['pass']} {f['job']}: {f['reason']}\n")
    print(json.dumps({"correct": not failures, "attempted": len(results),
                      "failed": len(failures), "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
