"""Benchmark of the coclass command line, timed from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --write-reference

Every timed call is a fresh `coclass` process, started by one client that
waits for it to finish before starting the next (a closed loop with one
client), with one BLAS thread.  See perfbench/README.md for the workloads,
the metrics and what each layer metric should move.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = BENCH_DIR / "reference"

# Set-up is ~0.3 s and noisy, so a run measures it this many times before
# each call, spread over the run like the calls, and takes the median.
SETUPS_PER_CALL = 3
RUN_BUDGET_S = 170.0  # a child still running after this is killed and counted failed
MIB = 1024.0  # ru_maxrss is in KiB on Linux


@dataclass(frozen=True)
class Workload:
    cli: tuple[str, ...]  # subcommand and its arguments, without --scenario
    scenario: str  # built-in scenario name
    reference: str  # reference/<name>.out holds the seed-0 report
    seeded_basis: bool = False  # seed != 0 conjugates the action matrices


# Why each workload was chosen is in README.md.
WORKLOADS = {
    "d8_run_all": Workload(("run-all",), "d8_gaussian", "d8_run_all"),
    "dihedral_run_all": Workload(("run-all",), "dihedral_mainline", "dihedral_run_all"),
    "dihedral_branch_shift": Workload(("branch", "--i", "7", "--k", "1", "--shift"),
                                      "dihedral_mainline", "dihedral_branch_shift"),
    # Most seeded bases hit a known failure in pairs.complement_En today.
    "d8_basis_run_all": Workload(("run-all",), "d8_gaussian", "d8_run_all",
                                 seeded_basis=True),
}
# The workloads BENCHMARK.json lists.  d8_run_all is left out because one of
# its calls takes 40-75 s, too long for several calls in a run.
BENCHMARKED = ("dihedral_run_all", "dihedral_branch_shift")
# Every workload with a reference report; each must pass.
REFERENCED = ("d8_run_all",) + BENCHMARKED
# What --workload all runs.
ALL = REFERENCED + ("d8_basis_run_all",)

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}


# ---------------------------------------------------------------------------
# inputs


def _unimodular(rng: random.Random, rank: int) -> tuple[list, list]:
    """A seeded unimodular integer matrix U and its inverse, as row lists."""
    U = [[int(i == j) for j in range(rank)] for i in range(rank)]
    Ui = [row[:] for row in U]
    for _ in range(4 if rank > 1 else 0):
        i, j = rng.sample(range(rank), 2)
        c = rng.choice((-2, -1, 1, 2))
        # U <- U (1 + c e_ij): add c * column i to column j; Ui <- (1 - c e_ij) Ui
        for row in U:
            row[j] += c * row[i]
        Ui[i] = [a - c * b for a, b in zip(Ui[i], Ui[j])]
    return U, Ui


def _matmul(A: list, B: list) -> list:
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def scenario_argument(w: Workload, seed: int) -> str:
    """The --scenario value for this workload and seed.

    Seed 0, and every seed of a workload without a seeded basis, is the
    built-in scenario verbatim.  Otherwise the action matrices are conjugated
    by a seeded unimodular matrix and written to a scenario file: an
    isomorphic module in another basis.  Rank 1 admits only U = +-1, so the
    rank-1 dihedral scenario is the same for every seed.
    """
    if not w.seeded_basis or seed == 0:
        return w.scenario
    sys.path.insert(0, str(SRC))
    from coclass import scenarios

    data = dict(scenarios.BUILTIN_SCENARIOS[w.scenario])
    U, Ui = _unimodular(random.Random(seed), int(data["rank"]))
    data["action"] = [_matmul(_matmul(U, M), Ui) for M in data["action"]]
    path = WORK / ("%s-seed%d.json" % (w.scenario, seed))
    path.write_text(json.dumps(data, indent=1, sort_keys=True))
    return str(path)


def cli_argv(w: Workload, scenario: str) -> list[str]:
    return [w.cli[0], "--scenario", scenario, *w.cli[1:]]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


# ---------------------------------------------------------------------------
# output check


def basis_independent(report: dict) -> dict:
    """The fields of a run-all report that a change of lattice basis keeps."""
    # run-all keys each scenario by its --scenario argument, a file path here
    out = {"ok": report["ok"], "failures": report["failures"], "scenarios": []}
    for e in report["scenarios"].values():
        corr, scan = e["correspondence"], e["summand_scan"]
        out["scenarios"].append({
            "bounds": e["bounds"],
            "lcs": e["lcs"],
            "correspondence": {
                **{k: corr.get(k) for k in ("level", "qualified", "ok", "equivariant")},
                "orbit_sizes": sorted(corr.get("orbit_sizes", [])),
                "orbit_sizes_next": sorted(corr.get("orbit_sizes_next", [])),
                "bijection_size": len(corr.get("bijection", [])),
            },
            "summand_scan": {k: scan.get(k) for k in ("found", "scanned", "skipped")},
            "branch_skipped": e.get("branch_skipped"),
            "shift_ok": e.get("shift_ok"),
        })
    return out


def check_output(w: Workload, scenario: str, rc: int, out: bytes) -> str | None:
    """None if the run matches the seed-0 reference, else the reason it does not."""
    ref_out = (REFERENCE / (w.reference + ".out")).read_bytes()
    ref_rc = json.loads((REFERENCE / (w.reference + ".json")).read_text())["exit_code"]
    if rc != ref_rc:
        return "exit code %d, reference %d" % (rc, ref_rc)
    if scenario == w.scenario:
        return None if out == ref_out else "report differs from the reference byte for byte"
    try:
        same = basis_independent(json.loads(out)) == basis_independent(json.loads(ref_out))
    except (ValueError, KeyError, TypeError) as exc:
        return "report is not a run-all report: %s" % exc
    return None if same else "basis-independent fields differ from the reference"


# ---------------------------------------------------------------------------
# processes


def _start(args: list[str], env: dict, deadline: float, **popen_kw):
    """Start a child of child.py and a timer that kills it at the deadline."""
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "child.py"), *args],
                            env=env, cwd=ROOT, **popen_kw)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    return proc, timer


def _reap(proc: subprocess.Popen, timer: threading.Timer):
    """Wait for the child; return its exit code and its own resource usage."""
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def measure_setup(scenario: str, env: dict, deadline: float) -> float:
    """Seconds from process start to the scenario being loaded and validated."""
    t0 = time.perf_counter()
    proc, timer = _start(["setup", scenario], env, deadline, stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        rc, _ = _reap(proc, timer)
    if rc != 0 or line != b"ready\n":
        raise RuntimeError("set-up of scenario %s failed with exit code %d" % (scenario, rc))
    return elapsed


@dataclass
class Call:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    error: str | None
    layers: dict | None = None  # cost metrics of a traced call
    counters: dict | None = None  # exact counters of a traced call


def run_call(w: Workload, scenario: str, env: dict, deadline: float, trace_id: str | None) -> Call:
    """One fresh coclass process running the workload's command line."""
    argv = cli_argv(w, scenario)
    stem = WORK / ("trace-%s" % trace_id if trace_id else "run")
    if trace_id:
        mode = ["trace", str(stem) + ".spans.jsonl", str(stem) + ".metrics.json", trace_id]
    else:
        mode = ["run"]
    out_path, err_path = Path(str(stem) + ".out"), Path(str(stem) + ".err")
    metrics_path = Path(str(stem) + ".metrics.json")
    if trace_id:
        # the stem repeats across runs: read only what this call writes
        metrics_path.unlink(missing_ok=True)
        Path(str(stem) + ".spans.jsonl").unlink(missing_ok=True)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        rc, usage = _reap(*_start([*mode, *argv], env, deadline, stdout=out, stderr=err))
        wall = time.perf_counter() - t0
    error = check_output(w, scenario, rc, out_path.read_bytes())
    if error:
        tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
        error = "; ".join([error] + tail)
    layers = counters = None
    if trace_id and metrics_path.is_file():
        traced = json.loads(metrics_path.read_text())
        layers, counters = traced["metrics"], traced["counters"]
    return Call(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / MIB,
                error, layers, counters)


# ---------------------------------------------------------------------------
# runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": metadata.version("numpy")}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Time one workload for about `seconds` (at least one call); check every call."""
    w = WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    env = child_env()
    scenario = scenario_argument(w, seed)
    setups: list[float] = []
    calls: list[Call] = []
    t0 = time.monotonic()
    # start another call only if one as long as the average so far, set-ups
    # included, ends within `seconds`, and the run budget would not kill it
    while not calls or ((time.monotonic() - t0) * (len(calls) + 1) / len(calls) <= seconds
                        and time.monotonic() + calls[-1].wall_s < deadline):
        trace_id = "%s-seed%d-%d" % (name, seed, len(calls)) if trace else None
        if not trace:
            setups += [measure_setup(scenario, env, deadline) for _ in range(SETUPS_PER_CALL)]
        calls.append(run_call(w, scenario, env, deadline, trace_id))
        if calls[-1].error:
            print("%s seed %d call %d failed: %s" % (name, seed, len(calls), calls[-1].error))
    good = [c for c in calls if not c.error] or calls
    samples: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    counters = None
    if trace:
        traced = [c for c in good if c.layers is not None]
        for key in traced[0].layers if traced else ():
            samples[key] = [c.layers[key] for c in traced]
            units[key] = "s" if key.endswith("_s") or key.endswith(".s") else "count"
        samples["trace.wall_s"] = [c.wall_s for c in good]
        units["trace.wall_s"] = "s"
        if traced:
            counters = traced[0].counters
            if any(c.counters != counters for c in traced):
                print("%s seed %d: exact counters differ between calls" % (name, seed))
    else:
        samples = {"wall_s": [c.wall_s for c in good],
                   "cpu_s": [c.cpu_s for c in good],
                   "peak_rss_mb": [c.peak_rss_mb for c in good],
                   "setup_s": setups}
        units = END_TO_END_UNITS
    failed = sum(1 for c in calls if c.error)
    return {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "samples": samples,
        "units": units,
        "counters": counters,
    }


def result_line(res: dict) -> dict:
    metrics = {k: {"value": statistics.median(v), "unit": res["units"][k]}
               for k, v in res["samples"].items()}
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def describe(name: str, res: dict, trace: bool):
    print("%s: %d attempted, %d failed, error_rate %.4f"
          % (name, res["attempted"], res["failed"], res["failed"] / res["attempted"]))
    for key, values in res["samples"].items():
        if trace and not (key.endswith("self_s") or key.startswith("trace.")):
            continue
        q1, med, q3 = quartiles(values)
        print("  %-44s %12.6g %-5s (q1 %.6g, q3 %.6g, n=%d)"
              % (key, med, res["units"][key], q1, q3, len(values)))
    if res["counters"] is not None:
        print("  exact counters: %s" % json.dumps(res["counters"], sort_keys=True))


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, untraced; with trace also traced, and the overhead."""
    host = machine()
    print("machine: %s" % json.dumps(host))
    summary = {}
    for name in ALL:
        res = run_workload(name, seed, seconds, False)
        describe(name, res, False)
        entry = {**result_line(res), "error_rate": res["failed"] / res["attempted"]}
        if trace:
            tres = run_workload(name, seed, seconds, True)
            describe(name + " (traced)", tres, True)
            if tres["failed"] == 0 and res["failed"] == 0:
                overhead = (statistics.median(tres["samples"]["trace.wall_s"])
                            - statistics.median(res["samples"]["wall_s"]))
                print("  %-44s %12.6g s" % ("trace overhead (traced - untraced wall_s)", overhead))
                entry["trace_overhead_s"] = overhead
            entry["traced"] = result_line(tres)
            entry["exact_counters"] = tres["counters"]
        summary[name] = entry
    print(json.dumps({"seed": seed, "machine": host, "workloads": summary}, sort_keys=True))
    return 0 if all(summary[n]["correct"] for n in REFERENCED) else 1


def write_reference() -> int:
    """Record the current code's seed-0 report and exit code of each workload."""
    REFERENCE.mkdir(exist_ok=True)
    WORK.mkdir(exist_ok=True)
    env = child_env()
    for name in REFERENCED:
        w = WORKLOADS[name]
        argv = cli_argv(w, w.scenario)
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), "run", *argv],
                              stdout=subprocess.PIPE, env=env, cwd=ROOT, check=False)
        (REFERENCE / (w.reference + ".out")).write_bytes(proc.stdout)
        (REFERENCE / (w.reference + ".json")).write_text(
            json.dumps({"argv": argv, "exit_code": proc.returncode}, indent=1) + "\n")
        print("%s: exit code %d, %d bytes" % (name, proc.returncode, len(proc.stdout)))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="capture the current code's seed-0 reports as the reference")
    args = ap.parse_args(argv)
    if not (SRC / "coclass" / "cli.py").is_file():
        sys.stderr.write("error: no coclass source under %s\n" % SRC)
        return 2
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    print("machine: %s" % json.dumps(machine()))
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    describe(args.workload, res, bool(args.trace))
    print(json.dumps(result_line(res)))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
