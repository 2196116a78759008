#!/usr/bin/env python3
"""qpd benchmark: closed-loop, one client, in-process CLI calls.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qpd checkout.  One client issues one item at a
time, from one process and one thread with BLAS threads pinned to 1;
every item calls ``qpd.cli.main(argv)`` with stdout captured and checks
the output against the workload's oracle.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run
(see NOTES.md).  ``--workload all`` runs every workload in turn.  The
last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

import os

THREAD_PINNING = {var: "1" for var in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREAD_PINNING)

import argparse  # noqa: E402  (thread pinning must precede numpy)
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"

#: Fresh interpreters that each import qpd and generate the inputs;
#: setup_s is the median of their rescaled times.
SETUP_PROBES = 7
#: The printed tail is the sample with this many samples beyond it.
TAIL_BEYOND = 10

WORKLOAD_NAMES = ("analyze-verify", "scan-thresholds", "conjugacy-n6")


def import_qpd():
    """Import qpd from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "qpd" / "__init__.py").is_file() or not (
            ROOT / "fixtures").is_dir():
        raise SystemExit(f"perfbench: {ROOT} is not a qpd checkout "
                         "(src/qpd or fixtures/ missing)")
    sys.path.insert(0, str(src))
    import qpd.cli
    if Path(qpd.__file__).resolve().parent != src / "qpd":
        raise SystemExit(f"perfbench: imported qpd from {qpd.__file__}")
    return qpd.cli


def setup(name, seed):
    """Import qpd and generate the workload's items."""
    cli = import_qpd()
    from workloads import WORKLOADS
    workdir = WORKDIR / name
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](ROOT, workdir)
    return cli, workload, workload.generate(seed)


def measure_setup(name, seed) -> float:
    """Median set-up time over fresh interpreters, each rescaled by the
    import reference timed before and after it."""
    from reference import NOMINAL_IMPORT_S, import_seconds
    raw, scaled = [], []
    before = import_seconds()
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", name,
             "--seed", str(seed), "--seconds", "0"],
            check=True, capture_output=True, text=True, timeout=120).stdout
        after = import_seconds()
        raw.append(float(out.split()[-1]))
        scaled.append(raw[-1] * NOMINAL_IMPORT_S / (0.5 * (before + after)))
        before = after
    print(f"set-up wall clock: median {statistics.median(raw):.4f} s over "
          f"{SETUP_PROBES} fresh interpreters")
    return statistics.median(scaled)


class Runner:
    """Runs items through qpd.cli.main and applies the oracle."""

    def __init__(self, cli, workload, items):
        self.cli = cli
        self.workload = workload
        self.items = items
        self.attempted = 0
        self.failures = []

    def run(self, index):
        """Run item ``index`` (cycling over the list); return
        (seconds, results, problems)."""
        item = self.items[index % len(self.items)]
        self.attempted += 1
        results = []
        start = time.perf_counter()
        try:
            for argv in self.workload.argvs(item):
                out = io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    try:
                        code = self.cli.main(argv)
                    except SystemExit as exc:
                        code = exc.code if isinstance(exc.code, int) else 1
                results.append((code, out.getvalue()))
            elapsed = time.perf_counter() - start
            problems = self.workload.check(item, results)
        except Exception as exc:  # an item that raises is a failed item
            elapsed = time.perf_counter() - start
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failures.append((index, problems))
            print(f"item {index} failed: {'; '.join(problems)}",
                  file=sys.stderr)
        return elapsed, results, problems

    def cycle(self, first, budget, min_items=1):
        """Run items from ``first`` on until ``budget`` seconds have
        passed and at least ``min_items`` ran.

        Returns (wall, times, normalised): per-item wall seconds, and the
        same rescaled by the reference kernel timed before and after.
        """
        from reference import NOMINAL_S, kernel_seconds
        times, normalised = [], []
        before = kernel_seconds()
        start = time.perf_counter()
        index = first
        while time.perf_counter() - start < budget or len(times) < min_items:
            elapsed = self.run(index)[0]
            after = kernel_seconds()
            times.append(elapsed)
            normalised.append(elapsed * NOMINAL_S / (0.5 * (before + after)))
            before = after
            index += 1
        return time.perf_counter() - start, times, normalised


def metadata() -> dict:
    import numpy
    import scipy
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip()
    return {"commit": commit, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "thread_pinning": THREAD_PINNING,
            "client": "closed loop, 1 client, 1 process, 1 thread"}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(runner, name, seed, seconds):
    setup_s = measure_setup(name, seed)
    runner.run(0)  # warm-up: lazy set-up finishes before timing
    wall, times, normalised = runner.cycle(1, seconds,
                                           min_items=TAIL_BEYOND + 1)
    count = len(times)
    tail_rank = count - TAIL_BEYOND
    print(f"items timed: {count}; error_rate "
          f"{len(runner.failures) / runner.attempted:.4g} "
          f"({len(runner.failures)}/{runner.attempted})")
    # Ten samples beyond the tail sample make it p90 only from 100 items
    # on; a run times fewer, so the tail is printed, not reported.
    print(f"tail: p{100.0 * tail_rank / count:.0f} ({TAIL_BEYOND} samples "
          f"beyond), {sorted(normalised)[tail_rank - 1]:.4f} norm_s, "
          f"{sorted(times)[tail_rank - 1]:.4f} s")
    print(f"wall clock: item p50 {statistics.median(times):.4f} s, "
          f"{count / wall:.4f} items/s")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": metric(setup_s, "s"),
        "item_p50_norm_s": metric(statistics.median(normalised), "norm_s"),
        "items_per_norm_s": metric(count / sum(normalised), "1/norm_s"),
        "peak_rss_mb": metric(rss, "MB"),
    }


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(runner, tracer, seconds):
    """Run whole passes over the item list, so per-item counts repeat
    exactly; each item runs once untraced and once traced, both timed
    against the reference kernel."""
    from reference import NOMINAL_S, kernel_seconds
    runner.run(0)
    n_items = len(runner.items)
    facts = {}
    passes = 0
    untraced_norm = traced_norm = 0.0
    before = kernel_seconds()
    start = time.perf_counter()
    while True:
        for j in range(n_items):
            plain = runner.run(j)[0]
            middle = kernel_seconds()
            tracer.item = passes * n_items + j
            tracer.install()
            try:
                elapsed, results, problems = runner.run(j)
            finally:
                tracer.uninstall()
            after = kernel_seconds()
            untraced_norm += plain * NOMINAL_S / (0.5 * (before + middle))
            traced_norm += elapsed * NOMINAL_S / (0.5 * (middle + after))
            before = after
            if not problems:
                item = runner.items[j]
                for key, value in runner.workload.layer_facts(
                        item, results).items():
                    facts[key] = facts.get(key, 0) + value
        passes += 1
        used = time.perf_counter() - start
        if used * (passes + 1) / passes > seconds:
            break
    traced = passes * n_items
    untraced_rate = traced / untraced_norm
    traced_rate = traced / traced_norm
    totals = tracer.totals()

    def get(name, field):
        return totals[name][field] if name in totals else 0

    def count(name):
        return metric(get(name, "calls") / traced, "count/item")

    def seconds_(name, field="busy_s"):
        return metric(get(name, field) / traced, "s/item")

    ensemble_busy = (get("dynamics.empirical_permanence", "busy_s")
                     + get("dynamics.empirical_attractivity", "busy_s"))
    candidates = facts.get("qmt_trials", 0) + facts.get("qmt_rejected", 0)
    detectors = (get("scalar_map.find_period3", "calls")
                 + get("scalar_map.find_snap_back", "calls"))
    return {
        "systems.step.calls": count("systems.step"),
        "systems.step.busy_s": seconds_("systems.step"),
        "systems.step.us_per_call": metric(1e6 * ratio(
            get("systems.step", "busy_s"), get("systems.step", "calls")),
            "us"),
        "systems.as_state.calls": count("systems.as_state"),
        "systems.as_state.busy_s": seconds_("systems.as_state"),
        "systems.load_system.busy_s": seconds_("systems.load_system"),
        "dynamics.largest_lyapunov.self_s":
            seconds_("dynamics.largest_lyapunov", "self_s"),
        "dynamics.qp_jacobian.calls": count("dynamics.qp_jacobian"),
        "dynamics.qp_jacobian.busy_s": seconds_("dynamics.qp_jacobian"),
        "dynamics.qp_fixed_point.busy_s": seconds_("dynamics.qp_fixed_point"),
        "dynamics.empirical_permanence.busy_s":
            seconds_("dynamics.empirical_permanence"),
        "dynamics.empirical_attractivity.busy_s":
            seconds_("dynamics.empirical_attractivity"),
        "dynamics.ensemble.orbit_steps": metric(
            facts.get("orbit_steps", 0) / traced, "count/item"),
        "dynamics.ensemble.orbit_steps_per_s": metric(
            ratio(facts.get("orbit_steps", 0), ensemble_busy), "1/s"),
        "dynamics.ensemble.orbits_launched": metric(
            facts.get("orbits_launched", 0) / traced, "count/item"),
        "dynamics.ensemble.survival_ratio": metric(ratio(
            facts.get("orbits_survived", 0), facts.get("orbits_launched", 0)),
            "ratio"),
        "dynamics.simulate.calls": count("dynamics.simulate"),
        "dynamics.simulate.self_s": seconds_("dynamics.simulate", "self_s"),
        "dynamics.conjugacy_deviation.busy_s":
            seconds_("dynamics.conjugacy_deviation"),
        "transform.canonical_lv.busy_s": seconds_("transform.canonical_lv"),
        "transform.apply_qmt.calls": count("transform.apply_qmt"),
        "transform.apply_qmt.busy_s": seconds_("transform.apply_qmt"),
        "transform.class_invariants.busy_s":
            seconds_("transform.class_invariants"),
        "transform.map_state.calls": count("transform.map_state"),
        "transform.map_state.busy_s": seconds_("transform.map_state"),
        "transform.qmt_draw.candidates": metric(candidates / traced,
                                                "count/item"),
        "transform.qmt_draw.accept_ratio": metric(
            ratio(facts.get("qmt_trials", 0), candidates), "ratio"),
        "theorems.check_all_theorems.calls":
            count("theorems.check_all_theorems"),
        "theorems.check_all_theorems.busy_s":
            seconds_("theorems.check_all_theorems"),
        "scalar_map.threshold_scan.busy_s":
            seconds_("scalar_map.threshold_scan"),
        "scalar_map.find_period3.calls": count("scalar_map.find_period3"),
        "scalar_map.find_period3.busy_s": seconds_("scalar_map.find_period3"),
        "scalar_map.find_snap_back.calls": count("scalar_map.find_snap_back"),
        "scalar_map.find_snap_back.busy_s":
            seconds_("scalar_map.find_snap_back"),
        "scalar_map.xi.calls": count("scalar_map.xi"),
        "scalar_map.xi.busy_s": seconds_("scalar_map.xi"),
        "scalar_map.brentq.calls": count("scalar_map.brentq"),
        "scalar_map.brentq.busy_s": seconds_("scalar_map.brentq"),
        "scalar_map.scan.detector_calls": metric(detectors / traced,
                                                 "count/item"),
        "scalar_map.scan.bisection_share": metric(ratio(
            detectors - facts.get("grid_points", 0), detectors), "ratio"),
        "cli.main.self_s": seconds_("cli.main", "self_s"),
        "cli.build_analysis_report.self_s":
            seconds_("cli.build_analysis_report", "self_s"),
        "cli.render_report.busy_s": seconds_("cli.render_report"),
        "cli.write_scan_csv.busy_s": seconds_("cli.write_scan_csv"),
        "trace.items": metric(traced, "count"),
        "trace.untraced_items_per_norm_s": metric(untraced_rate,
                                                  "1/norm_s"),
        "trace.traced_items_per_norm_s": metric(traced_rate, "1/norm_s"),
        "trace.overhead_ratio": metric(traced_rate / untraced_rate, "ratio"),
    }


def run_all(args) -> int:
    """Every workload in its own process; one table of all metrics."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"perfbench: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode
        *lines, last = proc.stdout.strip().splitlines()
        for line in lines[1:]:  # the meta line is left out
            print(f"{name:16} {line}")
        result = json.loads(last)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        start = time.perf_counter()
        setup(args.workload, args.seed)
        print(time.perf_counter() - start)
        return 0
    if args.workload == "all":
        return run_all(args)

    shutil.rmtree(WORKDIR / args.workload, ignore_errors=True)
    cli, workload, items = setup(args.workload, args.seed)
    meta = dict(metadata(), workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace)
    print(json.dumps({"meta": meta}))
    runner = Runner(cli, workload, items)
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        metrics = per_layer(runner, tracer, args.seconds)
        tracer.write(WORKDIR / args.workload / f"trace-seed{args.seed}.jsonl",
                     meta)
    else:
        metrics = end_to_end(runner, args.workload, args.seed, args.seconds)
    for key, value in metrics.items():
        print(f"{key:40} {value['value']:<14.6g} {value['unit']}")
    print(json.dumps({"correct": not runner.failures,
                      "attempted": runner.attempted,
                      "failed": len(runner.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
