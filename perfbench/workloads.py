"""Seeded inputs and output oracles for the three benchmark workloads.

Each workload turns the benchmark seed into a fixed list of items (the
same seed gives byte-identical inputs), turns an item into the argv
lists passed to ``qpd.cli.main``, and checks the captured output of an
item against an oracle computed here, independently of ``qpd``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np

#: Items per generated list; runs cycle over the list, so a (fixture,
#: seed) pair of analyze-verify repeats every ITEMS_PER_LIST items.
ITEMS_PER_LIST = 10

FIXTURES = (
    "example1_lv.json",
    "example1_qp_rho05.json",
    "example1_qp_rho10.json",
    "example2_predator_prey.json",
    "example3_qp_rho32.json",
)

#: Applicable theorems per fixture; none of them depends on the seed.
GOLDEN_THEOREMS = {
    "example1_lv.json": {"T2", "T3", "T5", "T6"},
    "example1_qp_rho05.json": {"T2", "T3", "T5"},
    "example1_qp_rho10.json": {"T2", "T3", "T5"},
    "example2_predator_prey.json": {"T4", "T5", "T6"},
    "example3_qp_rho32.json": {"T2", "T5", "T7"},
}
CHAOTIC_FIXTURE = "example3_qp_rho32.json"

SCAN_RHO_MAX = 3.5
SCAN_STEP = 0.01
#: Reference thresholds of the paper and the acceptance tolerance.
SCAN_REFERENCES = {"period3": 3.13, "snapback": 2.89}
SCAN_TOLERANCE = 0.03

CONJUGACY_N = 6
CONJUGACY_TRIALS = 20
CONJUGACY_STEPS = 500
LV_SPECTRAL_RADIUS_MAX = 0.9
B_CONDITION_MAX = 10.0


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _cli_seeds(rng) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=ITEMS_PER_LIST)]


class Workload:
    """One workload: item generation, argv construction and oracle."""

    name = ""
    stream = 0

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir

    def generate(self, seed: int) -> list[dict]:
        raise NotImplementedError

    def argvs(self, item: dict) -> list[list[str]]:
        raise NotImplementedError

    def check(self, item: dict, results: list[tuple[int, str]]) -> list[str]:
        """Return the oracle failures of one item (empty when correct)."""
        raise NotImplementedError

    def layer_facts(self, item: dict, results) -> dict:
        """Work counts read from an item's output, for the traced run."""
        return {}


class AnalyzeVerify(Workload):
    name = "analyze-verify"
    stream = 1

    def generate(self, seed):
        seeds = _cli_seeds(_rng(seed, self.stream))
        return [{"index": i, "fixture": FIXTURES[i % len(FIXTURES)],
                 "seed": s} for i, s in enumerate(seeds)]

    def _report_path(self, item):
        return self.workdir / f"report-{item['index']}.json"

    def argvs(self, item):
        return [["analyze", str(self.root / "fixtures" / item["fixture"]),
                 "--verify", "--json", str(self._report_path(item)),
                 "--seed", str(item["seed"])]]

    def check(self, item, results):
        (code, _), = results
        if code != 0:
            return [f"exit code {code}"]
        raw = self._report_path(item).read_bytes()
        digest = hashlib.sha256(raw).hexdigest()
        problems = []
        seen = item.setdefault("digest", digest)
        if seen != digest:
            problems.append("report JSON differs from an earlier run of "
                            "the same (fixture, seed)")
        report = json.loads(raw)
        fixture = item["fixture"]
        applicable = {t["theorem"] for t in report["theorems"]
                      if t["applicable"]}
        if applicable != GOLDEN_THEOREMS[fixture]:
            problems.append(f"applicable theorems {sorted(applicable)}")
        verify = report["verify"]
        if verify["disagreements"]:
            problems.append(f"disagreements {verify['disagreements']}")
        if not verify["permanence"]["pass"]:
            problems.append("permanence probe failed")
        chaotic = fixture == CHAOTIC_FIXTURE
        if verify["attractivity"].get("pass", False) == chaotic:
            problems.append("attractivity verdict "
                            f"{verify['attractivity'].get('pass')}")
        lyap = verify["largest_lyapunov"]
        if not isinstance(lyap, float) or (lyap > 0.0) != chaotic:
            problems.append(f"largest Lyapunov estimate {lyap}")
        return problems

    def layer_facts(self, item, results):
        verify = json.loads(self._report_path(item).read_bytes())["verify"]
        launched = steps = lost = 0
        for probe in (verify["permanence"], verify["attractivity"]):
            if "ensemble_size" not in probe:
                continue
            stats = probe["statistics"]
            guards = stats["guard_terminations"]
            launched += probe["ensemble_size"]
            steps += probe["ensemble_size"] * probe["horizon"]
            lost += guards
            if guards:
                # Only the first guard event is reported; charge every
                # guarded orbit with the steps the first one lost.
                steps -= guards * (probe["horizon"] - stats["first_guard"][1])
        return {"orbits_launched": launched, "orbits_survived":
                launched - lost, "orbit_steps": steps}


class ScanThresholds(Workload):
    name = "scan-thresholds"
    stream = 2
    kinds = ("period3", "snapback")

    def generate(self, seed):
        deltas = _rng(seed, self.stream).uniform(0.0, 0.01,
                                                 size=ITEMS_PER_LIST)
        return [{"index": i, "rho_min": 2.5 + float(d)}
                for i, d in enumerate(deltas)]

    def _csv_path(self, item, kind):
        return self.workdir / f"scan-{item['index']}-{kind}.csv"

    def argvs(self, item):
        return [["scan", "--kind", kind, "--rho-min", repr(item["rho_min"]),
                 "--rho-max", repr(SCAN_RHO_MAX), "--step", repr(SCAN_STEP),
                 "--out", str(self._csv_path(item, kind))]
                for kind in self.kinds]

    def _grid(self, item, kind):
        with open(self._csv_path(item, kind), newline="",
                  encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        return [float(r["rho"]) for r in rows]

    def check(self, item, results):
        problems = []
        thresholds = {}
        for kind, (code, out) in zip(self.kinds, results):
            if code != 0:
                problems.append(f"{kind}: exit code {code}")
                continue
            summary = json.loads(out.strip().splitlines()[-1])
            if not summary["detected"]:
                problems.append(f"{kind}: nothing detected")
                continue
            thresholds[kind] = summary["threshold"]
            if abs(summary["threshold"] - SCAN_REFERENCES[kind]) > SCAN_TOLERANCE:
                problems.append(f"{kind}: threshold {summary['threshold']}")
            rhos = self._grid(item, kind)
            gaps = np.diff(rhos)
            if (not rhos or rhos[0] != item["rho_min"]
                    or np.any(np.abs(gaps - SCAN_STEP) > 1e-9)
                    or abs(rhos[-1] - SCAN_RHO_MAX) > SCAN_STEP / 2):
                problems.append(f"{kind}: CSV is not one row per grid point "
                                f"({len(rhos)} rows)")
        if len(thresholds) == 2 and thresholds["snapback"] > thresholds["period3"]:
            problems.append("snapback threshold above period3 threshold")
        return problems

    def layer_facts(self, item, results):
        return {"grid_points": sum(len(self._grid(item, kind))
                                   for kind in self.kinds)}


def stable_lv_image(rng, n=CONJUGACY_N) -> dict:
    """A QP system that is the QMT image of a stable competitive LV map.

    x* is log-uniform on [0.5, 2]; A_lv is competitive and diagonally
    dominant with I + diag(x*) A_lv of spectral radius below 0.9, and
    lam_lv = -A_lv x*.  With B drawn to cond(B) < 10, the system is
    (B^-1 A_lv, B, B^-1 lam_lv), whose class invariants are (A_lv, lam_lv).
    """
    while True:
        x_star = np.exp(rng.uniform(math.log(0.5), math.log(2.0), size=n))
        diag = rng.uniform(0.7, 1.3, size=n)
        off = rng.uniform(0.0, 1.0, size=(n, n))
        np.fill_diagonal(off, 0.0)
        off *= (0.3 * diag / off.sum(axis=1))[:, None]
        A_lv = -(np.diag(diag) + off) / x_star[:, None]
        linear = np.eye(n) + x_star[:, None] * A_lv
        if np.max(np.abs(np.linalg.eigvals(linear))) < LV_SPECTRAL_RADIUS_MAX:
            break
    lam_lv = -A_lv @ x_star
    while True:
        B = np.eye(n) + rng.uniform(-0.4, 0.4, size=(n, n))
        if np.linalg.cond(B) < B_CONDITION_MAX:
            break
    return {"name": "perfbench stable LV image", "n": n,
            "A": np.linalg.solve(B, A_lv).tolist(), "B": B.tolist(),
            "lambda": np.linalg.solve(B, lam_lv).tolist()}


class ConjugacyN6(Workload):
    name = "conjugacy-n6"
    stream = 3

    def generate(self, seed):
        rng = _rng(seed, self.stream)
        items = []
        for i, s in enumerate(_cli_seeds(rng)):
            path = self.workdir / f"system-{i}.json"
            path.write_text(json.dumps(stable_lv_image(rng), indent=1) + "\n",
                            encoding="utf-8")
            items.append({"index": i, "path": str(path), "seed": s})
        return items

    def argvs(self, item):
        return [["conjugacy", item["path"], "--seed", str(item["seed"]),
                 "--trials", str(CONJUGACY_TRIALS),
                 "--steps", str(CONJUGACY_STEPS)]]

    def check(self, item, results):
        (code, out), = results
        if code != 0:
            return [f"exit code {code}"]
        if "all trials within budget" not in out:
            return ["conjugacy trials exceeded their budget"]
        return []

    def layer_facts(self, item, results):
        (_, out), = results
        rejected = int(re.search(r"rejected candidates: (\d+)", out).group(1))
        return {"qmt_trials": CONJUGACY_TRIALS, "qmt_rejected": rejected}


WORKLOADS = {w.name: w for w in (AnalyzeVerify, ScanThresholds, ConjugacyN6)}
