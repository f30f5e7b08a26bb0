#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

    python3 perfbench/tests/selftest.py

Run from the repository root. For every workload in BENCHMARK.json it:

- checks that perfbench/workloads.json records the same workload, and
  that its recipe, why, stresses and bypasses match what tmo_bench
  prints (tmo_bench --describe);
- makes a shortened untraced run (--quick) and checks that it prints
  every end-to-end metric with its unit, that every check passes and
  that failed_host_frac is 0;
- makes a shortened traced run and checks that it prints every
  per-layer metric with its unit, and that the layers the workload is
  said to stress are active in it and the ones it bypasses are idle
  (see ACTIVE below).

Exits 1 with a list of failures, 0 when everything holds.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.dont_write_bytecode = True
import run  # noqa: E402  (perfbench/run.py: build())

failures = []

# A layer's busy share counts as active from this fraction of wall time.
BUSY = 0.005


def busy(layer):
    return lambda m: m[f"{layer}.est_busy_frac"] >= BUSY


# Whether a traced run's per-layer metrics show the layer at work.
ACTIVE = {
    "workload": busy("workload"),
    "mem": lambda m: m["mem.pgscan_per_host_s"] > 0 or busy("mem")(m),
    "tier": lambda m: busy("tier")(m) or any(
        m[f"tier.{c}_per_host_s"] > 0 for c in (
            "zswpout", "zswpin", "pswpout", "pswpin", "demote", "promote")),
    "backend": lambda m: m["backend.ssd_write_bytes_per_host_s"] > 0 or
    m["tier.pswpin_per_host_s"] > 0,
    "core": lambda m: m["core.reclaim_requested_bytes_per_host_s"] > 0,
    "psi": lambda m: m["psi.mem_some_frac"] > 0 or busy("psi")(m),
    "stats": busy("stats"),
    "sim": busy("sim"),
    "host": busy("host"),
    "obs": lambda m: m["obs.export_bytes"] > 0 or busy("obs")(m),
}


def expect(cond, message):
    if not cond:
        failures.append(message)
    return cond


def run_bench(workload, trace):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--quick"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    tag = f"{workload} trace={trace}"
    if not expect(proc.returncode == 0,
                  f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}"):
        return None, []
    lines = proc.stdout.rstrip("\n").splitlines()
    return json.loads(lines[-1]), lines[:-1]


def check_metrics(tag, report, wanted):
    got = report["metrics"]
    names = {m["name"] for m in wanted}
    expect(set(got) == names,
           f"{tag}: metric names differ: {sorted(set(got) ^ names)}")
    for m in wanted:
        value = got.get(m["name"])
        if value is None:
            continue
        expect(value.get("unit") == m["unit"],
               f"{tag}: {m['name']} unit {value.get('unit')} != {m['unit']}")
        number = value.get("value")
        expect(isinstance(number, (int, float)) and math.isfinite(number),
               f"{tag}: {m['name']} has no finite value")


def check_labels(tag, report, entry):
    values = {k: v["value"] for k, v in report["metrics"].items()}
    for layer in entry["stresses"]:
        expect(ACTIVE[layer](values), f"{tag}: stresses {layer}, but idle")
    for layer in entry["bypasses"]:
        expect(not ACTIVE[layer](values),
               f"{tag}: bypasses {layer}, but active")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(BENCH, "workloads.json")) as f:
        recorded = {w["name"]: w for w in json.load(f)["workloads"]}
    binary = run.build()

    for workload in spec["workloads"]:
        name = workload["name"]
        entry = recorded.get(name)
        if not expect(entry is not None, f"{name}: not in workloads.json"):
            continue
        described = subprocess.run(
            [binary, "--workload", name, "--seed", str(entry["seed"]),
             "--describe"], capture_output=True, text=True, check=True)
        lines = dict(line.split(" ", 1) for line in
                     described.stdout.splitlines() if " " in line)
        expect(lines.get("recipe") == entry["recipe"],
               f"{name}: recipe {lines.get('recipe')!r} != workloads.json")
        expect(lines.get("why") == entry["why"], f"{name}: why differs")
        expect(lines.get("stresses") == ",".join(entry["stresses"]),
               f"{name}: stresses differ")
        expect(lines.get("bypasses") == ",".join(entry["bypasses"]),
               f"{name}: bypasses differ")

        report, text = run_bench(name, 0)
        if report is not None:
            tag = f"{name} untraced"
            expect(report["correct"] is True, f"{tag}: checks failed")
            expect(report["failed"] == 0 and report["attempted"] > 0,
                   f"{tag}: attempted/failed {report['attempted']}/"
                   f"{report['failed']}")
            check_metrics(tag, report, spec["end_to_end"])
            expect("metric failed_host_frac = 0 ratio" in text,
                   f"{tag}: failed_host_frac is not 0")
            checks = [line for line in text if line.startswith("check ")]
            for needed in ("requests_completed", "savings_pct_p50",
                           "pgscan", "pgsteal", "tier_demoted",
                           "tier_promoted", "digest", "reps_identical"):
                expect(any(line.startswith(f"check {needed} ")
                           for line in checks),
                       f"{tag}: no check {needed}")
            for line in checks:
                if line.startswith(("check reps_identical",
                                    "check requests_conserved",
                                    "check serial_parallel_equal")):
                    expect(line.split(" = ")[1].startswith("1"),
                           f"{tag}: {line}")
        report, _ = run_bench(name, 1)
        if report is not None:
            expect(report["correct"] is True, f"{name} traced: checks failed")
            check_metrics(f"{name} traced", report, spec["per_layer"])
            check_labels(f"{name} traced", report, entry)

    if failures:
        print("selftest FAILED:")
        for failure in failures:
            print("  " + failure)
        return 1
    print(f"selftest OK ({len(spec['workloads'])} workloads)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
