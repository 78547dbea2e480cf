"""Run the benchmark in alternating parent/change pairs and write the pairs
file of a change.

For each workload, `bench/run.py --workload W --seed S --seconds T
--trace 0` runs from a `git archive` of the parent ref (HEAD by default)
unpacked into a temporary directory and from the working tree, once each
per pair.  The side that runs first alternates (the parent on even pair
indices), and pair i runs seed SEEDS[i], by default 11, 12, ...: seeds
held out from the reference seed 7.  The benchmark runs as it stands in
each tree; this script changes nothing in either.

The output file (`--out`, e.g. BENCH_<PR>.json) holds, per workload and
side, every run of each end-to-end metric with its median and quartiles
(`statistics.quantiles`, exclusive method), the runs that reported
`correct: true`, the failed operations, and per metric the pairs the
change won (strictly better in the direction `BENCHMARK.json` declares).

With `--claim WORKLOAD/METRIC` it also prints and records the gain rule
of the benchmark's method: the change wins at least nine tenths of the
pairs run, ties counting for neither, and its median beats the parent's
by more than the parent's interquartile range.  The exit status is 1 if
any run fails or a stated claim is not met, else 0.

Only local git runs; nothing is fetched.

Usage (from the repository root):

    python3 tools/bench_pairs.py --out BENCH_29.json [--ref REF]
        [--workloads collapse:10,profile_sweep:4,spectral:4] [--pairs N]
        [--seconds T] [--seeds S,S,...] [--claim collapse/wall_s]
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

from same_outputs import ROOT, unpack

RUN = os.path.join("bench", "run.py")


def bench(tree, workload, seed, seconds):
    """The last line of `bench/run.py`'s output in tree, parsed: correct,
    attempted, failed and metrics.  RuntimeError if the run fails."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d in %s exited %d:\n%s" % (
            workload, seed, tree, proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(results, names):
    """One side's runs, correct runs, failed operations and, per metric,
    median, quartiles and runs."""
    metrics = {}
    for name in names:
        runs = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(runs, n=4)
        metrics[name] = {"median": statistics.median(runs), "q1": q1,
                         "q3": q3, "runs": runs}
    return {"runs": len(results),
            "correct_runs": sum(bool(r["correct"]) for r in results),
            "failed_ops": sum(r["failed"] for r in results),
            "metrics": metrics}


def verdict(entry, metric, better):
    """The gain rule for one workload's metric: wins in at least nine
    tenths of the pairs and a median gap above the parent's IQR."""
    parent = entry["parent"]["metrics"][metric]
    change = entry["change"]["metrics"][metric]
    gap = parent["median"] - change["median"]
    if better == "higher":
        gap = -gap
    wins = entry["change_better_pairs"][metric]
    iqr = parent["q3"] - parent["q1"]
    return {"wins": wins, "pairs": entry["pairs"], "median_gap": gap,
            "median_change": gap / parent["median"], "parent_iqr": iqr,
            "met": wins >= 0.9 * entry["pairs"] and gap > iqr}


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="pairs file to write")
    ap.add_argument("--ref", default="HEAD", help="the parent commit")
    ap.add_argument("--workloads", default="collapse,profile_sweep,spectral",
                    help="WORKLOAD[:PAIRS],... (PAIRS defaults to --pairs)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=4.0)
    ap.add_argument("--seeds", help="comma-separated, one per pair "
                                    "(default 11, 12, ...)")
    ap.add_argument("--claim", metavar="WORKLOAD/METRIC")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"]
                  for m in json.load(fh)["end_to_end"]}
    plan = []
    for item in args.workloads.split(","):
        name, _, pairs = item.partition(":")
        plan.append((name, int(pairs) if pairs else args.pairs))
    most = max(pairs for _, pairs in plan)
    seeds = ([int(s) for s in args.seeds.split(",")] if args.seeds
             else list(range(11, 11 + most)))
    if len(seeds) < most or min(pairs for _, pairs in plan) < 2:
        ap.error("each workload needs at least 2 pairs and a seed per pair")
    parent_commit = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", args.ref], check=True,
        capture_output=True, text=True).stdout.strip()
    record = {
        "command": "python3 bench/run.py --workload <w> --seed <n> "
                   "--seconds %g --trace 0" % args.seconds,
        "protocol": "alternating parent/change pairs (parent first on even "
                    "pair index); parent = git archive of the parent "
                    "commit, change = this tree",
        "machine": "%d CPUs, %s, %s" % (os.cpu_count(), platform.machine(),
                                        platform.python_version()),
        "parent_commit": parent_commit,
        "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        parent_tree = os.path.join(tmp, "parent")
        unpack(args.ref, parent_tree)
        for workload, pairs in plan:
            sides = {"parent": [], "change": []}
            for i in range(pairs):
                order = [("parent", parent_tree), ("change", ROOT)]
                for side, tree in order if i % 2 == 0 else order[::-1]:
                    sides[side].append(bench(tree, workload, seeds[i],
                                             args.seconds))
                    print("%s pair %d seed %d %s: wall_s %.4f" % (
                        workload, i, seeds[i], side,
                        sides[side][-1]["metrics"]["wall_s"]["value"]),
                        flush=True)
            wins = {}
            for name in better:
                sign = 1.0 if better[name] == "lower" else -1.0
                wins[name] = sum(
                    sign * (p["metrics"][name]["value"]
                            - c["metrics"][name]["value"]) > 0.0
                    for p, c in zip(sides["parent"], sides["change"]))
            record["workloads"][workload] = {
                "seeds": seeds[:pairs], "pairs": pairs,
                "parent": summary(sides["parent"], better),
                "change": summary(sides["change"], better),
                "change_better_pairs": wins}
    ok = all(side["correct_runs"] == side["runs"] and not side["failed_ops"]
             for entry in record["workloads"].values()
             for side in (entry["parent"], entry["change"]))
    if args.claim:
        workload, metric = args.claim.split("/")
        result = verdict(record["workloads"][workload], metric,
                         better[metric])
        record["claim"] = dict(result, workload=workload, metric=metric)
        print("claim %s: the change wins %d of %d pairs (needs %.1f); "
              "median gap %.4g (%.1f %%) against the parent's IQR %.4g: %s"
              % (args.claim, result["wins"], result["pairs"],
                 0.9 * result["pairs"], result["median_gap"],
                 100.0 * result["median_change"], result["parent_iqr"],
                 "MET" if result["met"] else "NOT MET"))
        ok = ok and result["met"]
    for workload, entry in record["workloads"].items():
        for name in entry["change_better_pairs"]:
            p, c = (entry[side]["metrics"][name] for side in
                    ("parent", "change"))
            print("%-14s %-12s parent %.4g [%.4g, %.4g]  change %.4g "
                  "[%.4g, %.4g]  change better in %d of %d" % (
                      workload, name, p["median"], p["q1"], p["q3"],
                      c["median"], c["q1"], c["q3"],
                      entry["change_better_pairs"][name], entry["pairs"]))
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
