#!/usr/bin/env python3
"""Pair the perfbench runs of a parent and a change checkout into one
``BENCH_<slug>.json`` at the root of the change checkout.

Each checkout holds the records ``perfbench/run.py`` wrote to its
``.bench_out/`` as ``result-<workload>-<seed>-trace0.json``.  The runs of
the two sides are paired by workload and seed:

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --seeds 201 202 203 --slug my_change --what "what the change does"

For every end-to-end metric of ``BENCHMARK.json`` the file gives each
side's runs, median, inclusive quartiles and IQR, the pairs the change
won (by the metric's ``better`` direction) and tied, whether the
medians differ by more than the parent's IQR, whether that makes a
resolved gain (the change won at least nine tenths of the pairs and its
median is better by more than the parent's IQR), and whether the
change's median is worse than the parent's by more than the metric's
``bound`` (relative to the parent's median): a would-be regression.  It also
gives both sides' output digests per seed, whether every run was
correct, which side finished first in each pair (from the records'
modification times), each side's environment, and each side's lines of
``src/hmil/*.py`` (as ``wc -l`` counts them) with their difference.  A
workload with no record on either side is left out; one with records
missing on one side is an error.  A pair whose records differ in usable
CPUs, BLAS threads, Python or numpy version exits 2: its times do not
compare.
"""

import argparse
import glob
import json
import os
import statistics
import sys

SIDES = ("parent", "change")
# environment fields the two runs of a pair must share
SAME_ENV = ("cpus_usable", "blas_threads", "python", "numpy")
METHOD = ("alternating parent/change pairs, one pair per seed, each side in "
          "its own checkout, run one at a time; median and quartiles "
          "(inclusive method) over the runs of each side; "
          "change_better_pairs counts the pairs the change won, ties "
          "counting for neither; median_difference_exceeds_parent_iqr is "
          "false where the runs cannot tell the sides apart; "
          "gain_resolved is true where the change won at least 9/10 of "
          "the pairs and its median is better than the parent's by more "
          "than the parent's IQR; "
          "change_worse_beyond_bound is true where the change's median is "
          "worse than the parent's by more than the metric's bound in "
          "BENCHMARK.json, as a fraction of the parent's median")


def _record_path(checkout: str, workload: str, seed: int) -> str:
    return os.path.join(checkout, ".bench_out",
                        f"result-{workload}-{seed}-trace0.json")


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def source_lines(checkout: str) -> int:
    """Newlines in the checkout's ``src/hmil/*.py``."""
    total = 0
    for path in glob.glob(os.path.join(checkout, "src", "hmil", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def summarize(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"runs": runs, "median": statistics.median(runs),
            "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare(parent: list[float], change: list[float], better: str,
            bound: float) -> dict:
    """Both sides' summaries, the pair wins of the change, whether they
    resolve a gain, and whether its median is worse than the parent's by
    more than ``bound`` times the parent's median."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    sides = {"parent": summarize(parent), "change": summarize(change)}
    diff = sides["change"]["median"] - sides["parent"]["median"]
    exceeds = abs(diff) > sides["parent"]["iqr"]
    return sides | {"change_better_pairs": wins, "ties": ties,
                    "median_difference_exceeds_parent_iqr": exceeds,
                    "gain_resolved": (10 * wins >= 9 * len(parent)
                                      and exceeds and sign * diff < 0),
                    "change_worse_beyond_bound":
                        sign * diff > bound * abs(sides["parent"]["median"])}


def pair_workload(checkouts: dict, workload: str, seeds: list[int],
                  metrics: list[dict]) -> dict | None:
    paths = {side: [_record_path(checkouts[side], workload, s) for s in seeds]
             for side in SIDES}
    present = [os.path.isfile(p) for side in SIDES for p in paths[side]]
    if not any(present):
        return None
    if not all(present):
        missing = [p for side in SIDES for p in paths[side]
                   if not os.path.isfile(p)]
        raise SystemExit(f"error: missing records: {', '.join(missing)}")
    records = {side: [_load(p) for p in paths[side]] for side in SIDES}
    for i, seed in enumerate(seeds):
        envs = [{k: records[side][i]["environment"].get(k) for k in SAME_ENV}
                for side in SIDES]
        if envs[0] != envs[1]:
            print(f"error: {workload} seed {seed} ran in different "
                  f"environments, parent {envs[0]} and change {envs[1]}: a "
                  "gain across CPU counts or libraries is meaningless",
                  file=sys.stderr)
            raise SystemExit(2)
    first = [min(SIDES, key=lambda side: os.path.getmtime(paths[side][i]))
             for i in range(len(seeds))]
    digests = {str(s): {side: records[side][i]["output_sha256"]
                        for side in SIDES}
               for i, s in enumerate(seeds)}
    return {
        "seeds": seeds, "pairs": len(seeds), "first_in_pair": first,
        "all_correct": all(r["correct"] for side in SIDES
                           for r in records[side]),
        "output_sha256": digests,
        "outputs_equal": all(d["parent"] == d["change"]
                             for d in digests.values()),
        "metrics": {m["name"]: compare(
            *[[r["metrics"][m["name"]]["value"] for r in records[side]]
              for side in SIDES], m["better"], m["bound"]) for m in metrics},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", required=True,
                        help="checkout of the change; the BENCH file "
                        "goes to its root")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--slug", required=True)
    parser.add_argument("--what", required=True,
                        help="one sentence on the change and its claim")
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent, "change": args.change}
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = {}
    for wl in spec["workloads"]:
        paired = pair_workload(checkouts, wl["name"], args.seeds,
                               spec["end_to_end"])
        if paired is not None:
            workloads[wl["name"]] = paired
    if not workloads:
        print("error: no records for these seeds", file=sys.stderr)
        return 2
    sample = {side: _load(_record_path(checkouts[side], next(iter(workloads)),
                                       args.seeds[0]))
              for side in SIDES}
    environment = {side: sample[side]["environment"] for side in SIDES}
    lines = {side: source_lines(checkouts[side]) for side in SIDES}
    bench = {
        "what": args.what,
        "command": (f"python3 perfbench/run.py --workload W --seed S "
                    f"--seconds {sample['change']['seconds']:g} --trace 0"),
        "method": METHOD,
        "environment": environment,
        "git": {f"{side}_commit": environment[side].get("git_sha")
                for side in SIDES},
        "src_hmil_lines": lines | {
            "difference": lines["change"] - lines["parent"]},
        "workloads": workloads,
    }
    path = os.path.join(args.change, f"BENCH_{args.slug}.json")
    with open(path, "w") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, wl in workloads.items():
        for metric, m in wl["metrics"].items():
            print(f"{name} {metric}: {m['parent']['median']:.4g} -> "
                  f"{m['change']['median']:.4g}, change won "
                  f"{m['change_better_pairs']}/{wl['pairs']}, exceeds "
                  f"parent IQR: {m['median_difference_exceeds_parent_iqr']}, "
                  f"gain resolved: {m['gain_resolved']}, "
                  f"worse beyond bound: {m['change_worse_beyond_bound']}")
    print(f"src/hmil lines: {lines['parent']} -> {lines['change']} "
          f"({lines['change'] - lines['parent']:+d})")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
