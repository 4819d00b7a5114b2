#!/usr/bin/env python3
"""Append perfbench run sets to BENCH_<workload>.json, or compare two of them.

    python3 tools/bench_entry.py append --workload dynamic-swap --label "parent" \\
        --records .bench_build/records --seeds 0-9
    python3 tools/bench_entry.py compare --workload static-fl --seeds 0-9 \\
        --parent ../parent/.bench_build/records --change .bench_build/records

Run from the repository root. Both read the perfbench records
<records>/<workload>-seed<s>-trace0.json of the given seeds, and the traced
records <workload>-seed<s>-trace1.json of the same seeds when there are any.

append adds to the committed trajectory BENCH_<workload>.json (created when
missing) one entry with:

  - label: free text naming the code measured (e.g. "parent", "change");
  - commit: HEAD when the runs were made, and source_stamp: perfbench's
    hash of the measured sources, which tells uncommitted code apart;
  - env: cores, heap, Spark master and parallelism, Java version;
  - seeds, runs, attempted and failed operations, and the seconds per run;
  - for each end-to-end metric of BENCHMARK.json: its unit, the median and
    the quartiles over the runs (statistics.quantiles, inclusive method);
  - per_layer: the median of each per-layer metric over the traced records
    of the same seeds, when there are any.

Every record must come from the same commit, sources and environment;
otherwise the script stops without writing.

compare reads two record directories of the same seeds, the parent's and
the change's (one run per seed and side, so each seed is a pair). For each
end-to-end metric it prints each side's median and quartiles, the change of
the median in %, the pairs the change wins (ties count for neither side),
whether the change's median is worse than the parent's by more than the
metric's BENCHMARK.json bound ("OUT") or not ("ok"), and whether the
difference of the medians exceeds the parent's quartile spread. It also
prints the failed operations per side, the seeds whose S digests differ,
and, when both sides have traced records, each per-layer median that is
not 0 on both sides.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

ENV_KEYS = ("nproc", "spark_master", "spark_default_parallelism", "max_heap_mb", "java_version")


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summary(values):
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def load(records, workload, seeds, trace):
    paths = [records / f"{workload}-seed{s}-trace{trace}.json" for s in seeds]
    missing = [str(p) for p in paths if not p.exists()]
    if trace == 0 and missing:
        sys.exit(f"bench_entry: missing records: {', '.join(missing)}")
    return [json.loads(p.read_text()) for p in paths if p.exists()]


def one(records, what, key):
    values = {json.dumps(key(r), sort_keys=True) for r in records}
    if len(values) != 1:
        sys.exit(f"bench_entry: the records differ in {what}: {sorted(values)}")
    return key(records[0])


def layer_medians(traced):
    names = sorted(set().union(*(r["per_layer"] for r in traced)))
    return {n: statistics.median(r["per_layer"][n] for r in traced if n in r["per_layer"]) for n in names}


def append(a, spec):
    runs = load(a.records, a.workload, a.seeds, 0)
    traced = load(a.records, a.workload, a.seeds, 1)
    both = runs + traced
    entry = {
        "label": a.label,
        "commit": one(both, "commit", lambda r: r["env"]["git_commit"]),
        "source_stamp": one(both, "sources", lambda r: r["env"]["source_stamp"]),
        "env": one(both, "environment", lambda r: {k: r["env"][k] for k in ENV_KEYS}),
        "seconds": one(runs, "run length", lambda r: r["seconds"]),
        "seeds": a.seeds,
        "runs": len(runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "all_correct": all(r["correct"] for r in both),
        "metrics": {m["name"]: {"unit": m["unit"], **summary([r["metrics"][m["name"]] for r in runs])}
                    for m in spec["end_to_end"]},
    }
    if traced:
        entry["per_layer"] = {"seeds": [r["seed"] for r in traced], "median": layer_medians(traced)}

    out = Path(f"BENCH_{a.workload}.json")
    doc = json.loads(out.read_text()) if out.exists() else {"workload": a.workload, "entries": []}
    doc["entries"].append(entry)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"bench_entry: {out}: entry {len(doc['entries'])} ({a.label}, {len(runs)} runs, "
          f"{entry['failed']} failed)")


def compare(a, spec):
    old, new = (load(d, a.workload, a.seeds, 0) for d in (a.parent, a.change))
    one(old + new, "run length", lambda r: r["seconds"])
    print(f"{a.workload}, seeds {a.seeds[0]}-{a.seeds[-1]}: {len(old)} pairs; failed operations "
          f"{sum(r['failed'] for r in old)} of {sum(r['attempted'] for r in old)} (parent), "
          f"{sum(r['failed'] for r in new)} of {sum(r['attempted'] for r in new)} (change)")
    print(f"{'metric':<11} {'parent median [q1, q3]':>28} {'change median [q1, q3]':>28} "
          f"{'change':>8} {'wins':>6} bound  beyond parent spread")
    for m in spec["end_to_end"]:
        name, sign = m["name"], (1 if m["better"] == "lower" else -1)
        p, c = ([r["metrics"][name] for r in side] for side in (old, new))
        ps, cs = summary(p), summary(c)
        pct = 100.0 * (cs["median"] - ps["median"]) / ps["median"] if ps["median"] else 0.0
        wins = sum(1 for x, y in zip(p, c) if sign * (x - y) > 0)
        inside = sign * pct <= 100.0 * m["bound"]
        beyond = abs(cs["median"] - ps["median"]) > ps["q3"] - ps["q1"]

        def fmt(q):
            return "{} [{}, {}]".format(*(f"{q[k]:.0f}" if abs(q[k]) >= 1e4 else f"{q[k]:.4g}"
                                          for k in ("median", "q1", "q3")))
        print(f"{name:<11} {fmt(ps):>28} {fmt(cs):>28} {pct:>+7.1f}% {wins:>3}/{len(p):<2} "
              f"{'ok' if inside else 'OUT':<6} {'yes' if beyond else 'no'}")
    differ = [r["seed"] for r, q in zip(old, new) if r["digests"] != q["digests"]]
    cells = sum(len(r["digests"]) for r in old)
    print(f"S digests: {cells} cells over {len(old)} seeds; "
          + (f"differ at seeds {differ}" if differ else "identical at every seed"))
    told, tnew = (load(d, a.workload, a.seeds, 1) for d in (a.parent, a.change))
    if told and tnew:
        lo, ln = layer_medians(told), layer_medians(tnew)
        print(f"per-layer medians, traced seeds {[r['seed'] for r in told]} -> {[r['seed'] for r in tnew]}:")
        for n in sorted(n for n in set(lo) | set(ln) if lo.get(n) or ln.get(n)):
            print(f"  {n:<40} {lo.get(n, float('nan')):>14.6g} -> {ln.get(n, float('nan')):<14.6g}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("append", "compare"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--workload", required=True)
        cmd.add_argument("--seeds", default="0-9", type=seed_list, help="e.g. 0-9 or 0,2,5-7")
    sub.choices["append"].add_argument("--label", required=True)
    sub.choices["append"].add_argument("--records", default=".bench_build/records", type=Path)
    sub.choices["compare"].add_argument("--parent", required=True, type=Path, help="the parent's records")
    sub.choices["compare"].add_argument("--change", default=".bench_build/records", type=Path,
                                        help="the change's records")
    a = ap.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    if a.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"bench_entry: {a.workload} is not a workload of BENCHMARK.json")
    (append if a.command == "append" else compare)(a, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
