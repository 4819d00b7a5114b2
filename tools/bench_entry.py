#!/usr/bin/env python3
"""Append one entry to the committed trajectory BENCH_<workload>.json.

    python3 tools/bench_entry.py --workload dynamic-swap --label "parent" \\
        --records .bench_build/records --seeds 0-9

Run from the repository root. Reads the perfbench records
<records>/<workload>-seed<s>-trace0.json of the given seeds and appends to
BENCH_<workload>.json (created when missing) one entry with:

  - label: free text naming the code measured (e.g. "parent", "change");
  - commit: HEAD when the runs were made, and source_stamp: perfbench's
    hash of the measured sources, which tells uncommitted code apart;
  - env: cores, heap, Spark master and parallelism, Java version;
  - seeds, runs, attempted and failed operations, and the seconds per run;
  - for each end-to-end metric of BENCHMARK.json: its unit, the median and
    the quartiles over the runs (statistics.quantiles, inclusive method);
  - per_layer: the median of each per-layer metric over the traced records
    (<workload>-seed<s>-trace1.json) of the same seeds, when there are any.

Every record must come from the same commit, sources and environment;
otherwise the script stops without writing.
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


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--label", required=True)
    ap.add_argument("--records", default=".bench_build/records", type=Path)
    ap.add_argument("--seeds", default="0-9", type=seed_list, help="e.g. 0-9 or 0,2,5-7")
    a = ap.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    if a.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"bench_entry: {a.workload} is not a workload of BENCHMARK.json")
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
        names = sorted(set().union(*(r["per_layer"] for r in traced)))
        entry["per_layer"] = {
            "seeds": [r["seed"] for r in traced],
            "median": {n: statistics.median(r["per_layer"][n] for r in traced if n in r["per_layer"])
                       for n in names},
        }

    out = Path(f"BENCH_{a.workload}.json")
    doc = json.loads(out.read_text()) if out.exists() else {"workload": a.workload, "entries": []}
    doc["entries"].append(entry)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"bench_entry: {out}: entry {len(doc['entries'])} ({a.label}, {len(runs)} runs, "
          f"{entry['failed']} failed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
