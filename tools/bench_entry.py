#!/usr/bin/env python3
"""Run perfbench pairs, append run sets to BENCH_<workload>.json, or compare two.

    python3 tools/bench_entry.py pairs --workload static-fl --seeds 0-9 \\
        --parent-root ../parent
    python3 tools/bench_entry.py append --workload dynamic-swap --label "parent" \\
        --records .bench_build/records --seeds 0-9
    python3 tools/bench_entry.py compare --workload static-fl --seeds 0-9 \\
        --parent ../parent/.bench_build/records --change .bench_build/records

Run from the repository root.

pairs runs perfbench/run.py for BENCHMARK.json's run_seconds once per seed
in the parent checkout and once in this one, alternately: even seeds run the parent first, odd seeds the
change first. Around each run it reads the 1-minute load average from
/proc/loadavg and the CPU time counters from /proc/stat, and writes the
load before and after the run and the share of CPU time stolen by the
hypervisor during it (steal %) next to that run's record, as
<workload>-seed<s>-trace<t>.machine.json. Each side writes its records
under its own .bench_build/, where this script reads them: CARGO_TARGET_DIR,
which perfbench/run.py would use in place of .bench_build/, is not passed on.

append and compare read the perfbench records
<records>/<workload>-seed<s>-trace0.json of the given seeds, and the traced
records <workload>-seed<s>-trace1.json of the same seeds when there are any.
A traced record whose source_stamp is not the untraced runs' stamp (one
left by an earlier commit) is skipped, and its name printed.

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
    of the same seeds, when there are any;
  - machine: the medians of the load before and after each run and of its
    steal %, when pairs recorded them.

Every record must come from the same commit, sources and environment;
otherwise the script stops without writing.

compare reads two record directories of the same seeds, the parent's and
the change's (one run per seed and side, so each seed is a pair). For each
end-to-end metric it prints each side's median and quartiles, the change of
the median in %, the pairs the change wins (ties count for neither side),
a verdict against the metric's BENCHMARK.json bound, and whether the
difference of the medians exceeds the parent's quartile spread. The
verdict is "OUT" when the change's median is worse than the parent's by
more than the bound; "unresolved" when it is not, but the parent's
quartile spread, relative to the parent's median, is wider than the bound
and the change does not win every pair, so the runs cannot tell a
regression within the bound from noise; and "ok" otherwise. It also
prints the failed operations per side, each side's machine medians when
pairs recorded them, the seeds and cells whose S digests differ, and,
when both sides have traced records, each per-layer median that is
not 0 on both sides.

Beside those columns, which it replaces none of, compare prints each
end-to-end metric's paired effect: the median over the pairs of
log(change / parent), shown as the % change exp(median) - 1, with a 95%
distribution-free interval for it from the sign test: the j-th smallest
and j-th largest per-pair log ratios, for the largest j whose two-sided
binomial tail 2·P(Binom(pairs, 1/2) < j) is at most 0.05 (j = 2 for 10
pairs, a coverage of 97.9%). It prints "n/a" for the effect when a value
on either side is 0 (no ratio), and for the interval alone when there
are fewer than 6 pairs, too few for any j. Each ratio compares two runs
made back to back, so a machine that drifts between pairs moves the
quartiles of each side more than the effect; an interval that excludes 0
is a paired change at the 5% level.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ENV_KEYS = ("nproc", "spark_master", "spark_default_parallelism", "max_heap_mb", "java_version")
MACHINE_KEYS = ("load_before", "load_after", "steal_pct")


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


def sign_rank(n, alpha=0.05):
    """The largest j with 2·P(Binom(n, 1/2) < j) <= alpha, or 0 when none:
    the j-th smallest and largest of n paired values bound their median
    with confidence at least 1 - alpha."""
    j, tail = 0, 0.0
    while j < n and 2 * (tail + math.comb(n, j) / 2 ** n) <= alpha:
        tail += math.comb(n, j) / 2 ** n
        j += 1
    return j


def paired_effect(parent, change):
    """The median per-pair log ratio change/parent as a % change, with its
    sign-test interval, formatted; "n/a" when a side has a 0."""
    if any(x <= 0 or y <= 0 for x, y in zip(parent, change)):
        return "n/a"
    r = sorted(math.log(y / x) for x, y in zip(parent, change))
    j = sign_rank(len(r))

    def pct(x):
        return f"{100.0 * math.expm1(x):+.1f}%"
    return f"{pct(statistics.median(r))} " + (f"[{pct(r[j - 1])}, {pct(r[-j])}]" if j else "[n/a]")


def load(records, workload, seeds, trace, stamp=None):
    """The records of these seeds; with a stamp, only those of the sources
    it names, printing the name of each record skipped."""
    paths = [records / f"{workload}-seed{s}-trace{trace}.json" for s in seeds]
    missing = [str(p) for p in paths if not p.exists()]
    if trace == 0 and missing:
        sys.exit(f"bench_entry: missing records: {', '.join(missing)}")
    out = []
    for p in paths:
        if p.exists():
            r = json.loads(p.read_text())
            if stamp is None or r["env"]["source_stamp"] == stamp:
                out.append(r)
            else:
                print(f"bench_entry: skipping {p}: sources {r['env']['source_stamp']}, not the runs' {stamp}")
    return out


def traced_like(records, workload, seeds, runs):
    """The traced records of these seeds that measure the same sources as
    the untraced runs."""
    return load(records, workload, seeds, 1, one(runs, "sources", lambda r: r["env"]["source_stamp"]))


def machine(records, workload, seeds):
    """The medians of the machine samples pairs wrote next to the untraced
    records of these seeds, or None when there are none."""
    paths = [records / f"{workload}-seed{s}-trace0.machine.json" for s in seeds]
    samples = [json.loads(p.read_text()) for p in paths if p.exists()]
    if not samples:
        return None
    return {"runs": len(samples), **{k: statistics.median(m[k] for m in samples) for k in MACHINE_KEYS}}


def cpu_sample():
    """The 1-minute load average and the CPU time counters user..steal."""
    load = float(Path("/proc/loadavg").read_text().split()[0])
    ticks = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]]
    return load, ticks


def pairs(a, spec):
    sides = {"parent": a.parent_root.resolve(), "change": Path.cwd()}
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    failed = 0
    for s in a.seeds:
        for side in (("parent", "change") if s % 2 == 0 else ("change", "parent")):
            root = sides[side]
            load0, t0 = cpu_sample()
            r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", a.workload, "--seed", str(s),
                                "--seconds", str(spec["run_seconds"]), "--trace", str(a.trace)],
                               cwd=root, env=env, stdout=subprocess.PIPE, text=True)
            load1, t1 = cpu_sample()
            d = [y - x for x, y in zip(t0, t1)]
            sample = {"load_before": load0, "load_after": load1,
                      "steal_pct": 100.0 * d[7] / sum(d) if sum(d) else 0.0}
            records = root / ".bench_build/records"
            records.mkdir(parents=True, exist_ok=True)
            (records / f"{a.workload}-seed{s}-trace{a.trace}.machine.json").write_text(json.dumps(sample) + "\n")
            failed += r.returncode != 0
            print(f"pairs: {a.workload} seed {s} {side}: exit {r.returncode}, load {load0:.2f} -> {load1:.2f}, "
                  f"steal {sample['steal_pct']:.2f}%", flush=True)
    return 1 if failed else 0


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
    traced = traced_like(a.records, a.workload, a.seeds, runs)
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
    m = machine(a.records, a.workload, a.seeds)
    if m:
        entry["machine"] = m

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
    for side, d in (("parent", a.parent), ("change", a.change)):
        m = machine(d, a.workload, a.seeds)
        if m:
            print(f"machine ({side}, {m['runs']} runs): median load {m['load_before']:.2f} before, "
                  f"{m['load_after']:.2f} after; median steal {m['steal_pct']:.2f}%")
    print(f"{'metric':<11} {'parent median [q1, q3]':>28} {'change median [q1, q3]':>28} "
          f"{'change':>8} {'wins':>6} {'bound':<10} {'beyond parent spread':<20} paired effect [95%]")
    for m in spec["end_to_end"]:
        name, sign = m["name"], (1 if m["better"] == "lower" else -1)
        p, c = ([r["metrics"][name] for r in side] for side in (old, new))
        ps, cs = summary(p), summary(c)
        pct = 100.0 * (cs["median"] - ps["median"]) / ps["median"] if ps["median"] else 0.0
        wins = sum(1 for x, y in zip(p, c) if sign * (x - y) > 0)
        inside = sign * pct <= 100.0 * m["bound"]
        spread = ps["q3"] - ps["q1"]
        unresolved = spread > m["bound"] * abs(ps["median"]) and wins < len(p)
        beyond = abs(cs["median"] - ps["median"]) > spread

        def fmt(q):
            return "{} [{}, {}]".format(*(f"{q[k]:.0f}" if abs(q[k]) >= 1e4 else f"{q[k]:.4g}"
                                          for k in ("median", "q1", "q3")))
        print(f"{name:<11} {fmt(ps):>28} {fmt(cs):>28} {pct:>+7.1f}% {wins:>3}/{len(p):<2} "
              f"{'OUT' if not inside else 'unresolved' if unresolved else 'ok':<10} {'yes' if beyond else 'no':<20} "
              f"{paired_effect(p, c)}")
    differ = {r["seed"]: sorted(c for c in r["digests"] if r["digests"][c] != q["digests"].get(c))
              for r, q in zip(old, new) if r["digests"] != q["digests"]}
    cells = sum(len(r["digests"]) for r in old)
    print(f"S digests: {cells} cells over {len(old)} seeds; "
          + (f"differ at seeds {sorted(differ)}" if differ else "identical at every seed"))
    for seed, cs in differ.items():
        print(f"  seed {seed}: {', '.join(cs)}")
    told, tnew = (traced_like(d, a.workload, a.seeds, runs) for d, runs in ((a.parent, old), (a.change, new)))
    if told and tnew:
        lo, ln = layer_medians(told), layer_medians(tnew)
        print(f"per-layer medians, traced seeds {[r['seed'] for r in told]} -> {[r['seed'] for r in tnew]}:")
        for n in sorted(n for n in set(lo) | set(ln) if lo.get(n) or ln.get(n)):
            print(f"  {n:<40} {lo.get(n, float('nan')):>14.6g} -> {ln.get(n, float('nan')):<14.6g}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("pairs", "append", "compare"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--workload", required=True)
        cmd.add_argument("--seeds", default="0-9", type=seed_list, help="e.g. 0-9 or 0,2,5-7")
    sub.choices["pairs"].add_argument("--parent-root", required=True, type=Path,
                                      help="a checkout of the parent commit")
    sub.choices["pairs"].add_argument("--trace", default=0, type=int, choices=(0, 1))
    sub.choices["append"].add_argument("--label", required=True)
    sub.choices["append"].add_argument("--records", default=".bench_build/records", type=Path)
    sub.choices["compare"].add_argument("--parent", required=True, type=Path, help="the parent's records")
    sub.choices["compare"].add_argument("--change", default=".bench_build/records", type=Path,
                                        help="the change's records")
    a = ap.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    if a.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"bench_entry: {a.workload} is not a workload of BENCHMARK.json")
    return {"pairs": pairs, "append": append, "compare": compare}[a.command](a, spec) or 0


if __name__ == "__main__":
    sys.exit(main())
