#!/usr/bin/env python3
"""Run one workload of the benchmark; see perfbench/README.md.

    python3 perfbench/run.py --workload static-fl --seed 0 --seconds 10 --trace 0

Run from the repository root. Builds the program and the benchmark with
perfbench/build.sh when their sources changed, then runs the workload in
one JVM. Everything it writes goes under .bench_build/ (or
$CARGO_TARGET_DIR when set). The last line of standard output is the JSON
result; the exit status is 0 only when every output check passed.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("static-fl", "dynamic-swap")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
HEAP = "4g"

# Spark's launcher opens these JDK packages; a plain `java` launch needs them too.
ADD_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def sources(root):
    files = sorted(p for d in ("src/main/scala", "perfbench/src") for p in (root / d).rglob("*.scala"))
    return files + [root / "perfbench/build.sh"]


def stamp(root):
    h = hashlib.sha256()
    for p in sources(root):
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def build(root, state, tag):
    classes = state / f"classes-{tag}"
    if (classes / ".built").exists():
        return classes
    t0 = time.time()
    subprocess.run(["bash", str(HERE / "build.sh"), str(classes)], cwd=root, check=True,
                   timeout=BUILD_TIMEOUT_S, stdout=sys.stderr)
    (classes / ".built").write_text(f"{time.time() - t0:.1f}s\n")
    return classes


def git_commit(root):
    if not (root / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return r.stdout.strip() or "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0, help="0 regenerates the registry graphs")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    root = Path.cwd()
    state = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    state = state if state.is_absolute() else root / state
    state.mkdir(parents=True, exist_ok=True)
    tag = stamp(root)
    try:
        classes = build(root, state, tag)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    (state / "tmp").mkdir(exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    cmd = (["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-Xss64m", "-XX:-UsePerfData", "-XX:+IgnoreUnrecognizedVMOptions"]
           + [f"--add-opens={m}=ALL-UNNAMED" for m in ADD_OPENS]
           + [f"-Djava.io.tmpdir={state / 'tmp'}",
              f"-Dlog4j2.configurationFile={HERE / 'log4j2.properties'}",
              f"-Dperfbench.stamp={tag}", f"-Dperfbench.commit={git_commit(root)}",
              "-cp", f"{classes}{os.pathsep}{os.environ['SPARK_HOME']}/jars/*",
              "perfbench.Main", "--workload", a.workload, "--seed", str(a.seed),
              "--seconds", str(a.seconds), "--trace", str(a.trace), "--state-dir", str(state)])
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def stop(*_):
        os.killpg(proc.pid, signal.SIGKILL)
    signal.signal(signal.SIGTERM, lambda *_: (stop(), sys.exit(1)))
    timer = threading.Timer(RUN_TIMEOUT_S, stop)
    timer.start()
    last = ""
    try:
        for line in proc.stdout:
            line = line.rstrip("\n")
            if line.strip():
                last = line
                if not line.startswith("{"):
                    print(line, flush=True)
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            stop()
            proc.wait()
    try:
        result = json.loads(last)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        print(f"perfbench: no result (exit status {code})", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
