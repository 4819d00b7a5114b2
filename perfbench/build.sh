#!/usr/bin/env bash
# Build file of the benchmark: compiles the program's main sources
# (src/main/scala) together with the benchmark (perfbench/src) into the
# class directory given as $1. Uses the Scala compiler that ships with
# Spark, so it needs only SPARK_HOME and a JDK.
#
#   bash perfbench/build.sh .bench_build/classes
set -euo pipefail
out="$1"
jars="${SPARK_HOME:?SPARK_HOME must point at a Spark 4 distribution}/jars/*"
[ -d src/main/scala ] || { echo "perfbench/build.sh: run from the repository root (no src/main/scala here)" >&2; exit 1; }
rm -rf "$out"
mkdir -p "$out"
mapfile -t sources < <(find src/main/scala perfbench/src -name '*.scala' | sort)
java -Xss8m -Xmx1g -XX:-UsePerfData -cp "$jars" scala.tools.nsc.Main -usejavacp -nowarn -d "$out" "${sources[@]}"
