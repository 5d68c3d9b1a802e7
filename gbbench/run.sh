#!/usr/bin/env bash
# GBABS benchmark entry point. Run from the repository root:
#   bash gbbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Compiles the program and the harness when the sources changed (the first
# run in a checkout), then runs one benchmark JVM. All build
# output and results stay under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/build.sbt" || ! -d "$root/src/main/scala/repro" || ! -f "$root/gbbench/build.sbt" ]]; then
  echo "gbbench: run from the repository root; the program sources are missing here" >&2
  exit 2
fi

out="$root/${CARGO_TARGET_DIR:-.bench_build}"
[[ "$out" = /* ]] || out="$root/$out"
case "${CARGO_TARGET_DIR:-}" in /*) out="$CARGO_TARGET_DIR" ;; esac
mkdir -p "$out/gbbench/tmp"

# The program's build compiles against the Spark distribution's jars, which
# also hold the Scala compiler. Use the directory build.sbt names, else
# $SPARK_HOME/jars.
jars=$(sed -n 's|^ *Compile */ *unmanagedBase *:= *file("\([^"]*\)").*|\1|p' build.sbt | head -n 1)
if [[ -z "$jars" || ! -d "$jars" ]]; then jars="${SPARK_HOME:-}/jars"; fi
if ! compgen -G "$jars/scala-compiler-*.jar" >/dev/null || ! compgen -G "$jars/spark-sql_*.jar" >/dev/null; then
  echo "gbbench: no Spark jars with a Scala compiler in '$jars'" >&2
  exit 2
fi

# Fingerprint of everything the build reads from the checkout.
src_sha=$(find build.sbt src/main gbbench/src/main -type f \( -name '*.scala' -o -name '*.sbt' \) \
          | LC_ALL=C sort | xargs sha1sum | sha1sum | cut -c1-16)
classes="$out/gbbench/classes-$src_sha"

# Compile the program's main sources and the harness with scalac itself, not
# sbt: sbt keeps locks and caches in the user's home directory, and the
# benchmark writes only inside its checkout.
if [[ ! -d "$classes" ]]; then
  log="$out/gbbench/build-$src_sha.log"
  echo "gbbench: building (log: $log)" >&2
  rm -rf "$classes.tmp"
  mkdir -p "$classes.tmp"
  find src/main/scala gbbench/src/main/scala -type f -name '*.scala' | LC_ALL=C sort >"$out/gbbench/sources-$src_sha.txt"
  if ! java -Xmx2g -Xss8m -XX:-UsePerfData -Djava.io.tmpdir="$out/gbbench/tmp" \
          -cp "$jars/*" scala.tools.nsc.Main -usejavacp -nowarn -d "$classes.tmp" \
          "@$out/gbbench/sources-$src_sha.txt" >"$log" 2>&1; then
    tail -n 30 "$log" >&2
    echo "gbbench: build failed" >&2
    exit 3
  fi
  mv "$classes.tmp" "$classes"
fi

git_sha=unknown
if top=$(git rev-parse --show-toplevel 2>/dev/null) && [[ "$top" == "$root" ]]; then
  git_sha=$(git rev-parse HEAD)
fi

export SPARK_LOCAL_DIRS="$out/gbbench/spark-local"
exec java -Xms2g -Xmx2g -XX:+UseParallelGC -XX:-UsePerfData \
  -Djava.io.tmpdir="$out/gbbench/tmp" \
  -Dgbbench.out="$out/gbbench" -Dgbbench.source_sha1="$src_sha" -Dgbbench.git_sha="$git_sha" \
  --add-opens=java.base/java.lang=ALL-UNNAMED \
  --add-opens=java.base/java.lang.invoke=ALL-UNNAMED \
  --add-opens=java.base/java.lang.reflect=ALL-UNNAMED \
  --add-opens=java.base/java.io=ALL-UNNAMED \
  --add-opens=java.base/java.net=ALL-UNNAMED \
  --add-opens=java.base/java.nio=ALL-UNNAMED \
  --add-opens=java.base/java.util=ALL-UNNAMED \
  --add-opens=java.base/java.util.concurrent=ALL-UNNAMED \
  --add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED \
  --add-opens=java.base/sun.nio.ch=ALL-UNNAMED \
  --add-opens=java.base/sun.nio.cs=ALL-UNNAMED \
  --add-opens=java.base/sun.security.action=ALL-UNNAMED \
  --add-opens=java.base/sun.util.calendar=ALL-UNNAMED \
  -cp "$classes:$jars/*" repro.perf.Main "$@"
