#!/usr/bin/env bash
# census.sh counts test failures under load. It builds the test binaries
# of internal/peer, internal/node and internal/peermux, runs each N times
# at -test.cpu 1 and N times at -test.cpu 2, two copies at a time, beside
# a busy loop, and prints the failures per test. It exits 1 if any run
# failed. Each run's output is kept in census-logs/, which it empties
# first.
#
#   bash .github/census.sh     # N from CENSUS_N, default 20
set -euo pipefail

n=${CENSUS_N:-20}
pkgs=(internal/peer internal/node internal/peermux)
root=$(pwd)
logs=$root/census-logs
rm -rf "$logs"
mkdir -p "$logs"
busy=
trap 'if [ -n "$busy" ]; then kill "$busy" 2>/dev/null || true; fi' EXIT

for pkg in "${pkgs[@]}"; do
  go test -c -o "$logs/$(basename "$pkg").test" "./$pkg"
done

# One core kept busy for the whole census.
( while :; do :; done ) &
busy=$!

# run PKG CPU I runs one copy of PKG's test binary in the package's
# directory and writes its output and exit status to the log directory.
run() {
  local pkg=$1 cpu=$2 i=$3 name status
  name=$(basename "$pkg")
  cd "$root/$pkg"
  status=0
  "$logs/$name.test" -test.v -test.count 1 -test.cpu "$cpu" -test.timeout 10m \
    > "$logs/$name-cpu$cpu-$i.log" 2>&1 || status=$?
  echo "$status" > "$logs/$name-cpu$cpu-$i.status"
}
export -f run
export root logs

for pkg in "${pkgs[@]}"; do
  for cpu in 1 2; do
    echo "census: $pkg, -test.cpu $cpu, $n runs, two at a time"
    seq 1 "$n" | xargs -P 2 -I{} bash -c 'run "$0" "$1" "$2"' "$pkg" "$cpu" {}
  done
done

failed=0
summary=$logs/summary
: > "$summary"
for pkg in "${pkgs[@]}"; do
  name=$(basename "$pkg")
  for cpu in 1 2; do
    for status in "$logs/$name-cpu$cpu-"*.status; do
      log=${status%.status}.log
      if [ "$(cat "$status")" != 0 ]; then
        failed=1
        if ! grep -q -- '--- FAIL: ' "$log"; then
          echo "$pkg -test.cpu $cpu: exit $(cat "$status") naming no test: $(grep -m1 -E '^panic:|timed out' "$log" || echo 'see its log')" >> "$summary"
        fi
      fi
      grep -o -- '--- FAIL: [^ ]*' "$log" | sed "s|--- FAIL: |$pkg -test.cpu $cpu: |" >> "$summary" || true
    done
  done
done
echo
echo "failures per test, of $n runs at each -test.cpu:"
if [ -s "$summary" ]; then
  sort "$summary" | uniq -c | sort -rn
else
  echo "none"
fi
exit "$failed"
