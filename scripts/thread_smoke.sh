#!/bin/sh
# `--threads 2` means two threads computing, the calling one included.
# Runs `airfoil --cells 4000 --threads 2` under each backend, samples
# /proc/<pid>/status while it runs, and fails if a fork-join or dataflow
# world ever shows more than 2 threads — or if the Seq run executed a task
# or parked about once per iteration (a node per reduction read wakes the
# worker through a futex every iteration; an idle worker only times out of
# its park every 2 ms). Needs target/release/airfoil.
set -eu
cd "$(dirname "$0")/.."
bin=target/release/airfoil
fail=0
for backend in seq forkjoin dataflow; do
    # Seq runs longer so that "per iteration" and "per 2 ms" are far apart.
    iters=200
    [ "$backend" = seq ] && iters=4000
    out=target/thread_smoke.$backend.out
    "$bin" --cells 4000 --iters "$iters" --threads 2 --backend "$backend" >"$out" &
    pid=$!
    peak=0
    while kill -0 "$pid" 2>/dev/null; do
        n=$(awk '/^Threads:/ { print $2 }' "/proc/$pid/status" 2>/dev/null || true)
        [ "${n:-0}" -gt "$peak" ] && peak=$n
        sleep 0.01
    done
    wait "$pid" || { echo "$backend: airfoil failed"; fail=1; }
    line=$(grep '^runtime:' "$out")
    rm -f "$out"
    echo "$backend: peak threads $peak; $line"
    if [ "$backend" = seq ]; then
        executed=$(echo "$line" | sed 's/.* executed=\([0-9]*\).*/\1/')
        parks=$(echo "$line" | sed 's/.* parks=\([0-9]*\).*/\1/')
        [ "$executed" -eq 0 ] || { echo "seq: $executed tasks on a one-thread backend"; fail=1; }
        [ "$parks" -lt $((iters / 2)) ] || { echo "seq: $parks parks in $iters iterations"; fail=1; }
    else
        [ "$peak" -ge 1 ] && [ "$peak" -le 2 ] || { echo "$backend: $peak threads for --threads 2"; fail=1; }
    fi
done
exit $fail
