#!/bin/sh
# Prints the end-to-end metrics of every workload, one untraced run each.
# Usage, from the repository root: sh perfbench/all.sh [seed] [seconds]
seed=${1:-1}
seconds=${2:-20}
status=0
for workload in compile-mc compile-exact distinguish-mc distinguish-exact; do
    python3 perfbench/run.py --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 || status=1
done
exit $status
