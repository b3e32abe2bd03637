#!/usr/bin/env bash
# Regenerates everything the repository claims: build, full test suite, one
# Table II sweep per input size, the four paper reports read from those
# sweeps, and every other table/ablation bench, with outputs captured under
# results/.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build

mkdir -p results
ctest --test-dir build 2>&1 | tee results/test_output.txt

# The only simulation of the Table II set: 22 benchmarks x 2 schemes per
# input size. The table goes to results/sweep_<size>.txt.
for size in small big; do
  echo "== dscoh_sweep $size =="
  build/src/workloads/dscoh_sweep "$size" --json "results/sweep_$size.json" \
    2>/dev/null | tee "results/sweep_$size.txt"
done

reports="fig4_speedup fig5_missrate compulsory_misses traffic_breakdown"
for name in $reports; do
  echo "== $name =="
  inputs=(results/sweep_small.json)
  [ "$name" = traffic_breakdown ] || inputs+=(results/sweep_big.json)
  "build/bench/$name" "${inputs[@]}" | tee "results/$name.txt"
done

# The remaining benches simulate their own batches (the ablations change
# the config, so they cannot reuse the sweeps).
for b in build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  name=$(basename "$b")
  case " $reports " in *" $name "*) continue ;; esac
  echo "== $name =="
  "$b" 2>/dev/null | tee "results/${name}.txt"
done

echo
echo "Done. See results/ and EXPERIMENTS.md."
