#!/usr/bin/env bash
# Regenerates experiments_output.txt: the captured output of every experiment
# binary, in the order EXPERIMENTS.md lists them. All binaries are seeded, so
# the file is a pure function of the source tree. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

ids=(
  fig01_distribution fig02_balance fig03_overheads fig06_sparsity tab1_spec
  fig10_dense fig11_sparse fig12_output_skip fig13_compression fig14_breakdown
  tab2_nonbitslice fig15_alexnet gpu_compare mac_efficiency noc_bandwidth
  ablation_signmag ablation_latching ablation_memory ablation_slice_width
  ablation_granularity ablation_quantization accuracy_endtoend chip_scaling
  detailed_validation precision_sweep
)

cargo build --release -q -p sibia-bench
{
  echo "# Captured experiment outputs — regenerate each with:"
  echo "#   cargo run -p sibia-bench --bin <id> --release"
  echo
  for id in "${ids[@]}"; do
    echo "################ $id"
    "./target/release/$id"
    echo
  done
} >experiments_output.txt
echo "wrote experiments_output.txt"
