#!/usr/bin/env bash
# Builds the benchmark and the mod_server binary (release, offline), then
# runs modbench with the arguments given:
#
#   benchmark/run.sh --workload map_update_sim --seed 1 --seconds 10 --trace 0
#   benchmark/run.sh run --seed 1 --out benchmark/out/run.json
#   benchmark/run.sh repeat --sets 2
#
# Nothing here measures: compilation is outside every metric.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root="$PWD"
case "${CARGO_TARGET_DIR:-target}" in
    /*) target="${CARGO_TARGET_DIR}" ;;
    *) target="$root/${CARGO_TARGET_DIR:-target}" ;;
esac
export CARGO_TARGET_DIR="$target"
# Build chatter goes to stderr: stdout is the benchmark's alone.
cargo build --release --offline --quiet -p mod-server --bin mod_server >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
export MODBENCH_DIR="$root/benchmark"
export MODBENCH_SERVER_BIN="$target/release/mod_server"
exec "$target/release/modbench" "$@"
