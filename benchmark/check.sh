#!/bin/sh
# Build the benchmark, run its unit tests, then a quick run: one round of
# a tenth of the ops per workload, traced, with every output checked.
# The quick run's numbers mean nothing (p90 is refused on so few samples);
# it shows that every workload, probe and check still works.
set -eu
cd "$(dirname "$0")"
cargo build --release --offline
cargo test --release --offline
cargo run --release --offline --quiet -- run --quick --trace
