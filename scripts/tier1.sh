#!/usr/bin/env bash
# Tier-1 gate: everything CI runs, runnable locally with one command.
# Fails on the first broken step.
#
#   build       release build of the whole workspace
#   test        every unit / integration / property suite
#   clippy      lints with warnings denied (first-party crates only;
#               vendor/ stubs are workspace-excluded)
#   fmt         rustfmt --check
#   doc         rustdoc with warnings denied (broken, ambiguous or
#               private intra-doc links fail the gate)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier1: cargo build --release =="
cargo build --release --workspace

echo "== tier1: cargo test =="
cargo test --workspace --quiet

echo "== tier1: cargo clippy -D warnings =="
cargo clippy --workspace --all-targets --quiet -- -D warnings

echo "== tier1: cargo fmt --check =="
cargo fmt --all --check

echo "== tier1: cargo doc -D warnings =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== tier1: OK =="
