# Development entry points. The workspace builds fully offline — every
# external dependency is an in-tree shim under shims/ — so all recipes
# pass --offline.

# Build, test, and lint everything (the pre-merge gate): each workspace
# test runs once, then the five byte-compared BENCH_*.json invariant
# gates, the serving example end to end, and the wall-clock benchmark's
# own tests (all four workloads in --smoke size, against the crates as
# they are now).
check:
    cargo build --release --offline
    cargo test -q --offline
    cargo clippy --offline --workspace --all-targets -- -D warnings
    cargo run --release --offline -p ironsafe-bench --bin paperbench profile --check
    cargo run --release --offline -p ironsafe-bench --bin paperbench shards --check
    cargo run --release --offline -p ironsafe-bench --bin paperbench vectors --check
    cargo run --release --offline -p ironsafe-bench --bin paperbench saturation --check
    cargo run --release --offline -p ironsafe-bench --bin paperbench adaptive --check
    cargo run --release --offline --example multi_client
    cargo test -q --offline --manifest-path perf/Cargo.toml

# Non-test lines per crate (the count "net-negative" issues gate on):
# every line of `crates/*/src/**/*.rs` outside `#[cfg(test)]` items — the
# attribute skips the item it decorates, wherever in the file it sits, and
# a file whose `mod` line carries it counts as zero (scripts/loc.awk). The
# last line is the workspace total.
loc:
    @for c in crates/*/; do f=$(find ${c}src -name '*.rs' | sort); printf '%-8s %s\n' "$(basename $c)" "$(awk -f scripts/loc.awk pass=1 $f pass=2 $f)"; done | awk '{ print; total += $2 } END { printf "%-8s %s\n", "total", total }'

# Freshness fast-path sweep at a reduced SF, end to end (per-page climbs
# vs shared-path batches vs the warm verified-node cache).
freshness:
    cargo run --release --offline -p ironsafe-bench --bin paperbench freshness --sf 0.0015

# MVCC GC stress: the concurrent-readers golden test, 200 times over
# (a pre-image freed mid-flush used to corrupt ~1 run in 100).
mvcc-stress:
    for i in $(seq 200); do cargo test -q --offline -p ironsafe-csa --test mvcc_golden concurrent_readers_observe_only_committed_epochs || exit 1; done

# Full chaos sweep through paperbench, with exported fault counters.
chaos out="chaos-metrics":
    cargo run --release --offline -p ironsafe-bench --bin paperbench chaos --metrics-out {{out}}

# Full criterion benchmark suite (minutes).
bench:
    cargo bench --offline

# Reduced-sample smoke pass of the same benches (~seconds).
bench-smoke:
    IRONSAFE_BENCH_QUICK=1 cargo bench --offline

# Regenerate every paper table and figure.
figures:
    cargo run --release --offline -p ironsafe-bench --bin paperbench

# Figure 8 plus a Perfetto-loadable span timeline + counter dump.
trace out="trace.json":
    cargo run --release --offline -p ironsafe-bench --bin paperbench fig8 --metrics-out {{out}}
