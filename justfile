# Development entry points. The workspace builds fully offline — every
# external dependency is an in-tree shim under shims/ — so all recipes
# pass --offline.

# Build, test, and lint everything (the pre-merge gate).
check: serve-smoke exec-smoke chaos-smoke fresh-smoke profile-smoke shard-smoke wal-smoke adaptive-smoke crypto-smoke
    cargo build --release --offline
    cargo test -q --offline
    cargo clippy --offline -- -D warnings

# Execution smoke: the one scan kernel against its row oracle (column
# masks, DOP axis, LIMIT page counts, byte-mutated pages, the batch
# evaluators, the allocation-free steady state), compression codec
# round-trips, golden parity at DOP 4 and across DOP x compressed x
# shards, and the BENCH_8.json invariant gate.
exec-smoke:
    cargo test -q --offline -p ironsafe-sql
    cargo test -q --offline -p ironsafe-storage --test compress_prop
    cargo test -q --offline -p ironsafe-csa --test parallel_golden
    cargo test -q --offline -p ironsafe-scale --test vector_parity
    cargo run --release --offline -p ironsafe-bench --bin paperbench vectors --check

# Serving-layer smoke: run the multi-client example end to end, then
# the server's own test suite (admission, determinism, drain).
serve-smoke:
    cargo run --release --offline --example multi_client
    cargo test -q --offline -p ironsafe-serve

# Freshness fast-path smoke: Merkle batch/cache unit + property tests,
# the bench crate's >=3x reduction assertions, and a reduced-SF
# `paperbench freshness` sweep end to end.
fresh-smoke:
    cargo test -q --offline -p ironsafe-storage merkle
    cargo test -q --offline -p ironsafe-bench freshness
    cargo run --release --offline -p ironsafe-bench --bin paperbench freshness --sf 0.0015

# Query-profiler smoke: golden parity (EXPLAIN ANALYZE counters
# bit-identical to the cost model across configs and DOPs), the
# workspace metric-name manifest, and the BENCH_6.json regression gate.
profile-smoke:
    cargo test -q --offline -p ironsafe-csa --test profile_parity
    cargo test -q --offline -p ironsafe --test metrics_manifest
    cargo run --release --offline -p ironsafe-bench --bin paperbench profile --check

# Federation smoke: golden parity across shard counts and configs,
# failover + storm chaos, partitioner property tests, serving over a
# federation, and the BENCH_7.json invariant gate.
shard-smoke:
    cargo test -q --offline -p ironsafe-scale
    cargo run --release --offline -p ironsafe-bench --bin paperbench shards --check

# Adaptive-optimizer smoke: cost-model + planner unit and property
# tests, pinned/primed golden parity against both static policies, and
# the BENCH_10.json shape x cores x selectivity x pressure sweep gate
# (adaptive <= best static everywhere, >=20% wins on both ends,
# re-planning demo).
adaptive-smoke:
    cargo test -q --offline -p ironsafe-csa adaptive
    cargo run --release --offline -p ironsafe-bench --bin paperbench adaptive --check

# Fault-injection smoke: the chaos harness (50 seed x rate storms,
# identical-rows-or-typed-error invariant, per-surface recovery) plus
# the fault plan's own unit tests.
chaos-smoke:
    cargo test -q --offline -p ironsafe --test chaos
    cargo test -q --offline -p ironsafe-faults

# Write-path smoke: WAL replay idempotence + prefix-consistency
# property tests, MVCC snapshot golden parity under interleaved
# writers, crash-during-commit storms across the WAL fault sites, and
# the BENCH_9.json mixed read/write invariant gate.
wal-smoke:
    cargo test -q --offline -p ironsafe-storage --test wal_prop
    cargo test -q --offline -p ironsafe-csa --test mvcc_golden
    cargo test -q --offline -p ironsafe --test chaos crash_commit_storms
    cargo run --release --offline -p ironsafe-bench --bin paperbench saturation --check

# MVCC GC stress: the concurrent-readers golden test, 200 times over
# (a pre-image freed mid-flush used to corrupt ~1 run in 100).
mvcc-stress:
    for i in $(seq 200); do cargo test -q --offline -p ironsafe-csa --test mvcc_golden concurrent_readers_observe_only_committed_epochs || exit 1; done

# Crypto-floor smoke: the cipher and hash back-ends against their
# portable oracles and the NIST vectors (unit + property tests), the
# pinned on-medium and on-wire bytes, the record layer built on them
# (frame validation, in-place receive under transit faults, byte path
# vs row path), the allocation-free read and ship paths, the workspace's
# unsafe budget, and the wall-clock benchmark's own tests (all four
# workloads in --smoke size, against the crates as they are now).
crypto-smoke:
    cargo test -q --offline -p ironsafe-crypto
    cargo test -q --offline --test medium_golden
    cargo test -q --offline -p ironsafe-csa net::
    cargo test -q --offline -p ironsafe-csa --test ship_differential
    cargo test -q --offline -p ironsafe-storage --test zero_alloc
    cargo test -q --offline -p ironsafe-csa --test zero_alloc
    cargo test -q --offline -p ironsafe --test unsafe_budget
    cargo test -q --offline --manifest-path perf/Cargo.toml

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
