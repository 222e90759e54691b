#!/usr/bin/env bash
# Pre-merge gate. Everything here must pass offline (no registry access):
# the tier-1 build and tests are what every PR is judged against.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> tier-1: release build"
cargo build --release --offline

echo "==> tier-1: tests"
cargo test -q --offline

echo "==> docs: no broken intra-doc links (deny rustdoc warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> docs: every path README/DESIGN/EXPERIMENTS quote exists, and a renamed one is caught"
scripts/doccheck --self-test \
    || { echo "doccheck: a doc names a path that does not exist, or the self-test missed a rename"; exit 1; }

echo "==> pipeline smoke: warm rerun must hit the cache and match byte-for-byte"
smoke_dir="target/gstm-ci-pipeline-smoke"
rm -rf "$smoke_dir"
mkdir -p "$smoke_dir"
./target/release/experiments cell --bench kmeans --tiny --jobs 2 \
    --cache-dir "$smoke_dir/cache" \
    >"$smoke_dir/cold.out" 2>"$smoke_dir/cold.err"
./target/release/experiments cell --bench kmeans --tiny --jobs 2 \
    --cache-dir "$smoke_dir/cache" \
    >"$smoke_dir/warm.out" 2>"$smoke_dir/warm.err"
diff -u "$smoke_dir/cold.out" "$smoke_dir/warm.out" \
    || { echo "pipeline smoke: warm rerun output diverged"; exit 1; }
grep -q "models 0 hit" "$smoke_dir/cold.err" \
    || { echo "pipeline smoke: cold run unexpectedly hit the model cache"; exit 1; }
grep -qE "models [1-9][0-9]* hit / 0 miss" "$smoke_dir/warm.err" \
    || { echo "pipeline smoke: warm run missed the model cache"; exit 1; }
grep -qE "runs [1-9][0-9]* hit / 0 miss" "$smoke_dir/warm.err" \
    || { echo "pipeline smoke: warm run missed the run cache"; exit 1; }
rm -rf "$smoke_dir"

echo "==> serve smoke: tail-latency study must be deterministic per seed"
serve_dir="target/gstm-ci-serve-smoke"
rm -rf "$serve_dir"
mkdir -p "$serve_dir"
./target/release/experiments serve --tiny --jobs 2 \
    --cache-dir "$serve_dir/cache" \
    >"$serve_dir/cold.out" 2>"$serve_dir/cold.err"
cp results/serve.txt "$serve_dir/cold.txt"
./target/release/experiments serve --tiny --jobs 2 \
    --cache-dir "$serve_dir/cache" \
    >"$serve_dir/warm.out" 2>"$serve_dir/warm.err"
cp results/serve.txt "$serve_dir/warm.txt"
./target/release/experiments serve --tiny --jobs 2 --no-cache \
    >"$serve_dir/nocache.out" 2>"$serve_dir/nocache.err"
diff -u "$serve_dir/cold.txt" "$serve_dir/warm.txt" \
    || { echo "serve smoke: warm rerun table diverged"; exit 1; }
diff -u "$serve_dir/cold.txt" results/serve.txt \
    || { echo "serve smoke: same seed produced different serve table bytes"; exit 1; }
grep -qE "models [1-9][0-9]* hit / 0 miss" "$serve_dir/warm.err" \
    || { echo "serve smoke: warm run retrained instead of hitting the model cache"; exit 1; }
grep -qE "runs [1-9][0-9]* hit / 0 miss" "$serve_dir/warm.err" \
    || { echo "serve smoke: warm run missed the run cache"; exit 1; }
rm -rf "$serve_dir"

echo "==> chaos matrix: opacity oracle must report zero violations"
cp results/check.txt target/check-committed.txt
./target/release/experiments check --tiny --seed 7 --jobs 2 \
    || { echo "chaos matrix: opacity/serializability violations (see results/check.txt)"; exit 1; }
diff -u target/check-committed.txt results/check.txt \
    || { echo "chaos matrix: results/check.txt drifted from the committed table"; exit 1; }
rm -f target/check-committed.txt

echo "==> recovery smoke: kill-and-recover matrix must pass and replay from cache"
recover_dir="target/gstm-ci-recover-smoke"
rm -rf "$recover_dir"
mkdir -p "$recover_dir"
cp results/recover.txt "$recover_dir/committed.txt"
./target/release/experiments recover --tiny --seed 7 --jobs 2 \
    --cache-dir "$recover_dir/cache" \
    >"$recover_dir/cold.out" 2>"$recover_dir/cold.err" \
    || { echo "recovery smoke: recovered store diverged from serial history (see results/recover.txt)"; exit 1; }
./target/release/experiments recover --tiny --seed 7 --jobs 2 \
    --cache-dir "$recover_dir/cache" \
    >"$recover_dir/warm.out" 2>"$recover_dir/warm.err" \
    || { echo "recovery smoke: warm rerun failed"; exit 1; }
diff -u "$recover_dir/cold.out" "$recover_dir/warm.out" \
    || { echo "recovery smoke: warm rerun output diverged"; exit 1; }
diff -u "$recover_dir/committed.txt" results/recover.txt \
    || { echo "recovery smoke: results/recover.txt drifted from the committed table"; exit 1; }
grep -qE "runs [1-9][0-9]* hit / 0 miss" "$recover_dir/warm.err" \
    || { echo "recovery smoke: warm run missed the run cache"; exit 1; }
rm -rf "$recover_dir"

echo "==> serve-adaptive smoke: online loop must be deterministic and cache-stable"
adapt_dir="target/gstm-ci-adaptive-smoke"
rm -rf "$adapt_dir"
mkdir -p "$adapt_dir"
cp results/serve_adaptive.txt "$adapt_dir/committed.txt"
./target/release/experiments serve-adaptive --tiny --jobs 2 \
    --cache-dir "$adapt_dir/cache" \
    >"$adapt_dir/cold.out" 2>"$adapt_dir/cold.err"
cp results/serve_adaptive.txt "$adapt_dir/cold.txt"
./target/release/experiments serve-adaptive --tiny --jobs 2 \
    --cache-dir "$adapt_dir/cache" \
    >"$adapt_dir/warm.out" 2>"$adapt_dir/warm.err"
cp results/serve_adaptive.txt "$adapt_dir/warm.txt"
diff -u "$adapt_dir/cold.txt" "$adapt_dir/warm.txt" \
    || { echo "serve-adaptive smoke: warm rerun table diverged"; exit 1; }
diff -u "$adapt_dir/committed.txt" results/serve_adaptive.txt \
    || { echo "serve-adaptive smoke: results/serve_adaptive.txt drifted from the committed table"; exit 1; }
grep -qE "runs [1-9][0-9]* hit / 0 miss" "$adapt_dir/warm.err" \
    || { echo "serve-adaptive smoke: warm run missed the run cache"; exit 1; }
grep -q "gate negative control" "$adapt_dir/cold.txt" \
    || { echo "serve-adaptive smoke: missing the gate's negative-control row"; exit 1; }
rm -rf "$adapt_dir"

echo "==> durable native smoke: 4 threads x 20k ledger requests on the file WAL, optimized; nothing left in the temp directory"
cargo test -q --release --offline --test real_gate durable_native_smoke \
    || { echo "durable smoke: the native durable run failed or left WAL files behind"; exit 1; }
cargo test -q --release --offline -p gstm-serve --lib -- \
    a_crash_loses_at_most_one_batch_per_committer \
    a_committer_blocked_in_its_device_write_does_not_delay_another \
    || { echo "durable commit path: a crash lost more than its bound, or a committer waited for another's device write"; exit 1; }

echo "==> release-profile checks (the profile the benchmark builds): simulator lock-and-condvar hand-off, PerThread slots a line apart (the type and its users: engine, gate, WAL staging, ledger shards), durable concurrency x100, per-request allocation budget, no block-formation wait, single-writer gate slots, the native wait contract, bucket table = hashing, log tallies = sink tallies"
cargo test -q --release --offline -p gstm-sim \
    || { echo "sim: the simulator's tests fail under the optimized profile"; exit 1; }
cargo test -q --release --offline -p gstm-core -p gstm-wal -p gstm-serve --lib layout_ \
    || { echo "layout: two threads' PerThread slots share a cache line"; exit 1; }
for run in $(seq 100); do
    cargo test -q --release --offline -p gstm-serve --lib -- --exact \
        backend::tests::concurrent_commits_recover_gap_free \
        backend::tests::concurrent_snapshot_advice_installs_one_at_a_time_in_order >/dev/null \
        || { echo "durable concurrency: run $run of 100 lost a commit or overlapped two installs"; exit 1; }
done
cargo test -q --release --offline --test alloc_budget \
    || { echo "alloc budget: a served request allocates more than its budget"; exit 1; }
cargo test -q --release --offline -p gstm-serve --lib a_request_does_not_wait_for_its_block_to_fill \
    || { echo "block latency: a request waited for its block to fill"; exit 1; }
cargo test -q --release --offline -p gstm-core --lib four_threads_passing_on_their_own_slots_lose_no_tick \
    || { echo "gate: a plain load-and-store pass lost a tick on a slot with one writer"; exit 1; }
cargo test -q --release --offline -p gstm-serve --lib -- \
    wait_until_never_returns_early_and_returns_at_once_for_the_past \
    remaining_time_saturates_for_ticks_beyond_the_nanosecond_range \
    a_request_is_never_admitted_before_it_is_due \
    || { echo "native wait: returned before the tick was due, overflowed, or admitted a request early"; exit 1; }
cargo test -q --release --offline -p gstm-serve --lib -- \
    the_bucket_table_names_the_bucket_hashing_names_for_every_key \
    sites_from_the_log \
    || { echo "request path: the bucket table disagrees with hashing, or the thread logs' per-site tallies with a sink's"; exit 1; }
cargo test -q --release --offline -p gstm-serve --test interpreter \
    || { echo "request path: the store substrate answers differently from the plain map or the block lane"; exit 1; }

echo "==> block determinism smoke: same block order must hash identically at 1/2/4/8 threads, bare executor and native lane"
./target/release/experiments block-smoke --threads 1,2,4,8 --requests 200 --seed 11 \
    || { echo "block smoke: parallel block output diverged from the sequential reference"; exit 1; }

echo "==> scripts/paired.sh: parses, and its embedded program starts"
bash -n scripts/paired.sh
scripts/paired.sh --help >/dev/null \
    || { echo "paired.sh: --help failed"; exit 1; }

echo "==> benchmark package: its own tests (traced mirror of the block loop) + every workload's output checks"
(cd benchmark && cargo test --offline -q)
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    run --workload all --quick >/dev/null \
    || { echo "benchmark smoke: a workload failed its own verification"; exit 1; }

echo "CI gate passed."
