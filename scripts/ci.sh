#!/usr/bin/env bash
# Pre-merge gate. Everything here must pass offline (no registry access):
# the tier-1 build and tests are what every PR is judged against.
set -euo pipefail

cd "$(dirname "$0")/.."

# `release_tests <cargo args> -- [--exact] <filter>...` runs
# `cargo test -q --release --offline <cargo args> -- [--exact] <filter>...`
# and fails if any filter selects no test, naming it, or if fewer tests
# pass than there are filters. Cargo passes a filter that matches nothing
# with "0 passed", so without this a renamed test would drop out of the
# gate in silence. A filter matches a listed test name by substring, or
# whole with --exact, as cargo's own filter does.
release_tests() {
    local args=() exact=() match=(-qF) filters names out passed status=0
    while [ "$1" != "--" ]; do args+=("$1"); shift; done
    shift
    if [ "${1:-}" = "--exact" ]; then exact=(--exact); match=(-qxF); shift; fi
    filters=("$@")
    names=$(cargo test -q --release --offline "${args[@]}" -- --list | sed -n 's/: test$//p') \
        || { echo "cannot list the tests of cargo test ${args[*]}" >&2; return 1; }
    for f in "${filters[@]}"; do
        grep "${match[@]}" -- "$f" <<<"$names" \
            || { echo "empty test filter: '$f' matches no test of cargo test ${args[*]}" >&2; return 1; }
    done
    out=$(cargo test -q --release --offline "${args[@]}" -- "${exact[@]}" "${filters[@]}" 2>&1) \
        || status=$?
    echo "$out"
    [ "$status" -eq 0 ] || return "$status"
    passed=$(sed -n 's/^test result: ok\. \([0-9]*\) passed.*/\1/p' <<<"$out" \
        | awk '{ n += $1 } END { print n + 0 }')
    if [ "$passed" -lt ${#filters[@]} ]; then
        echo "empty test filter: ${#filters[@]} filters passed $passed tests of cargo test ${args[*]}" >&2
        return 1
    fi
}

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings and unreachable pub items)"
cargo clippy --workspace --all-targets --offline -- -D warnings -D unreachable_pub

echo "==> unsafe: none in crates/ or src/ outside tests but the affinity shim"
unsafe_lines=$(grep -rnw --include='*.rs' unsafe crates src \
    | grep -v '^crates/serve/src/affinity\.rs:' \
    | grep -v '^crates/[^/]*/tests/' \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
if [ -n "$unsafe_lines" ]; then
    echo "$unsafe_lines"
    echo "unsafe: only crates/serve/src/affinity.rs may use it"
    exit 1
fi

echo "==> crate surfaces: a library crate exports its lib.rs re-exports, plus five modules other crates name a path through"
# gstm_core::{cm, rng, sync}, gstm_block::mvmap and gstm_model::serialize are
# the only `pub mod`s: every other module is private and its items reach
# other crates through the re-export list in their crate's lib.rs.
kept_mods='^crates/(core/src/lib\.rs:pub mod (cm|rng|sync)|block/src/lib\.rs:pub mod mvmap|model/src/lib\.rs:pub mod serialize);$'
pub_mods=$(grep -nH '^pub mod ' crates/*/src/lib.rs \
    | grep -v '^crates/experiments/' \
    | sed 's/:[0-9]*:/:/' \
    | grep -vE "$kept_mods" || true)
if [ -n "$pub_mods" ]; then
    echo "$pub_mods"
    echo "crate surfaces: import through the crate root, or add the module to kept_mods here together with the crate that names a path through it"
    exit 1
fi

echo "==> tier-1: release build"
cargo build --release --offline

echo "==> tier-1: tests"
cargo test -q --offline

echo "==> docs: no broken intra-doc links (deny rustdoc warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> docs: every path, experiments command and experiments flag README/DESIGN/EXPERIMENTS quote exists, and a renamed one is caught"
scripts/doccheck --self-test \
    || { echo "doccheck: a doc names a path, command or flag that does not exist, or the self-test missed a rename"; exit 1; }

echo "==> pipeline smoke: a warm rerun of every study and ablation must hit the cache and match byte-for-byte"
smoke_dir="$PWD/target/gstm-ci-pipeline-smoke"
experiments="$PWD/target/release/experiments"
rm -rf "$smoke_dir"
mkdir -p "$smoke_dir"
# Run inside the smoke directory: `all --tiny` writes its tables under
# target/gstm-results/tiny/ there.
for cmd in all ablate-tfactor ablate-k ablate-cm ablate-train ablate-policy ablate-detection; do
    for pass in cold warm; do
        (cd "$smoke_dir" && "$experiments" "$cmd" --tiny --jobs 2 --cache-dir cache \
            >"$cmd.$pass.out" 2>"$cmd.$pass.err")
    done
    diff -u "$smoke_dir/$cmd.cold.out" "$smoke_dir/$cmd.warm.out" \
        || { echo "pipeline smoke: warm rerun of $cmd diverged"; exit 1; }
    grep -qE "models [1-9][0-9]* hit / 0 miss" "$smoke_dir/$cmd.warm.err" \
        || { echo "pipeline smoke: warm $cmd missed the model cache"; exit 1; }
    grep -qE "runs [1-9][0-9]* hit / 0 miss" "$smoke_dir/$cmd.warm.err" \
        || { echo "pipeline smoke: warm $cmd missed the run cache"; exit 1; }
done
grep -q "runs 0 hit" "$smoke_dir/all.cold.err" \
    || { echo "pipeline smoke: cold run unexpectedly hit the run cache"; exit 1; }
# The six ablation tables, in the loop's order, are results/ablations_tiny.txt
# byte for byte.
(cd "$smoke_dir" && cat ablate-{tfactor,k,cm,train,policy,detection}.cold.out) \
    | diff -u results/ablations_tiny.txt - \
    || { echo "pipeline smoke: an ablation table moved; regenerate results/ablations_tiny.txt and say why"; exit 1; }
rm -rf "$smoke_dir"

echo "==> fast pipeline: the stdout of all --fast --no-cache is results/all_fast.txt byte for byte"
fast_dir="$PWD/target/gstm-ci-all-fast"
rm -rf "$fast_dir"
mkdir -p "$fast_dir"
# Inside its own directory, like the smoke above: the tables `all --fast`
# writes land under its target/gstm-results/fast/.
(cd "$fast_dir" && "$experiments" all --fast --no-cache --jobs 2 >stdout.txt 2>stderr.txt) \
    || { echo "fast pipeline: all --fast failed (see $fast_dir/stderr.txt)"; exit 1; }
diff -u results/all_fast.txt "$fast_dir/stdout.txt" \
    || { echo "fast pipeline: a paper table moved; regenerate results/all_fast.txt and say why"; exit 1; }
rm -rf "$fast_dir"

# The three smokes below each run in their own directory under target/, like
# the two above: a `--tiny` run writes its table under that directory's
# target/gstm-results/tiny/, and each is diffed against the committed
# results/*_tiny.txt, so a failing run leaves the work tree as it was.
echo "==> serve smoke: tail-latency study must be deterministic per seed"
serve_dir="$PWD/target/gstm-ci-serve-smoke"
rm -rf "$serve_dir"
mkdir -p "$serve_dir"
for pass in cold warm; do
    (cd "$serve_dir" && "$experiments" serve --tiny --jobs 2 --cache-dir cache \
        >"$pass.out" 2>"$pass.err")
    cp "$serve_dir/target/gstm-results/tiny/serve.txt" "$serve_dir/$pass.txt"
done
(cd "$serve_dir" && "$experiments" serve --tiny --jobs 2 --no-cache >nocache.out 2>nocache.err)
diff -u "$serve_dir/cold.txt" "$serve_dir/warm.txt" \
    || { echo "serve smoke: warm rerun table diverged"; exit 1; }
diff -u "$serve_dir/cold.txt" "$serve_dir/target/gstm-results/tiny/serve.txt" \
    || { echo "serve smoke: same seed produced different serve table bytes"; exit 1; }
diff -u results/serve_tiny.txt "$serve_dir/cold.txt" \
    || { echo "serve smoke: results/serve_tiny.txt drifted from the committed table"; exit 1; }
grep -qE "models [1-9][0-9]* hit / 0 miss" "$serve_dir/warm.err" \
    || { echo "serve smoke: warm run retrained instead of hitting the model cache"; exit 1; }
grep -qE "runs [1-9][0-9]* hit / 0 miss" "$serve_dir/warm.err" \
    || { echo "serve smoke: warm run missed the run cache"; exit 1; }
rm -rf "$serve_dir"

echo "==> chaos matrix: opacity oracle must report zero violations"
check_dir="$PWD/target/gstm-ci-check-smoke"
rm -rf "$check_dir"
mkdir -p "$check_dir"
(cd "$check_dir" && "$experiments" check --tiny --seed 7 --jobs 2) \
    || { echo "chaos matrix: opacity/serializability violations (see $check_dir/target/gstm-results/tiny/check.txt)"; exit 1; }
diff -u results/check_tiny.txt "$check_dir/target/gstm-results/tiny/check.txt" \
    || { echo "chaos matrix: results/check_tiny.txt drifted from the committed table"; exit 1; }
rm -rf "$check_dir"

echo "==> recovery smoke: kill-and-recover matrix must pass and replay from cache"
recover_dir="$PWD/target/gstm-ci-recover-smoke"
rm -rf "$recover_dir"
mkdir -p "$recover_dir"
for pass in cold warm; do
    (cd "$recover_dir" && "$experiments" recover --tiny --seed 7 --jobs 2 --cache-dir cache \
        >"$pass.out" 2>"$pass.err") \
        || { echo "recovery smoke: $pass run failed: recovered store diverged from serial history (see $recover_dir/target/gstm-results/tiny/recover.txt)"; exit 1; }
done
diff -u "$recover_dir/cold.out" "$recover_dir/warm.out" \
    || { echo "recovery smoke: warm rerun output diverged"; exit 1; }
diff -u results/recover_tiny.txt "$recover_dir/target/gstm-results/tiny/recover.txt" \
    || { echo "recovery smoke: results/recover_tiny.txt drifted from the committed table"; exit 1; }
grep -qE "runs [1-9][0-9]* hit / 0 miss" "$recover_dir/warm.err" \
    || { echo "recovery smoke: warm run missed the run cache"; exit 1; }
rm -rf "$recover_dir"

echo "==> durable native smoke: 4 threads x 20k ledger requests on the file WAL, optimized; nothing left in the temp directory"
release_tests --test real_gate -- durable_native_smoke \
    || { echo "durable smoke: the native durable run failed or left WAL files behind"; exit 1; }
release_tests -p gstm-serve --lib -- \
    a_crash_loses_at_most_one_batch_per_committer \
    a_committer_blocked_in_its_device_write_does_not_delay_another \
    || { echo "durable commit path: a crash lost more than its bound, or a committer waited for another's device write"; exit 1; }

echo "==> release-profile checks (the profile the benchmark builds): simulator lock-and-condvar hand-off, PerThread slots a line apart (the type and its users: engine, gate, WAL staging, ledger shards) and lock-table stripes four to a line, durable concurrency x100, per-request allocation budget, no block-formation wait and a dense durable block WAL prefix, single-writer gate slots, the native wait contract, bucket table = hashing, serve-thread placement, exact Zipf and bounded draws, block admission once per transaction, snapshot readers beside writers"
cargo test -q --release --offline -p gstm-sim \
    || { echo "sim: the simulator's tests fail under the optimized profile"; exit 1; }
release_tests -p gstm-core -p gstm-wal -p gstm-serve --lib -- layout_ \
    || { echo "layout: two threads' PerThread slots share a cache line, or the lock table's stripes no longer tile 64-byte lines"; exit 1; }
for run in $(seq 100); do
    release_tests -p gstm-serve --lib -- --exact \
        backend::tests::concurrent_commits_recover_gap_free \
        backend::tests::concurrent_snapshot_advice_installs_one_at_a_time_in_order >/dev/null \
        || { echo "durable concurrency: run $run of 100 lost a commit or overlapped two installs"; exit 1; }
done
cargo test -q --release --offline --test alloc_budget \
    || { echo "alloc budget: a served request allocates more than its budget"; exit 1; }
release_tests -p gstm-serve --lib -- \
    a_request_does_not_wait_for_its_block_to_fill \
    durable_block_run_keeps_the_wal_prefix_dense \
    || { echo "block latency: a request waited for its block to fill, or a durable block run left a gap in the WAL prefix"; exit 1; }
release_tests -p gstm-core --lib -- four_threads_passing_on_their_own_slots_lose_no_tick \
    || { echo "gate: a plain load-and-store pass lost a tick on a slot with one writer"; exit 1; }
release_tests -p gstm-serve --lib -- \
    wait_until_never_returns_early_and_returns_at_once_for_the_past \
    remaining_time_saturates_for_ticks_beyond_the_nanosecond_range \
    a_request_is_never_admitted_before_it_is_due \
    || { echo "native wait: returned before the tick was due, overflowed, or admitted a request early"; exit 1; }
release_tests -p gstm-serve --lib -- the_bucket_table_names_the_bucket_hashing_names_for_every_key \
    || { echo "request path: the bucket table disagrees with hashing"; exit 1; }
cargo test -q --release --offline -p gstm-serve --test interpreter \
    || { echo "request path: the store substrate answers differently from the plain map or the block lane"; exit 1; }
release_tests -p gstm-serve --lib -- affinity:: placement_ \
    || { echo "placement: a pin went elsewhere, a light run spread, an overloaded one stayed, or the caller's CPUs changed"; exit 1; }
release_tests -p gstm-core --lib -- below_matches_the_threshold_loop \
    || { echo "rng: an early-accepted bounded draw differs from the threshold loop"; exit 1; }
release_tests -p gstm-serve --lib -- zipf_sample_is_the_partition_point_inversion \
    || { echo "traffic: a bucketed Zipf draw differs from the plain search"; exit 1; }
release_tests -p gstm-block --lib -- a_transaction_resumed_from_a_stall_is_not_admitted_again \
    || { echo "block admission: a transaction resumed from a stall was admitted a second time"; exit 1; }
release_tests -p gstm-core --lib -- \
    snapshot_readers_beside_writers_commit_first_time_and_see_conserved_totals \
    || { echo "snapshot reads: a read-only body beside committing writers retried or saw a torn total"; exit 1; }

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
