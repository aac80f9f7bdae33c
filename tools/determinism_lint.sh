#!/usr/bin/env sh
# Determinism source lint: the simulation engine must stay bit-for-bit
# reproducible, so wall-clock reads (`Instant::now`, `SystemTime::now`)
# and iteration-order-unstable `HashMap`s are denied everywhere except an
# explicit allowlist of sites whose clock reads and iteration order are
# proven not to reach any result. Process-wide mutable state (a `static`
# `Mutex`, `RwLock`, `OnceLock` or `LazyLock`) is denied the same way:
# a cache or memo belongs to an owner (a daemon, a server, a shard, a
# grid plan) that bounds it and drops it, not to the process. For the
# same reason a per-thread cache (`thread_local!`) is denied: kernel
# scratch space and any memo stay owned by a value, so they live and die
# with it rather than with whichever thread last ran it. The benchmark
# under dqcbench/ reads the clock on purpose and is not scanned.
#
# Run from the repository root:  sh tools/determinism_lint.sh
# Exits non-zero, listing every offending file, when a denied pattern
# appears outside the allowlist. To allow a new site, justify it in the
# PR and add it to the matching list below.

set -eu
cd "$(dirname "$0")/.."

# Wall-clock reads: the two serving layers (queue timing and quota
# buckets, both kept off the evaluation path). The
# observability layer confines its clock to crates/obs/src/wall.rs:
# every span timestamp flows through the dqc_obs::Clock trait and that
# module is the one place the trait meets a real clock, so allowlisting
# it keeps the rest of the tracing layer lint-clean by construction.
CLOCK_ALLOW="
crates/serve/src/server.rs
crates/served/src/daemon.rs
crates/obs/src/wall.rs
"

# HashMap: bookkeeping keyed for lookup only (the daemon's quota
# ledger), and tests that key compilations, fingerprints or replies for
# order-insensitive asserts. The engine and the serving layer have none:
# the executor's entanglement supplies and the server's point index sit
# in BTreeMaps, so every walk over them runs in key order.
HASHMAP_ALLOW="
crates/served/src/quota.rs
tests/serve_determinism.rs
tests/served_wire.rs
"

# Process-wide statics: the observability layer's one installed
# recorder (and the lock that serializes installing it), which is
# process-wide by design: every thread's spans reach the same sink.
STATIC_ALLOW="
crates/obs/src/recorder.rs
"

# Per-thread state: the observability layer's span stack, which records
# the open span of the thread it runs on and holds no result.
THREAD_LOCAL_ALLOW="
crates/obs/src/context.rs
"

fail=0

# Lists every file under the scanned trees matching the extended regular
# expression `$1` that is not in the allowlist `$2`. An allowlist entry
# names one whole path: `src/wall.rs` is not `crates/obs/src/wall.rs`.
scan() {
    pattern="$1"
    allow="$2"
    label="$3"
    for file in $(grep -rlE --include='*.rs' "$pattern" crates src tests examples 2>/dev/null); do
        if ! printf '%s\n' "$allow" | grep -qxF "$file"; then
            echo "determinism lint: $file uses $label outside the allowlist" >&2
            fail=1
        fi
    done
}

scan 'Instant::now|SystemTime::now' "$CLOCK_ALLOW" "a wall clock"
scan 'HashMap' "$HASHMAP_ALLOW" "HashMap"
scan '\bstatic[[:space:]]+[A-Za-z_][A-Za-z0-9_]*[[:space:]]*:.*\b(Mutex|RwLock|OnceLock|LazyLock)\b' \
    "$STATIC_ALLOW" "a process-wide static Mutex, RwLock, OnceLock or LazyLock"
scan 'thread_local!' "$THREAD_LOCAL_ALLOW" "a per-thread thread_local! cache"

if [ "$fail" -ne 0 ]; then
    echo "determinism lint: denied patterns found (see tools/determinism_lint.sh)" >&2
    exit 1
fi
echo "determinism lint: clean"
