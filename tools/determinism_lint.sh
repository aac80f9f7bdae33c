#!/usr/bin/env sh
# Determinism source lint: the simulation engine must stay bit-for-bit
# reproducible, so wall-clock reads (`Instant::now`, `SystemTime::now`)
# and iteration-order-unstable `HashMap`s are denied everywhere except an
# explicit allowlist of sites whose clock reads and iteration order are
# proven not to reach any result. Process-wide mutable state (a `static`
# `Mutex`, `RwLock`, `OnceLock` or `LazyLock`) is denied the same way:
# a cache or memo belongs to an owner (a daemon, a server, a shard) that
# bounds it and drops it, not to the process. The benchmark under
# dqcbench/ reads the clock on purpose and is not scanned.
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

# HashMap: bookkeeping keyed for lookup only (the server's point index
# and fusion memo, and the quota ledger), and tests that key
# compilations, fingerprints or replies for order-insensitive asserts.
# The engine itself has none: the executor's entanglement supplies sit
# in a BTreeMap, so every fold over them runs in key order.
HASHMAP_ALLOW="
crates/serve/src/server.rs
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

fail=0

# Lists every file under the scanned trees matching the extended regular
# expression `$1` that is not in the allowlist `$2`.
scan() {
    pattern="$1"
    allow="$2"
    label="$3"
    for file in $(grep -rlE --include='*.rs' "$pattern" crates src tests examples 2>/dev/null); do
        case "$allow" in
            *"$file"*) ;;
            *)
                echo "determinism lint: $file uses $label outside the allowlist" >&2
                fail=1
                ;;
        esac
    done
}

scan 'Instant::now|SystemTime::now' "$CLOCK_ALLOW" "a wall clock"
scan 'HashMap' "$HASHMAP_ALLOW" "HashMap"
scan '\bstatic[[:space:]]+[A-Za-z_][A-Za-z0-9_]*[[:space:]]*:.*\b(Mutex|RwLock|OnceLock|LazyLock)\b' \
    "$STATIC_ALLOW" "a process-wide static Mutex, RwLock, OnceLock or LazyLock"

if [ "$fail" -ne 0 ]; then
    echo "determinism lint: denied patterns found (see tools/determinism_lint.sh)" >&2
    exit 1
fi
echo "determinism lint: clean"
