#!/usr/bin/env bash
# Fails if any crate in the workspace declares a dependency that is not an
# in-repo path dependency, or does not inherit the workspace lints. The build environment has no network access to
# a crates.io registry, so a registry dependency would break the build for
# everyone — this check turns it into a reviewable one-line failure.
set -euo pipefail

cd "$(dirname "$0")/.."

fail=0

# Every dependency table entry must either be a `{ path = ... }` /
# `.workspace = true` reference or resolve to a path entry in the root
# [workspace.dependencies] table.
manifests=(Cargo.toml crates/*/Cargo.toml)

for m in "${manifests[@]}"; do
    # Extract dependency table bodies: lines between a [*dependencies*]
    # header and the next table header.
    deps=$(awk '
        /^\[.*dependencies.*\]/ { in_deps = 1; next }
        /^\[/                   { in_deps = 0 }
        in_deps && NF && $0 !~ /^#/ { print }
    ' "$m")
    while IFS= read -r line; do
        [ -z "$line" ] && continue
        # OK: path dependency or workspace indirection.
        if echo "$line" | grep -qE 'path *=' ; then continue; fi
        if echo "$line" | grep -qE '(\.workspace *= *true|workspace *= *true)'; then continue; fi
        echo "error: non-path dependency in $m: $line" >&2
        fail=1
    done <<< "$deps"
done

# Every manifest inherits the workspace lint table (which forbids
# `unsafe` code), so a new crate cannot opt out by omission.
for m in "${manifests[@]}"; do
    if ! awk '
        /^\[lints\]/ { in_lints = 1; next }
        /^\[/         { in_lints = 0 }
        in_lints && /^workspace *= *true/ { found = 1 }
        END { exit !found }
    ' "$m"; then
        echo "error: $m lacks the workspace lint opt-in ([lints] workspace = true)" >&2
        fail=1
    fi
done

# Belt and braces: the historical failure mode was versioned registry
# deps for rand/proptest/criterion sneaking back in.
if grep -rEn '^(rand|proptest|criterion) *=' Cargo.toml crates/*/Cargo.toml; then
    echo "error: registry dependency (rand/proptest/criterion) found" >&2
    fail=1
fi

# The lockfile must not reference any registry source.
if [ -f Cargo.lock ] && grep -qn '^source = ' Cargo.lock; then
    echo "error: Cargo.lock references an external source:" >&2
    grep -n '^source = ' Cargo.lock >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "hermetic check passed: all dependencies are in-repo path crates; every manifest inherits the workspace lints"
