#!/usr/bin/env bash
# Doc gate: every package must carry a package comment ("// Package x
# ..."), the tree must be gofmt-clean, and every exported identifier the
# top-level docs name as `pkg.Name` must still exist. Cheap, grep-based,
# no deps.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
for dir in internal/* cmd/* examples/*; do
    [ -d "$dir" ] || continue
    pkg="$(basename "$dir")"
    if [ "$(dirname "$dir")" = "internal" ]; then
        want="^// Package ${pkg} "
    else
        # main packages document the binary instead of a package name.
        want="^// "
    fi
    if ! grep -lqE "$want" "$dir"/*.go 2>/dev/null; then
        echo "doccheck: $dir has no package doc comment" >&2
        fail=1
    fi
done

# Stale identifiers: each backticked `pkg.Name` in the docs, where pkg is
# a directory under internal/ and Name is exported, must match a func,
# method, type, var, const, field or interface method declared in pkg.
while IFS=: read -r file line ref; do
    ref="${ref#\`}"
    pkg="${ref%%.*}" name="${ref#*.}"
    [ -d "internal/$pkg" ] || continue
    if ! grep -qE "^(func (\([^)]*\) )?|(type|var|const) |[[:space:]]+([A-Za-z0-9_]+, )*)${name}([^A-Za-z0-9_]|$)" "internal/$pkg"/*.go; then
        echo "doccheck: $file:$line names \`$ref\`, which internal/$pkg does not declare" >&2
        fail=1
    fi
done < <(grep -onE '`[a-z]+\.[A-Z][A-Za-z0-9_]*' README.md DESIGN.md OBSERVABILITY.md SCENARIOS.md EXPERIMENTS.md)

unformatted="$(gofmt -l cmd examples internal)"
if [ -n "$unformatted" ]; then
    echo "doccheck: gofmt needed on:" >&2
    echo "$unformatted" >&2
    fail=1
fi

exit $fail
