#!/usr/bin/env bash
# docscheck.sh — fail CI when CLI flags drift from the README.
#
# For each of the ten CLIs, compare the flag set the binary actually
# exposes (`go run ./cmd/<cli> -h`) against the flags documented in the
# README's "CLI reference" tables. Any flag present in one place and
# missing in the other is drift and fails the check, so a flag cannot
# be added, renamed or removed without the documentation following.
set -u
cd "$(dirname "$0")/.."

CLIS="ascendprof ascendopt ascendbench ascendert ascendcheck ascendd ascendload ascendrouter ascendfit ascendgraph"
fail=0

for cli in $CLIS; do
  # Flags from the binary: `  -name type` lines in -h output.
  have=$(go run "./cmd/$cli" -h 2>&1 | awk '/^  -/{sub(/^-/,"",$1); print $1}' | sort)
  if [ -z "$have" ]; then
    echo "docscheck: FAIL: $cli: could not read -h output" >&2
    fail=1
    continue
  fi
  # Flags from the README: rows `| \`-name\` | ...` inside the CLI's
  # "### \`<cli>\`" section of the CLI reference.
  doc=$(awk -v cli="$cli" '
    /^### `/ { insec = ($0 ~ "^### `"cli"`") }
    insec && /^\| `-/ {
      f = $2
      gsub(/`/, "", f)
      sub(/^-/, "", f)
      print f
    }' README.md | sort)
  if [ -z "$doc" ]; then
    echo "docscheck: FAIL: $cli: no CLI reference section in README.md" >&2
    fail=1
    continue
  fi
  drift=$(comm -3 <(printf '%s\n' "$have") <(printf '%s\n' "$doc"))
  if [ -n "$drift" ]; then
    echo "docscheck: FAIL: $cli: flags drifted between -h and README.md" >&2
    echo "  (column 1 = binary only, column 2 = README only)" >&2
    printf '%s\n' "$drift" | sed 's/^/  /' >&2
    fail=1
  else
    echo "docscheck: ok: $cli ($(printf '%s\n' "$have" | wc -l | tr -d ' ') flags)"
  fi
done

exit $fail
