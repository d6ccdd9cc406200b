#!/bin/sh
# Dead-link check for the repo's markdown docs: every intra-repo link
# target `](path)` in docs/*.md, README.md, DESIGN.md, ROADMAP.md and
# EXPERIMENTS.md must exist on disk. External links (http/https/mailto)
# and pure fragment links (#anchor) are skipped; fragments on file links
# are stripped before the existence check. Relative targets are resolved
# against the linking file's directory first, then the repo root (both
# styles appear in the docs). Exits 1 listing every dead link.
set -eu
cd "$(dirname "$0")/.."

fail=0
for md in README.md DESIGN.md ROADMAP.md EXPERIMENTS.md docs/*.md; do
    [ -f "$md" ] || continue
    dir=$(dirname "$md")
    # One link target per line: grab every ](...) group, tolerating
    # several links on one line.
    targets=$(grep -o ']([^)]*)' "$md" 2>/dev/null | sed 's/^](//; s/)$//' || true)
    [ -n "$targets" ] || continue
    for t in $targets; do
        case "$t" in
        http://*|https://*|mailto:*|\#*) continue ;;
        esac
        path=${t%%#*}
        [ -n "$path" ] || continue
        if [ ! -e "$dir/$path" ] && [ ! -e "$path" ]; then
            echo "docs_check: dead link in $md -> $t" >&2
            fail=1
        fi
    done
done

if [ "$fail" -ne 0 ]; then
    echo "docs_check: FAILED" >&2
    exit 1
fi
echo "docs_check: all intra-repo links resolve"
