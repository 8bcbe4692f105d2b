#!/usr/bin/env bash
# docs_check.sh — keep the docs honest.
#
# Seven invariants, checked mechanically so flag, metric, experiment or API
# changes cannot silently outrun the documentation, and the documentation
# cannot silently outgrow its readers:
#
#  1. Every flag defined in cmd/*/main.go appears (as -flagname) somewhere
#     in docs/.
#  2. Every metric name the code can register — the Metric* constants and
#     the farm.fe<i>.* counters — appears in docs/.
#  3. Every middleware stage kind registered in internal/middleware (the
#     register("kind", ...) table) has an entry in docs/middleware.md, every
#     catalog row and ### `kind` heading there names a registered kind, and
#     every per-stage counter suffix is documented as mw.<stage>.<suffix>.
#  4. docs/sample-output.txt is what its documented command (EXPERIMENTS.md)
#     prints today, wall-clock figures aside.
#  5. Every dnsttl.<Exported> identifier named in README.md, docs/*.md or
#     EXPERIMENTS.md is declared in the root package.
#  6. Every relative Markdown link in the prose (README.md, DESIGN.md,
#     EXPERIMENTS.md, CONTRIBUTING.md, docs/*.md) resolves: the file exists,
#     and a #anchor is the GitHub slug of one of its headings.
#  7. The prose stays under a line ceiling, the way scripts/line_budget.sh
#     holds the Go: a change that needs more lines raises doc_ceiling below
#     in its own diff; one that removes lines lowers it.
#
# Exits non-zero listing every undocumented or undeclared name and the
# sample's diff.
set -euo pipefail
cd "$(dirname "$0")/.."

doc_ceiling=2742
prose=(README.md DESIGN.md EXPERIMENTS.md CONTRIBUTING.md docs/*.md)

docs=$(cat docs/*.md)
fail=0

# --- 1. CLI flags ----------------------------------------------------------
# Matches flag.String("name", ...), flag.Bool(...), flag.Int64(...), etc.,
# plus flag.Var(&v, "name", ...).
flags=$(grep -hoE 'flag\.[A-Za-z0-9]+\(&?[A-Za-z0-9_]*,? ?"[a-z][a-z0-9-]*"' cmd/*/main.go |
    grep -oE '"[a-z][a-z0-9-]*"' | tr -d '"' | sort -u)
for f in $flags; do
    if ! grep -qF -- "-$f" <<<"$docs"; then
        echo "docs_check: flag -$f (cmd/*/main.go) is not documented in docs/" >&2
        fail=1
    fi
done

# --- 2. Metric names -------------------------------------------------------
# (a) Named constants: Metric<X> = "some.name" in internal/.
metrics=$(grep -rhoE 'Metric[A-Za-z0-9]+ += +"[a-z_.]+"' internal/ --include='*.go' |
    grep -oE '"[a-z_.]+"' | tr -d '"' | sort -u)
# (b) farm per-frontend counters: farm.fe<i>.<suffix>, from the suffix table.
metrics+=" $(grep -hoE '^[[:space:]]+fe[A-Za-z]+: +\{"[a-z_]+"' internal/farm/telemetry.go |
    grep -oE '"[a-z_]+"' | tr -d '"' | sed 's/^/farm.fe<i>./' | sort -u)"

for m in $metrics; do
    if ! grep -qF -- "$m" <<<"$docs"; then
        echo "docs_check: metric $m is not documented in docs/" >&2
        fail=1
    fi
done

# --- 3. Middleware stage kinds --------------------------------------------
# Every kind in the register("kind", ...) table must have a catalog entry in
# docs/middleware.md, and every catalog entry a registered kind (a retired
# stage must not stay documented); every per-stage counter suffix must be
# documented as mw.<stage>.<suffix>.
mwdocs=$(cat docs/middleware.md)
kinds=$(grep -rhoE 'register\("[a-z]+"' internal/middleware/*.go |
    grep -oE '"[a-z]+"' | tr -d '"' | sort -u)
for k in $kinds; do
    if ! grep -qE "^#+ .*\`$k\`|^\| *\`$k\`" <<<"$mwdocs"; then
        echo "docs_check: stage kind $k (internal/middleware) has no entry in docs/middleware.md" >&2
        fail=1
    fi
done
catalog=$({
    sed -n '/^## Stage catalog/,/^### /p' docs/middleware.md | grep -oE '^\| *`[a-z]+`'
    grep -oE '^### `[a-z]+`' docs/middleware.md
} | grep -oE '[a-z]+' | sort -u || true)
if [ -z "$catalog" ]; then
    echo "docs_check: found no catalog row or ### \`kind\` heading in docs/middleware.md — the pattern above has gone stale" >&2
    fail=1
fi
for k in $catalog; do
    if ! grep -qx -- "$k" <<<"$kinds"; then
        echo "docs_check: docs/middleware.md documents stage kind $k, which internal/middleware does not register" >&2
        fail=1
    fi
done
suffixes=$(grep -rhoE 'o\.counter\("[a-z]+"\)' internal/middleware/*.go |
    grep -oE '"[a-z]+"' | tr -d '"' | sort -u)
if [ -z "$suffixes" ]; then
    echo "docs_check: found no o.counter(\"suffix\") call in internal/middleware — the pattern above has gone stale" >&2
    fail=1
fi
for s in $suffixes; do
    if ! grep -qF -- "mw.<stage>.$s" <<<"$docs"; then
        echo "docs_check: middleware counter mw.<stage>.$s is not documented in docs/" >&2
        fail=1
    fi
done

# --- 4. Sample output ------------------------------------------------------
# The run is deterministic except for three wall-clock figures (the planet
# tier's "total wall", wall_seconds and the throughput derived from it).
mask_wall() {
    sed -E 's/total wall [0-9.]+s/total wall Ns/; s/^(  (wall_seconds|throughput_user_seconds_per_wall_second) +)[0-9.]+$/\1N/' "$@"
}
if ! diff <(mask_wall docs/sample-output.txt) \
    <(go run ./cmd/ttlrepro -experiment all -probes 800 -crawlscale 0.3 | mask_wall) >&2; then
    echo "docs_check: docs/sample-output.txt is stale — regenerate it with the command in EXPERIMENTS.md" >&2
    fail=1
fi

# --- 5. Facade identifiers -------------------------------------------------
# A snippet may only name what the root package declares: a top-level func,
# type, var or const, or a member of a grouped declaration (NAME = ...).
idents=$(grep -ohE 'dnsttl\.[A-Z][A-Za-z0-9]*' README.md docs/*.md EXPERIMENTS.md | sort -u)
root_go=$(ls ./*.go | grep -v '_test\.go$')
for i in $idents; do
    id=${i#dnsttl.}
    # shellcheck disable=SC2086
    if ! grep -qE "^(func|type|var|const) $id\b|^[[:space:]]+$id +=" $root_go; then
        echo "docs_check: $i is named in the docs but not declared in the root package" >&2
        fail=1
    fi
done

# --- 6. Relative links ----------------------------------------------------
# Fenced code is skipped on both sides: a "# comment" in a code block is not
# a heading, and a "](x)" there is not a link.
unfenced() { awk '/^```/ { fenced = !fenced; next } !fenced' "$1"; }
# slugs prints the GitHub anchor of each heading in a Markdown file:
# lowercased, punctuation dropped, spaces turned into hyphens.
slugs() {
    unfenced "$1" | sed -nE 's/^#{1,6} +//p' | tr 'A-Z' 'a-z' |
        LC_ALL=C sed -E 's/[^a-z0-9 _-]//g; s/ /-/g'
}
links=0
for f in "${prose[@]}"; do
    while IFS= read -r target; do
        links=$((links + 1))
        path=${target%%#*}
        anchor=${target#"$path"}
        anchor=${anchor#\#}
        if [ -z "$path" ]; then
            path=$f
        else
            path=$(dirname "$f")/$path
        fi
        if [ ! -e "$path" ]; then
            echo "docs_check: $f links to $target, which does not exist" >&2
            fail=1
        elif [ -n "$anchor" ] && ! slugs "$path" | grep -qxF -- "$anchor"; then
            echo "docs_check: $f links to $target, but no heading there has that anchor" >&2
            fail=1
        fi
    done < <(unfenced "$f" | grep -oE '\]\([^)[:space:]]+\)' | sed -E 's/^\]\(//; s/\)$//' |
        grep -vE '^[a-z]+:' || true)
done

# --- 7. Doc-line ceiling ---------------------------------------------------
doc_lines=$(cat "${prose[@]}" | wc -l)
if [ "$doc_lines" -gt "$doc_ceiling" ]; then
    echo "docs_check: ${doc_lines} prose lines, over the ceiling of $doc_ceiling by $((doc_lines - doc_ceiling)); say it once or raise doc_ceiling in scripts/docs_check.sh" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "docs_check: FAILED — update docs/operations.md / docs/architecture.md / docs/middleware.md" >&2
    exit 1
fi
echo "docs_check: OK ($(wc -w <<<"$flags") flags, $(wc -w <<<"$metrics") metrics, $(wc -w <<<"$kinds") stage kinds all documented; sample output current; $(wc -w <<<"$idents") dnsttl.* names declared; $links relative links resolve; $doc_lines prose lines (ceiling $doc_ceiling))"
