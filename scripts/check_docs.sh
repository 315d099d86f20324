#!/usr/bin/env bash
# Doc health checks, fully offline, run by scripts/lint.sh.
#
#  1. Intra-repo markdown link check: every relative link (and same-file
#     or cross-file #anchor) in README.md and docs/*.md must resolve.
#  2. CLI drift check: the flag table in README.md and the `experiments
#     --help` output must document the same set of `--flags`, each flag
#     taken whole, hyphens and all (`--cell-timeout`, not `--cell`) — a
#     flag added to or renamed in one without the other fails the build.
#
# Usage: scripts/check_docs.sh   (from the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== markdown link check (README.md docs/*.md) =="
python3 - <<'PY'
import glob, os, re, sys

files = ["README.md"] + sorted(glob.glob("docs/*.md"))
link_re = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

def slugs(path):
    """GitHub-style anchor slugs of every heading in a markdown file."""
    out = set()
    for line in open(path, encoding="utf-8"):
        m = re.match(r"#+\s+(.*)", line)
        if m:
            text = re.sub(r"[`*]", "", m.group(1)).strip().lower()
            text = re.sub(r"[^\w\- ]", "", text, flags=re.UNICODE)
            out.add(text.replace(" ", "-"))
    return out

slug_cache = {}
bad = []
for f in files:
    for target in link_re.findall(open(f, encoding="utf-8").read()):
        if target.startswith(("http://", "https://", "mailto:")):
            continue  # offline: external links are not checked
        path, _, anchor = target.partition("#")
        resolved = os.path.normpath(os.path.join(os.path.dirname(f), path)) if path else f
        if not os.path.exists(resolved):
            bad.append(f"{f}: broken link -> {target}")
            continue
        if anchor and resolved.endswith(".md"):
            if resolved not in slug_cache:
                slug_cache[resolved] = slugs(resolved)
            if anchor.lower() not in slug_cache[resolved]:
                bad.append(f"{f}: broken anchor -> {target}")

for b in bad:
    print(f"error: {b}")
print(f"checked {len(files)} files")
sys.exit(1 if bad else 0)
PY

echo "== CLI drift check (README flag table vs experiments --help) =="
help_out=$(cargo run --quiet --release --bin experiments -- --help)

# Flags the README's sweep-mode table documents (| `--flag ...` | rows).
readme_flags=$(grep -oE '^\| `--[a-z][a-z0-9-]*' README.md | grep -oE '\-\-[a-z][a-z0-9-]*' | sort -u)
# Flags --help advertises (both modes).
help_flags=$(grep -oE '\-\-[a-z][a-z0-9-]*' <<<"$help_out" | sort -u)

status=0
while read -r flag; do
    if ! grep -qxF -- "$flag" <<<"$help_flags"; then
        echo "error: README documents $flag but 'experiments --help' does not mention it"
        status=1
    fi
done <<<"$readme_flags"
while read -r flag; do
    if ! grep -qF -- "$flag" README.md; then
        echo "error: 'experiments --help' advertises $flag but README.md does not mention it"
        status=1
    fi
done <<<"$help_flags"

echo "README flags: $(tr '\n' ' ' <<<"$readme_flags")"
echo "help flags:   $(tr '\n' ' ' <<<"$help_flags")"
[ "$status" -eq 0 ] && echo "docs checks passed"
exit "$status"
