#!/usr/bin/env bash
# CI/justfile parity, run by scripts/lint.sh: `just ci` runs every command
# .github/workflows/ci.yml runs.
#
#  1. Every script ci.yml runs is an executable file, and a recipe that
#     `just ci` reaches runs it.
#  2. Every other command ci.yml runs appears verbatim in such a recipe.
#
# Each `run:` step is one line: a multi-line step fails, because its
# commands belong in a script under scripts/.
#
# A recipe reaches its dependencies and the recipes its lines run with
# `just NAME`.
#
# Usage: scripts/check_ci_parity.sh   (from the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

python3 - <<'PY'
import os, re, sys

def words(line):
    return " ".join(line.split())

# The command of each of ci.yml's `run:` steps.
runs = []
for line in open(".github/workflows/ci.yml", encoding="utf-8"):
    m = re.match(r"\s*(?:- )?run:(.*)", line)
    if m:
        runs.append(words(m.group(1)))

# The justfile's recipes: name -> (dependencies, command lines), with a
# line continued by `\` joined to the next.
recipes, current = {}, None
for line in open("justfile", encoding="utf-8").read().replace("\\\n", " ").splitlines():
    if not line.strip() or line.lstrip().startswith("#"):
        continue
    if not line[0].isspace():
        m = re.match(r"([\w-]+)[^:=]*:(?!=)(.*)", line)
        current = m and m.group(1)
        if current:
            recipes[current] = (m.group(2).split(), [])
    elif current:
        recipes[current][1].append(words(line))

bad, reached, todo = [], set(), ["ci"]
while todo:
    name = todo.pop()
    if name in reached:
        continue
    if name not in recipes:
        bad.append(f"`just ci` reaches recipe '{name}', which the justfile does not define")
        continue
    reached.add(name)
    deps, commands = recipes[name]
    todo += deps + [c.split()[1] for c in commands if c.startswith("just ")]
commands = [c for name in reached for c in recipes[name][1]]

if not runs:
    bad.append("found no `run:` step in ci.yml")
for cmd in runs:
    script = cmd.split()[0]
    if script[0] in "|>":
        bad.append("ci.yml has a multi-line `run:` step: put its commands in a script")
    elif re.fullmatch(r"scripts/[\w.-]+\.sh", script):
        if not (os.path.isfile(script) and os.access(script, os.X_OK)):
            bad.append(f"ci.yml runs {script}, which is not an executable file")
        if not any(c.split()[0] == script for c in commands):
            bad.append(f"ci.yml runs {script}, but no recipe that `just ci` reaches runs it")
    elif cmd not in commands:
        bad.append(f"ci.yml runs `{cmd}`, but no recipe that `just ci` reaches runs it verbatim")

for b in bad:
    print(f"error: {b}")
if not bad:
    print(f"ci parity checks passed: `just ci` runs all {len(runs)} commands of ci.yml")
sys.exit(1 if bad else 0)
PY
