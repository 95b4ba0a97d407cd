#!/usr/bin/env bash
# docs-check: keeps docs/ARCHITECTURE.md in sync with the tree.
#
# Fails when (a) a src/ subdirectory is missing from the directory map, (b) the
# map documents a `src/<dir>/` that no longer exists, (c) a TVMCPP_* environment
# variable referenced in src/ or bench/ is missing from the environment-variable
# contract table, (d) the table documents a variable no code references — so new
# knobs cannot ship undocumented — or (e) src/ names a TVMCPP_* variable outside
# the allowlist of process-wide settings, so a new library knob must be a field of
# an options struct instead of an environment variable, or (f) a file under
# src/interp/ includes a header from src/vm/, src/codegen/ or src/graph/, so the
# reference interpreter stays below the tiers it checks, or (g) the options
# inventory drifts: a `struct <Name>Options` declared in a src/ header is missing
# from the "Library knobs are fields of options structs (...)" sentence, or the
# sentence names a struct no header declares.
# Registered as the `docs_check` CTest so the docs cannot silently rot.
set -u

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
doc="$root/docs/ARCHITECTURE.md"
fail=0

if [ ! -f "$doc" ]; then
  echo "docs-check: missing $doc"
  exit 1
fi
if [ ! -f "$root/README.md" ]; then
  echo "docs-check: missing top-level README.md"
  exit 1
fi

# Every real src/ subdirectory must appear in the map as `src/<name>/`.
for d in "$root"/src/*/; do
  name="$(basename "$d")"
  if ! grep -q "\`src/$name/\`" "$doc"; then
    echo "docs-check: src/$name/ is missing from the directory map in docs/ARCHITECTURE.md"
    fail=1
  fi
done

# Every documented `src/<name>/` must exist on disk.
for name in $(grep -o '`src/[A-Za-z0-9_]*/`' "$doc" | sed 's/`//g; s|^src/||; s|/$||' | sort -u); do
  if [ ! -d "$root/src/$name" ]; then
    echo "docs-check: docs/ARCHITECTURE.md documents src/$name/ which does not exist"
    fail=1
  fi
done

# Environment-variable contract: every TVMCPP_* env var referenced in code (a quoted
# string literal — getenv call sites pass the name as a literal, possibly through a
# helper like EnvInt) must have a row in the docs table, and every documented row
# must still have a referencing call site. TVMCPP_SOURCE_DIR is a compile-time
# macro, not an env var, and appears unquoted — the quoted-literal grep skips it
# and the script scan filters it explicitly.
code_vars="$(grep -rhoE '"TVMCPP_[A-Z0-9_]+"' "$root/src" "$root/bench" 2>/dev/null \
             | tr -d '"' | sort -u)"
# Vars set or referenced by CI and the tools scripts (unquoted there: workflow env
# blocks, shell assignments) must be documented too — a knob the pipeline flips is
# part of the contract. This script is excluded (its grep patterns mention the
# TVMCPP_ prefix without naming real variables).
ci_vars="$(find "$root/tools" "$root/.github" -type f ! -name "$(basename "$0")" 2>/dev/null \
           -exec grep -hoE 'TVMCPP_[A-Z0-9_]+' {} + | grep -v '^TVMCPP_SOURCE_DIR$' | sort -u)"
all_vars="$(printf '%s\n%s\n' "$code_vars" "$ci_vars" | grep -v '^$' | sort -u)"
doc_vars="$(grep -oE '^\| `TVMCPP_[A-Z0-9_]+`' "$doc" | grep -oE 'TVMCPP_[A-Z0-9_]+' | sort -u)"
for var in $all_vars; do
  if ! printf '%s\n' "$doc_vars" | grep -qx "$var"; then
    echo "docs-check: env var $var is referenced in src/, bench/, tools/, or .github/ but missing from the env-var table in docs/ARCHITECTURE.md"
    fail=1
  fi
done
for var in $doc_vars; do
  if ! printf '%s\n' "$all_vars" | grep -qx "$var"; then
    echo "docs-check: docs/ARCHITECTURE.md documents env var $var which no code in src/, bench/, tools/, or .github/ references"
    fail=1
  fi
done

# Library knobs are options-struct fields; src/ may read only these process-wide
# settings from the environment. Any other quoted TVMCPP_* name in src/ (a getenv
# call, or a helper that forwards the name to one) fails with its location.
allowed_src_vars="TVMCPP_ENGINE TVMCPP_VM_STRICT TVMCPP_NUM_THREADS TVMCPP_NATIVE_CACHE
TVMCPP_NATIVE_CC TVMCPP_FAILPOINTS TVMCPP_FAILPOINT_SEED TVMCPP_TUNE_CACHE"
while IFS= read -r hit; do
  [ -z "$hit" ] && continue
  var="$(printf '%s\n' "$hit" | grep -oE 'TVMCPP_[A-Z0-9_]+')"
  if ! printf '%s\n' $allowed_src_vars | grep -qx "$var"; then
    echo "docs-check: ${hit%:*}: src/ reads env var $var; make it an options-struct field (allowed in src/: $(echo $allowed_src_vars))"
    fail=1
  fi
done <<< "$(grep -rnoE '"TVMCPP_[A-Z0-9_]+"' "$root/src" 2>/dev/null | sed "s|^$root/||")"

# Layering: the reference interpreter is the oracle the VM and native tiers are
# checked against, and engine selection lives in src/graph/executor.cc. A file under
# src/interp/ that includes a header from those layers fails with its location.
while IFS= read -r hit; do
  [ -z "$hit" ] && continue
  header="$(printf '%s\n' "$hit" | grep -oE '"src/[^"]+"' | tr -d '"')"
  echo "docs-check: $(printf '%s\n' "$hit" | cut -d: -f1,2): src/interp/ includes $header; the reference interpreter must not depend on src/vm/, src/codegen/ or src/graph/"
  fail=1
done <<< "$(grep -rnE '^[[:space:]]*#[[:space:]]*include[[:space:]]*"src/(vm|codegen|graph)/' \
            "$root/src/interp" 2>/dev/null | sed "s|^$root/||")"

# Options inventory. Declared: every `struct <Name>Options` with a body in a src/
# header, a nested `struct Options` written `<Outer>::Options` (the enclosing
# column-0 class or struct). Listed: every backticked name in the sentence's
# parentheses, lower-case namespace qualifiers (`serve::`, `vm::`) dropped.
declared_opts="$(find "$root/src" -name '*.h' | sort | while IFS= read -r h; do
  awk -v f="${h#"$root"/}" '
    /^(class|struct) [A-Za-z0-9_]+/ { outer = $2 }
    /^[[:space:]]*struct [A-Za-z0-9_]*Options([^A-Za-z0-9_;]|$)/ && !/;[[:space:]]*$/ {
      name = $2
      sub(/[^A-Za-z0-9_].*/, "", name)
      if (name == "Options") name = outer "::Options"
      print f ":" FNR " " name
    }' "$h"
done)"
opts_start="$(grep -n 'Library knobs are fields of options structs (' "$doc" | head -1 | cut -d: -f1)"
if [ -z "$opts_start" ]; then
  echo "docs-check: docs/ARCHITECTURE.md lacks the \"Library knobs are fields of options structs (...)\" sentence"
  fail=1
else
  listed_opts="$(awk -v start="$opts_start" '
    NR < start { next }
    {
      line = $0
      if (NR == start) line = substr(line, index(line, "options structs (") + 17)
      close_at = index(line, ")")
      if (close_at > 0) line = substr(line, 1, close_at - 1)
      while (match(line, /`[^`]+`/)) {
        print NR " " substr(line, RSTART + 1, RLENGTH - 2)
        line = substr(line, RSTART + RLENGTH)
      }
      if (close_at > 0) exit
    }' "$doc")"
  listed_names="$(printf '%s\n' "$listed_opts" | cut -d' ' -f2 | sed -E 's/^([a-z_]+::)+//')"
  while IFS=' ' read -r where name; do
    [ -z "$name" ] && continue
    if ! printf '%s\n' "$listed_names" | grep -qx "$name"; then
      echo "docs-check: $where: struct $name is missing from the options sentence at docs/ARCHITECTURE.md:$opts_start"
      fail=1
    fi
  done <<< "$declared_opts"
  declared_names="$(printf '%s\n' "$declared_opts" | cut -d' ' -f2)"
  while IFS=' ' read -r line name; do
    [ -z "$name" ] && continue
    if ! printf '%s\n' "$declared_names" | grep -qx "$(printf '%s' "$name" | sed -E 's/^([a-z_]+::)+//')"; then
      echo "docs-check: docs/ARCHITECTURE.md:$line: the options sentence names $name, which no src/ header declares"
      fail=1
    fi
  done <<< "$listed_opts"
fi

# Deployment guide: every env var an operator doc names must be a real knob
# (referenced by code/CI), and every TVMCPP_SHM_* transport knob must be
# documented in docs/DEPLOYMENT.md — the operator guide is the shm contract's
# home, so a new transport knob cannot ship without deployment docs.
deploy="$root/docs/DEPLOYMENT.md"
if [ ! -f "$deploy" ]; then
  echo "docs-check: missing docs/DEPLOYMENT.md (operator guide)"
  fail=1
else
  for var in $(grep -oE '`TVMCPP_[A-Z0-9_]+`' "$deploy" "$root/README.md" \
               | grep -oE 'TVMCPP_[A-Z0-9_]+' | sort -u); do
    if ! printf '%s\n' "$all_vars" | grep -qx "$var"; then
      echo "docs-check: README.md or docs/DEPLOYMENT.md references env var $var which no code references"
      fail=1
    fi
  done
  for var in $(printf '%s\n' "$all_vars" | grep '^TVMCPP_SHM_'); do
    if ! grep -q "\`$var\`" "$deploy"; then
      echo "docs-check: shm transport knob $var is missing from docs/DEPLOYMENT.md"
      fail=1
    fi
  done
fi

if [ "$fail" -eq 0 ]; then
  echo "docs-check: directory map, env-var table, options inventory, deployment guide, and src/interp/ layering are in sync with the tree"
fi
exit "$fail"
