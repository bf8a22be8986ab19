#!/usr/bin/env bash
# Every robodet:: function in src/ should have a shipping caller. This
# script measures that and fails when a function is reachable only from
# tests, or from no binary at all, unless the allow-list below names it.
#
#   tools/check_reachability.sh     # builds into build-reach/ at the root
#
# Method:
#   1. Build the root project and the perfbench project at -O0 with
#      -ffunction-sections -fdata-sections, linking with -Wl,--gc-sections,
#      so each binary keeps exactly the functions its main() can reach.
#      -O0 because at -O1 and above GCC clones functions (.isra, .constprop,
#      .part) and inlines others away, which hides real callers.
#   2. Collect the robodet:: text symbols (mangled names matching
#      ^_ZNK?7robodet) that librobodet.a defines.
#   3. A symbol ships if any tool, example, bench or perfbench_drive binary
#      keeps it. It is test-only if only test binaries keep it, and
#      unlinked if no binary does. The sets are compared by mangled name,
#      so overloads are told apart; the report lists each demangled name
#      once, folding constructor and destructor variants together.
#   4. A test-only instantiation of a template that ships another
#      instantiation (say, a test's Rng::Shuffle<unsigned long> while the
#      tools ship Rng::Shuffle<PageId>) is allowed: the template's code
#      ships.
#
# Blind spot: header-only inline functions that no src/ .cc file calls
# are not in librobodet.a, so they are invisible here.
#
# Exit status: 0 when every test-only or unlinked symbol is allow-listed,
# 1 otherwise, 2 when the build fails.
set -euo pipefail

# Deliberate test seams. Each entry is a demangled qualified name without
# its parameter list; it covers every overload and constructor variant of
# that name. DESIGN.md ("Test seams") gives the one-line reason for each.
ALLOW=(
  'robodet::StateStore::Checkpoint'
)

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/build-reach"
flags=(-DCMAKE_BUILD_TYPE=Debug
       "-DCMAKE_CXX_FLAGS_DEBUG=-O0 -ffunction-sections -fdata-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

mkdir -p "$out"
{
  cmake -S "$root" -B "$out/main" "${flags[@]}"
  cmake --build "$out/main" -j "$(nproc)"
  cmake -S "$root/perfbench" -B "$out/perfbench" "${flags[@]}"
  cmake --build "$out/perfbench" -j "$(nproc)" --target perfbench_drive
} > "$out/build.log" 2>&1 || { cat "$out/build.log" >&2; exit 2; }

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# Defined text symbols (T/t/W/w) in the robodet namespace, one per line.
text_syms() {
  nm --defined-only "$@" 2>/dev/null \
    | awk '$2 ~ /^[TtWw]$/ && $3 ~ /^_ZNK?7robodet/ { print $3 }' | sort -u
}

text_syms "$out/main/src/librobodet.a" > "$work/lib"
shipping=(
  "$out"/main/tools/* "$out"/main/examples/* "$out"/main/bench/*
  "$out/perfbench/perfbench_drive"
)
bins=()
for f in "${shipping[@]}"; do
  [[ -f "$f" && -x "$f" ]] && bins+=("$f")
done
text_syms "${bins[@]}" > "$work/ship"
tests=()
for f in "$out"/main/tests/*; do
  [[ -f "$f" && -x "$f" ]] && tests+=("$f")
done
text_syms "${tests[@]}" > "$work/test"

comm -23 "$work/lib" "$work/ship" > "$work/notship"
comm -12 "$work/notship" "$work/test" > "$work/testonly"
comm -23 "$work/notship" "$work/test" > "$work/unlinked"

# "<demangled name>\t<match name>\t<1 if templated>" for each mangled
# symbol on stdin. The match name drops template argument lists and the
# parameter list, so it is the qualified name the allow-list uses.
describe() {
  c++filt | awk '
    {
      s = $0
      gsub(/\(anonymous namespace\)/, "{anonymous}", s)
      gsub(/operator(<=>|<<=|>>=|<<|>>|<=|>=|->\*|->|<|>)/, "operator@", s)
      depth = 0; templ = 0; o = ""
      for (i = 1; i <= length(s); i++) {
        c = substr(s, i, 1)
        if (c == "<") { depth++; templ = 1 }
        else if (c == ">") depth--
        else if (depth == 0) { if (c == "(") break; o = o c }
      }
      print $0 "\t" o "\t" templ
    }'
}

describe < "$work/ship" | awk -F '\t' '$3 == 1 { print $2 }' | sort -u > "$work/ship_templates"
printf '%s\n' "${ALLOW[@]}" > "$work/allow"

reported=0
report() {  # $1 = label, $2 = file of mangled symbols
  local demangled name templ
  while IFS=$'\t' read -r demangled name templ; do
    grep -qxF "$name" "$work/allow" && continue
    [[ $templ == 1 ]] && grep -qxF "$name" "$work/ship_templates" && continue
    printf '%s: %s\n' "$1" "$demangled"
    reported=$((reported + 1))
  done < <(describe < "$2" | sort -u)
}
report test-only "$work/testonly"
report unlinked "$work/unlinked"

# Counts are of distinct functions: constructor and destructor variants
# (C1/C2, D1/D2) demangle to one name.
functions() { c++filt < "$1" | sort -u | wc -l; }
printf '%s: %d %s: %d test-only, %d unlinked, %d of those not allow-listed\n' \
  check_reachability "$(functions "$work/lib")" 'robodet:: functions in librobodet.a' \
  "$(functions "$work/testonly")" "$(functions "$work/unlinked")" \
  "$reported" >&2
exit $(( reported > 0 ))
