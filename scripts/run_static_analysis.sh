#!/usr/bin/env bash
# TGMiner static-analysis wall. Four gates:
#
#   1. assert() ban — production code uses TGM_CHECK/TGM_DCHECK
#      (temporal/common.h), never bare assert: TGM_CHECK survives NDEBUG
#      and prints the failed expression with its location; assert
#      silently vanishes from release builds. Toolchain-independent.
#   2. Clang -Werror=thread-safety build — the capability annotations of
#      src/base/annotations.h (mutex-guarded exec/ state, role-confined
#      stream-engine state) are enforced, not decorative. Needs clang++.
#   3. clang-tidy over compile_commands.json (.clang-tidy config). Needs
#      clang-tidy.
#   4. tgm-lint (tools/lint/tgm_lint.py) — the project-contract linter:
#      determinism (no unordered-container iteration into results without
#      a canonical sort or waiver; no pointer-keyed ordered containers),
#      layering (the include DAG of tools/lint/layers.conf), Status
#      discipline (no discarded Status/StatusOr results), and the
#      raw-primitive ban (std::mutex/condition_variable outside
#      src/base/). Toolchain-independent (python3; token engine, with a
#      libclang AST refinement when the binding is installed).
#
# Gate order puts the toolchain-independent gates (1, 4) first, so a
# gcc-only host always gets them; the clang gates report their missing
# toolchain per-gate as a loud SKIP instead of aborting the whole script.
# Skips are never silent: the summary names every skipped gate, and
# --require-clang (what CI uses) turns those skips into hard failures so
# CI cannot go green without the full wall.
set -euo pipefail

usage() {
  cat <<'EOF'
usage: scripts/run_static_analysis.sh [MODE] [--require-clang]

Modes:
  (none)                   Run all four gates:
                             1 assert() ban          (toolchain-independent)
                             2 -Werror=thread-safety (needs clang++)
                             3 clang-tidy            (needs clang-tidy)
                             4 tgm-lint              (needs python3)
                           Missing clang tooling SKIPs gates 2/3 loudly;
                           with --require-clang the skip is a failure.
  --seeded-defect[=WHICH]  Prove the wall bites: seed a locking or
                           synthetic defect and require the gate to
                           REJECT it. WHICH is one of
                             locked-work     (gate 2, needs clang++)
                             determinism     (gate 4)
                             layering        (gate 4)
                             status-discard  (gate 4)
                             raw-primitive   (gate 4)
                             all             (default: every variant)
  --audit-waivers          List every tgm-lint suppression in src/ with
                           its file, line, and reason (CI uploads this as
                           an artifact). Fails on malformed waivers.
  --help                   This text.

Environment: CLANGXX (default clang++), CLANG_TIDY (default clang-tidy),
PYTHON3 (default python3), BUILD_DIR (default build-static-analysis).
EOF
}

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${REPO_ROOT}"

CLANGXX="${CLANGXX:-clang++}"
CLANG_TIDY="${CLANG_TIDY:-clang-tidy}"
PYTHON3="${PYTHON3:-python3}"
BUILD_DIR="${BUILD_DIR:-build-static-analysis}"
TGM_LINT=(tools/lint/tgm_lint.py --root "${REPO_ROOT}" --src src
          --layers tools/lint/layers.conf)

fail() { echo "FAIL: $*" >&2; exit 1; }

MODE="run"
SEED_WHICH="all"
REQUIRE_CLANG=0
for arg in "$@"; do
  case "${arg}" in
    --help|-h) usage; exit 0 ;;
    --seeded-defect) MODE="seed" ;;
    --seeded-defect=*) MODE="seed"; SEED_WHICH="${arg#*=}" ;;
    --audit-waivers) MODE="audit" ;;
    --require-clang) REQUIRE_CLANG=1 ;;
    *) usage >&2; fail "unknown argument '${arg}'" ;;
  esac
done

command -v "${PYTHON3}" >/dev/null 2>&1 \
  || fail "${PYTHON3} not found — gate 4 (tgm-lint) needs python3"

HAVE_CLANGXX=0
command -v "${CLANGXX}" >/dev/null 2>&1 && HAVE_CLANGXX=1
HAVE_TIDY=0
command -v "${CLANG_TIDY}" >/dev/null 2>&1 && HAVE_TIDY=1

SKIPPED=()
skip_or_fail() {  # $1 gate label, $2 missing tool
  if [[ ${REQUIRE_CLANG} -eq 1 ]]; then
    fail "$1 requires $2 and --require-clang is set"
  fi
  echo "   SKIP: $1 — $2 not found (install it or set its env var;" \
       "CI runs this gate with --require-clang)"
  SKIPPED+=("$1")
}

# --- Waiver audit mode --------------------------------------------------
if [[ "${MODE}" == "audit" ]]; then
  exec "${PYTHON3}" "${TGM_LINT[@]}" --audit-waivers
fi

# --- Seeded-defect mode: every gate must bite ---------------------------
# Each variant re-introduces a defect (a pool deadlock for the
# thread-safety wall, one synthetic violation per tgm-lint check) and
# requires the gate to REJECT it — proving enforcement, not just that
# clean code passes.
if [[ "${MODE}" == "seed" ]]; then
  WORK="$(mktemp -d)"
  trap 'rm -rf "${WORK}"' EXIT

  want() { [[ "${SEED_WHICH}" == "all" || "${SEED_WHICH}" == "$1" ]]; }
  RAN_ANY=0

  if want locked-work; then
    RAN_ANY=1
    if [[ ${HAVE_CLANGXX} -eq 0 ]]; then
      skip_or_fail "seed locked-work" "${CLANGXX}"
    else
      echo "== Seeded defect [locked-work]: pool caller runs bodies under mu_"
      mkdir -p "${WORK}/exec"
      # Swap ForkJoinPool::RunShared's wait for joined workers for running
      # bodies while mu_ is held: joined workers can then never leave the
      # call (leaving takes mu_), and a throwing body re-locks mu_ on the
      # thread that holds it. Work() is TGM_EXCLUDES(mu_); the wall must
      # reject.
      sed 's/while (joined_ != 0) done_cv_.Wait(lock);/while (joined_ != 0) Work(call);/' \
        src/exec/fork_join.cc > "${WORK}/exec/fork_join.cc"
      cmp -s src/exec/fork_join.cc "${WORK}/exec/fork_join.cc" \
        && fail "seed pattern did not match fork_join.cc — update the sed in $0"
      set +e
      OUT="$("${CLANGXX}" -std=c++20 -fsyntax-only \
          -Wthread-safety -Werror=thread-safety \
          -I src "${WORK}/exec/fork_join.cc" 2>&1)"
      STATUS=$?
      set -e
      [[ ${STATUS} -ne 0 ]] \
        || fail "seeded locked-work deadlock COMPILED — the wall is not biting"
      echo "${OUT}" | grep -q 'thread-safety' \
        || fail "seeded pool build failed for the wrong reason: ${OUT}"
      echo "   OK: seeded locked-work deadlock rejected by -Werror=thread-safety:"
      echo "${OUT}" | grep "mu_\|thread-safety" | head -3 | sed 's/^/   | /'
      "${CLANGXX}" -std=c++20 -fsyntax-only -Wthread-safety \
          -Werror=thread-safety -I src src/exec/fork_join.cc \
        || fail "pristine fork_join.cc does not pass the wall"
      echo "   OK: pristine pool passes the same check"
    fi
  fi

  # tgm-lint seeds: copy the tree, inject one violation, require the gate
  # to reject it with the right check tag.
  seed_lint() {  # $1 variant, $2 target file, $3 expected tag, $4 payload
    RAN_ANY=1
    echo "== Seeded defect [$1]: injecting into $2"
    local tree="${WORK}/lint-$1"
    mkdir -p "${tree}/tools/lint"
    cp -r src "${tree}/src"
    cp tools/lint/layers.conf "${tree}/tools/lint/layers.conf"
    printf '%s\n' "$4" >> "${tree}/$2"
    set +e
    OUT="$("${PYTHON3}" tools/lint/tgm_lint.py --root "${tree}" --src src \
        --layers tools/lint/layers.conf 2>&1)"
    STATUS=$?
    set -e
    [[ ${STATUS} -ne 0 ]] \
      || fail "seeded $1 violation PASSED tgm-lint — gate 4 is not biting"
    echo "${OUT}" | grep -q "\[$3\]" \
      || fail "seeded $1 violation rejected for the wrong reason: ${OUT}"
    echo "${OUT}" | grep "\[$3\]" | head -2 | sed 's/^/   | /'
    echo "   OK: seeded $1 violation rejected by tgm-lint [$3]"
  }

  if want determinism; then
    seed_lint determinism src/query/interest.cc unordered-iter \
'namespace tgm { namespace seeded {
std::vector<int> LeakHashOrder(const std::unordered_map<int, int>& m) {
  std::vector<int> out;
  for (const auto& [k, v] : m) { out.push_back(k + v); }
  return out;
} } }'
  fi
  if want layering; then
    seed_lint layering src/temporal/sequence.h layering \
'#include "api/session.h"'
  fi
  if want status-discard; then
    seed_lint status-discard src/api/session.cc status-discard \
'namespace tgm { namespace api { namespace seeded {
void DropError(Session& s, const StreamEvent& e, const WatchSink& sink) {
  s.Feed(e, sink);
} } } }'
  fi
  if want raw-primitive; then
    seed_lint raw-primitive src/mining/miner.cc raw-primitive \
'#include <mutex>
static std::mutex tgm_lint_seeded_mu;'
  fi

  [[ ${RAN_ANY} -eq 1 ]] \
    || fail "unknown --seeded-defect variant '${SEED_WHICH}' (see --help)"
  if [[ ${#SKIPPED[@]} -gt 0 ]]; then
    echo "Seeded-defect run finished; SKIPPED (no clang): ${SKIPPED[*]}"
  else
    echo "All seeded defects rejected — the wall bites."
  fi
  exit 0
fi

# --- Gate 1: no bare assert() in production code -----------------------
# static_assert is fine (compile-time); assert( is not. src/ only — tests
# are gtest-macro territory anyway. Toolchain-independent, so it runs
# first on every host.
echo "== Gate 1: assert() ban over src/"
if grep -rnE '(^|[^_[:alnum:]])assert\(' --include='*.h' --include='*.cc' src/ \
    | grep -v 'static_assert' | grep -v '// *assert-ok:'; then
  fail "bare assert() in src/ — use TGM_CHECK/TGM_DCHECK (temporal/common.h)"
fi
echo "   OK: no bare assert() sites"

# --- Gate 4: tgm-lint project-contract checks ---------------------------
# Runs second (before the clang gates) because it is also
# toolchain-independent: determinism, layering, Status discipline, and
# the raw-primitive ban all gate a gcc-only host. Uses the compilation
# database when present (enables the libclang AST refinement).
echo "== Gate 4: tgm-lint (determinism, layering, status-discard, raw-primitive)"
LINT_ARGS=()
if [[ -f "${BUILD_DIR}/compile_commands.json" ]]; then
  LINT_ARGS+=(--compdb "${BUILD_DIR}/compile_commands.json")
elif [[ -f build/compile_commands.json ]]; then
  LINT_ARGS+=(--compdb build/compile_commands.json)
fi
"${PYTHON3}" "${TGM_LINT[@]}" "${LINT_ARGS[@]}" \
  || fail "tgm-lint found contract violations (waive only with a reason)"
echo "   OK: tgm-lint clean over src/"

# --- Gate 2: full Clang build with -Werror=thread-safety ----------------
echo "== Gate 2: Clang -Werror=thread-safety build"
if [[ ${HAVE_CLANGXX} -eq 0 ]]; then
  skip_or_fail "gate 2 (thread-safety build)" "${CLANGXX}"
else
  cmake -B "${BUILD_DIR}" -S . \
    -DCMAKE_CXX_COMPILER="${CLANGXX}" \
    -DCMAKE_BUILD_TYPE=Release \
    -DTGMINER_CHECK_INVARIANTS=ON \
    > "${BUILD_DIR}.configure.log" 2>&1 \
    || { cat "${BUILD_DIR}.configure.log"; fail "clang configure failed"; }
  cmake --build "${BUILD_DIR}" -j "$(nproc)" \
    || fail "clang build failed (thread-safety violations are errors)"
  echo "   OK: clang build clean under -Werror=thread-safety"
fi

# --- Gate 3: clang-tidy over the compilation database -------------------
echo "== Gate 3: clang-tidy"
if [[ ${HAVE_TIDY} -eq 0 || ${HAVE_CLANGXX} -eq 0 ]]; then
  skip_or_fail "gate 3 (clang-tidy)" "${CLANG_TIDY}"
else
  [[ -f "${BUILD_DIR}/compile_commands.json" ]] \
    || fail "no compile_commands.json in ${BUILD_DIR}"
  # First-party sources only: the database also holds gtest/bench TUs.
  mapfile -t SOURCES < <(find src -name '*.cc' | sort)
  "${CLANG_TIDY}" -p "${BUILD_DIR}" --quiet "${SOURCES[@]}" \
    || fail "clang-tidy reported findings (WarningsAsErrors: '*')"
  echo "   OK: clang-tidy clean over ${#SOURCES[@]} sources"
fi

if [[ ${#SKIPPED[@]} -gt 0 ]]; then
  echo "Gates passed WITH SKIPS (${SKIPPED[*]}) — install clang or run" \
       "with --require-clang for the full wall."
else
  echo "All static-analysis gates passed."
fi
