#!/usr/bin/env bash
# Repo CI gate — one command, non-zero exit on any failure:
#
#   tools/ci.sh            full gate (every stage below)
#   tools/ci.sh --quick    build + tests only: `dune build @ci` and nothing
#                          else — the inner-loop pre-push check
#
# Stages (full mode):
#
#   build+tests   dune build @ci         (whole tree + every test suite)
#   bench smoke   bench/main.exe --only solver_cache / gradsearch /
#                 prescreen (append schema-2 counter rows to
#                 bench/history.jsonl; fail on cache-on/off graph drift,
#                 plan-on/off bit drift or screen-on/off digest drift)
#   determinism   bench/main.exe check-determinism (each counter round runs
#                 twice in-process; any work-counter mismatch fails)
#   perf gate     bench/main.exe regress (work counters must equal the last
#                 committed history row exactly; allocation words within 2%;
#                 wall-clock is advisory only)
#   dashboard     journaled mini-campaign -> static HTML (balanced tags,
#                 non-empty triage table, no NaN, no scripts)
#   fleet         worker + supervisor kill -9, resume bit-identity
#   cohort        cohort/jobs campaign bit-identity; the reference
#                 index.jsonl must also match its committed md5
#   prescreen     screen-on vs --no-prescreen campaign bit-identity
#   perfbench     perfbench/bench.exe selftest --workload fuzz-10n (the
#                 campaign benchmark's loop matches Pfuzz.fuzz and its
#                 work counters repeat exactly)
#   style         no tabs / trailing whitespace; new lib modules need .mli
#   hygiene       no tracked _build/, CHANGES.md updated alongside HEAD
#
# Every stage is timed; a per-stage summary prints on exit (success or
# failure) so slow stages are visible without re-running under `time`.
#
# Bench stages run at --budget 400 so history rows carry comparable
# workload keys (the regress gate only compares rows at equal workloads).
set -u
cd "$(dirname "$0")/.."

quick=0
for arg in "$@"; do
  case "$arg" in
    --quick) quick=1 ;;
    *) printf 'ci: unknown argument %s\n' "$arg" >&2; exit 2 ;;
  esac
done

fail=0
stage_names=()
stage_ms=()
cur_stage=""
cur_start=0

now_ms() { date +%s%3N; }

stage_close() {
  if [ -n "$cur_stage" ]; then
    stage_names+=("$cur_stage")
    stage_ms+=($(( $(now_ms) - cur_start )))
    cur_stage=""
  fi
}

note() {
  stage_close
  cur_stage="$*"
  cur_start=$(now_ms)
  printf '\nci: == %s ==\n' "$*"
}

summary() {
  stage_close
  if [ "${#stage_names[@]}" -gt 0 ]; then
    printf '\nci: stage timing summary\n'
    local i t
    for i in "${!stage_names[@]}"; do
      t=${stage_ms[$i]}
      printf 'ci: %6d.%03ds  %s\n' $(( t / 1000 )) $(( t % 1000 )) \
        "${stage_names[$i]}"
    done
  fi
}
trap summary EXIT

err() { printf 'ci: FAIL: %s\n' "$*" >&2; fail=1; }

note "dune build @ci (build + runtest)"
dune build @ci || err "dune build @ci failed"

if [ "$quick" -eq 1 ]; then
  if [ "$fail" -ne 0 ]; then
    printf '\nci: FAILED (quick)\n'
    exit 1
  fi
  printf '\nci: OK (quick: build + tests only)\n'
  exit 0
fi

note "bench smoke (solver cache)"
dune exec bench/main.exe -- --only solver_cache --budget 400 \
  || err "solver-cache bench smoke failed"

note "bench smoke (gradient search plans)"
dune exec bench/main.exe -- --only gradsearch --budget 400 \
  || err "gradsearch bench smoke failed"

note "bench smoke (constraint pre-screening)"
# Appends to BENCH_prescreen.json and asserts bit-identical campaign
# digests between screen-on and screen-off runs; the counter capture
# feeds the determinism and regress gates below.
dune exec bench/main.exe -- --only prescreen --budget 400 \
  || err "prescreen bench smoke failed"

note "bench check-determinism"
# Each gated counter round twice in-process: any work-counter or
# allocation-word mismatch means the regress gate below would be noise,
# so this fails first and loudly.
dune exec bench/main.exe -- check-determinism --budget 400 \
  || err "bench counters are not deterministic"

note "bench regress (counter gate)"
dune exec bench/main.exe -- regress --budget 400 \
  || err "work counters regressed vs the committed history row"

note "dashboard smoke"
# A tiny journaled campaign rendered end-to-end through the real CLI:
# the HTML must exist, stay NaN-free (the sparkline finite-guard), keep
# its tags balanced, and carry a non-empty triage table.
dash_dir=$(mktemp -d)
if dune exec bin/nnsmith_cli.exe -- fuzz --system oxrt --tests 24 --jobs 2 \
    --bugs --seed 3 --journal "$dash_dir" >/dev/null 2>&1 \
  && dune exec bin/nnsmith_cli.exe -- dashboard "$dash_dir" >/dev/null 2>&1
then
  html="$dash_dir/dashboard.html"
  [ -s "$html" ] || err "dashboard.html missing or empty"
  if grep -q 'NaN' "$html"; then err "NaN leaked into the dashboard"; fi
  open_n=$(grep -o '<section>' "$html" | wc -l)
  close_n=$(grep -o '</section>' "$html" | wc -l)
  [ "$open_n" -eq "$close_n" ] || err "unbalanced <section> tags in dashboard"
  grep -q 'Bug triage' "$html" || err "dashboard triage section missing"
  grep -q '<td>' "$html" || err "dashboard triage table is empty"
  if grep -q '<script' "$html"; then err "dashboard must not contain scripts"; fi
else
  err "journaled fuzz campaign or dashboard generation failed"
fi
rm -rf "$dash_dir"

note "fleet smoke (worker + supervisor kill -9, resume bit-identity)"
# Two fleet campaigns with identical seeds and deterministic worker
# crashes injected (each worker exit(66)s before indices 23 and 71 — a
# crashing worker must not end the campaign).  The reference runs
# uninterrupted; the second has one worker and then the supervisor
# SIGKILLed mid-run and is finished with --resume.  The checkpointed
# queue must land both on byte-identical corpus indexes (which carry the
# failure-key set) and coverage exports.
nn=_build/default/bin/nnsmith_cli.exe
if [ -x "$nn" ]; then
  fleet_ref=$(mktemp -d)
  fleet_kill=$(mktemp -d)
  fleet_args="--tests 300 --procs 2 --bugs --seed 7 --checkpoint-every 5"
  export NNSMITH_FLEET_ABORT_INDICES="23,71"
  if "$nn" fleet "$fleet_ref" $fleet_args >/dev/null 2>&1; then
    "$nn" fleet "$fleet_kill" $fleet_args >/dev/null 2>&1 &
    sup=$!
    # wait for the campaign to be genuinely mid-flight (first checkpoint)
    for _ in $(seq 1 250); do
      [ -f "$fleet_kill/checkpoint.json" ] && break
      sleep 0.02
    done
    worker=$(pgrep -P "$sup" 2>/dev/null | head -n1)
    # worker first, supervisor immediately after — cold kill, no drain
    kill -9 $worker "$sup" 2>/dev/null
    wait "$sup" 2>/dev/null
    if "$nn" fleet "$fleet_kill" --resume >/dev/null 2>&1; then
      cmp -s "$fleet_ref/index.jsonl" "$fleet_kill/index.jsonl" \
        || err "fleet resume: corpus index diverged from uninterrupted run"
      cmp -s "$fleet_ref/coverage.json" "$fleet_kill/coverage.json" \
        || err "fleet resume: coverage diverged from uninterrupted run"
    else
      err "fleet --resume failed after kill -9"
    fi
  else
    err "fleet reference campaign failed (crash-injected workers must not kill it)"
  fi
  unset NNSMITH_FLEET_ABORT_INDICES
  rm -rf "$fleet_ref" "$fleet_kill"
else
  err "fleet smoke: $nn missing (dune build @ci should have built it)"
fi

note "cohort smoke (cohort/jobs campaign bit-identity)"
# The shared cohort pool and the sharded schedule are meant to be
# invisible to campaign results: the same seeded run with cohort size 1
# and one worker must produce a byte-identical corpus index to cohort
# size 8 at jobs=2.  The reference index is also pinned to its committed
# md5 (5,245 bytes), so an engine change that claims to leave outputs
# alone is checked against the commit before it, not only against
# itself.  Re-baseline co_md5 only with a deliberate output change.
if [ -x "$nn" ]; then
  co_ref=$(mktemp -d)
  co_var=$(mktemp -d)
  co_args="fuzz --system lotus --tests 40 --bugs --seed 11"
  co_md5=aeebccfe7a691141623d5daca9f0a7ca
  if "$nn" $co_args --jobs 1 --cohort-size 1 \
       --report-dir "$co_ref" >/dev/null 2>&1 \
    && "$nn" $co_args --jobs 2 --cohort-size 8 \
         --report-dir "$co_var" >/dev/null 2>&1
  then
    [ -s "$co_ref/index.jsonl" ] \
      || err "cohort smoke: reference campaign saved no failures"
    cmp -s "$co_ref/index.jsonl" "$co_var/index.jsonl" \
      || err "cohort smoke: corpus index depends on cohort size or jobs"
    got_md5=$(md5sum < "$co_ref/index.jsonl" | cut -d' ' -f1)
    [ "$got_md5" = "$co_md5" ] \
      || err "cohort smoke: index.jsonl md5 $got_md5, committed $co_md5"
  else
    err "cohort smoke campaign failed"
  fi
  rm -rf "$co_ref" "$co_var"
else
  err "cohort smoke: $nn missing"
fi

note "prescreen smoke (screen on/off campaign bit-identity)"
# The interval pre-screen only answers definitely-UNSAT queries the
# solver would also reject, so disabling it must not change campaign
# results — same seeded run with and without --no-prescreen must land on
# byte-identical corpus indexes.
if [ -x "$nn" ]; then
  ps_ref=$(mktemp -d)
  ps_off=$(mktemp -d)
  ps_args="fuzz --system lotus --tests 40 --bugs --seed 11"
  if "$nn" $ps_args --report-dir "$ps_ref" >/dev/null 2>&1 \
    && "$nn" $ps_args --no-prescreen --report-dir "$ps_off" >/dev/null 2>&1
  then
    [ -s "$ps_ref/index.jsonl" ] \
      || err "prescreen smoke: reference campaign saved no failures"
    cmp -s "$ps_ref/index.jsonl" "$ps_off/index.jsonl" \
      || err "prescreen smoke: corpus index depends on pre-screening"
  else
    err "prescreen smoke campaign failed"
  fi
  rm -rf "$ps_ref" "$ps_off"
else
  err "prescreen smoke: $nn missing"
fi

note "perfbench selftest (fuzz-10n)"
# The campaign benchmark (perfbench/, see perfbench/README.md) keeps its
# own copy of the fuzz loop.  The selftest runs the fuzz-10n workload
# twice and checks it against Pfuzz.fuzz, so a drift between the two
# loops, or a work counter that does not repeat, fails here rather than
# only when the benchmark is next run.
pb=_build/default/perfbench/bench.exe
if [ -x "$pb" ]; then
  "$pb" selftest --workload fuzz-10n || err "perfbench fuzz-10n selftest failed"
else
  err "perfbench selftest: $pb missing (dune build @ci should have built it)"
fi

note "style gate"
tracked_src=$(git ls-files '*.ml' '*.mli' 'dune' '*/dune' 'dune-project')
ws=$(echo "$tracked_src" | xargs grep -l -E ' +$' 2>/dev/null)
[ -z "$ws" ] || err "trailing whitespace in: $ws"
tab=$(printf '\t')
tabs=$(echo "$tracked_src" | xargs grep -l "$tab" 2>/dev/null)
[ -z "$tabs" ] || err "tab characters in: $tabs"

# Every lib module needs an interface; modules that predate the gate are
# frozen here — do not add to this list, write the .mli instead.
mli_allowlist="
lib/ir/op.ml
lib/ir/serial.ml
lib/ir/ttype.ml
lib/ops/shapegen.ml
lib/ops/spec.ml
lib/ops/tpl_elementwise.ml
lib/ops/tpl_nn.ml
lib/ops/tpl_shape.ml
lib/ortlike/compiler.ml
lib/ortlike/ir.ml
lib/tvmlike/compiler.ml
lib/tvmlike/lower.ml
lib/tvmlike/rir.ml
lib/tvmlike/tir.ml
"
for f in $(git ls-files 'lib/*/*.ml'); do
  case "$mli_allowlist" in
    *"$f"*) continue ;;
  esac
  [ -f "${f}i" ] || err "lib module without interface: $f (add ${f}i)"
done

note "repo hygiene"
if git ls-files | grep -q '^_build/'; then
  err "_build/ artifacts are tracked"
fi
# CHANGES.md must ride along with every PR: either HEAD touched it or the
# working tree holds a pending edit to it.
if git rev-parse -q --verify HEAD^ >/dev/null 2>&1; then
  if git diff --name-only HEAD^ HEAD | grep -qx 'CHANGES.md' \
    || git status --porcelain -- CHANGES.md | grep -q .; then
    :
  else
    err "CHANGES.md has no entry for HEAD and no pending edit"
  fi
fi

if [ "$fail" -ne 0 ]; then
  printf '\nci: FAILED\n'
  exit 1
fi
printf '\nci: OK\n'
