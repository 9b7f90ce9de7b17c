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
#   bench rows    bench/main.exe --only solver_cache / prescreen /
#                 gradsearch (each captures its fixed-seed counter round
#                 and appends a schema-2 row to bench/history.jsonl)
#   determinism   bench/main.exe check-determinism (each counter round runs
#                 twice in-process; any work-counter or digest mismatch
#                 fails)
#   perf gate     bench/main.exe regress (work counters must equal the last
#                 committed history row exactly; allocation words within 2%;
#                 tests/sec is advisory only)
#   dashboard     journaled mini-campaign -> static HTML (balanced tags,
#                 non-empty triage table, no NaN, no scripts)
#   fleet         worker + supervisor kill -9, resume bit-identity; the
#                 reference campaign's index.jsonl and coverage.json must
#                 also match their committed md5s
#   cohort        jobs=1 vs jobs=2 campaign bit-identity; the reference
#                 index.jsonl must also match its committed md5
#   perfbench     perfbench/bench.exe selftest --workload fuzz-10n (the
#                 campaign benchmark's loop matches Pfuzz.fuzz and its
#                 work counters repeat exactly); the Pfuzz.fuzz digest's
#                 verdicts, failure keys and coverage must equal their
#                 committed values
#   suite-hunt    perfbench/bench.exe run --workload suite-hunt: the
#                 digest's verdicts, failure keys, coverage, index.jsonl
#                 bytes and the md5 of its triggered-defect table must
#                 equal their committed values (OxRT/TRT/Lotus outputs and
#                 their attribution with every seeded defect on)
#   style         no tabs / trailing whitespace; new lib modules need .mli;
#                 one clock: under lib/, bin/ and bench/, only
#                 lib/telemetry/telemetry.ml reads a clock
#                 (Unix.gettimeofday, Unix.time, Unix.times, Sys.time);
#                 test-only solver hooks: under lib/, bin/, bench/ and
#                 examples/, only lib/smt/solver.ml names a hook from the
#                 Test-only section of lib/smt/solver.mli; one index
#                 engine: no .ml there names Shape.unravel or Shape.ravel
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

bm=_build/default/bench/main.exe

note "bench counter rows (solver_cache, prescreen, gradsearch)"
# Each counter experiment captures its fixed-seed round (work counters,
# allocation words) and appends a row with its output digest to
# bench/history.jsonl; the determinism and regress gates below read them.
for id in solver_cache prescreen gradsearch; do
  "$bm" --only "$id" --budget 400 || err "bench counter round $id failed"
done

note "bench check-determinism"
# Each gated counter round twice in-process: any work-counter or
# allocation-word mismatch, or a digest that differs between two rounds,
# means the regress gate below would be noise, so this fails first and
# loudly.
"$bm" check-determinism --budget 400 \
  || err "bench counters are not deterministic"

note "bench regress (counter gate)"
"$bm" regress --budget 400 \
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
# failure-key set) and coverage exports.  The reference outputs are also
# pinned to their committed md5s (index.jsonl 44,613 bytes), so a change
# to the crash bundles or to the fleet's fold is checked against the
# commit before it, not only against itself.  Re-baseline them only with
# a deliberate output change, together with the cohort md5 below.
nn=_build/default/bin/nnsmith_cli.exe
if [ -x "$nn" ]; then
  fleet_ref=$(mktemp -d)
  fleet_kill=$(mktemp -d)
  fleet_args="--tests 300 --procs 2 --bugs --seed 7 --checkpoint-every 5"
  fleet_index_md5=e88917bd3b7acb7e7fcecf035c3139b4
  fleet_cov_md5=1d9785cfbffa531db6f8f1e4aed21460
  export NNSMITH_FLEET_ABORT_INDICES="23,71"
  if "$nn" fleet "$fleet_ref" $fleet_args >/dev/null 2>&1; then
    got_md5=$(md5sum < "$fleet_ref/index.jsonl" | cut -d' ' -f1)
    [ "$got_md5" = "$fleet_index_md5" ] \
      || err "fleet smoke: index.jsonl md5 $got_md5, committed $fleet_index_md5"
    got_md5=$(md5sum < "$fleet_ref/coverage.json" | cut -d' ' -f1)
    [ "$got_md5" = "$fleet_cov_md5" ] \
      || err "fleet smoke: coverage.json md5 $got_md5, committed $fleet_cov_md5"
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

note "cohort smoke (jobs campaign bit-identity)"
# The shared cohort pool and the sharded schedule are meant to be
# invisible to campaign results: the same seeded run at one worker must
# produce a byte-identical corpus index to jobs=2, where each worker's
# pool sees a different sequence of graphs.  The reference index is also
# pinned to its committed md5 (5,245 bytes), so an engine change that
# claims to leave outputs alone is checked against the commit before it,
# not only against itself.  Re-baseline co_md5 only with a deliberate
# output change.
if [ -x "$nn" ]; then
  co_ref=$(mktemp -d)
  co_var=$(mktemp -d)
  co_args="fuzz --system lotus --tests 40 --bugs --seed 11"
  co_md5=aeebccfe7a691141623d5daca9f0a7ca
  if "$nn" $co_args --jobs 1 --report-dir "$co_ref" >/dev/null 2>&1 \
    && "$nn" $co_args --jobs 2 --report-dir "$co_var" >/dev/null 2>&1
  then
    [ -s "$co_ref/index.jsonl" ] \
      || err "cohort smoke: reference campaign saved no failures"
    cmp -s "$co_ref/index.jsonl" "$co_var/index.jsonl" \
      || err "cohort smoke: corpus index depends on jobs"
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

note "perfbench selftest (fuzz-10n)"
# The campaign benchmark (perfbench/, see perfbench/README.md) keeps its
# own copy of the fuzz loop.  The selftest runs the fuzz-10n workload
# twice and checks it against Pfuzz.fuzz, so a drift between the two
# loops, or a work counter that does not repeat, fails here rather than
# only when the benchmark is next run.  The Pfuzz.fuzz digest is also
# pinned: what the three systems report on fuzz-10n's 1000 generated
# graphs with every defect off (verdicts, failure keys, coverage).
# Re-baseline it only with a deliberate output change.
pb=_build/default/perfbench/bench.exe
if [ -x "$pb" ]; then
  st_out=$("$pb" selftest --workload fuzz-10n 2>&1) \
    || err "perfbench fuzz-10n selftest failed"
  printf '%s\n' "$st_out"
  st_digest=$(printf '%s\n' "$st_out" | grep '^Pfuzz.fuzz digest:')
  for want in 'verdicts[pass=2752,semantic=5,skipped=243]' \
      keys=1/058ff47c3385d5c8ac0ddf6013f0b6aa cov=431; do
    case "$st_digest " in
      *" $want "*) ;;
      *) err "fuzz-10n digest lacks $want: ${st_digest:-no digest line}" ;;
    esac
  done
else
  err "perfbench selftest: $pb missing (dune build @ci should have built it)"
fi

note "perfbench suite-hunt digest (compilers under every seeded defect)"
# One suite-hunt run retests the 1500 stored models on OxRT, TRT and Lotus
# with every seeded defect on, so its digest pins what the compilers under
# test compute and what the hunt attributes to each defect: the verdict
# counts, the failure keys, the coverage edges, the corpus index bytes and
# the triggered table (`triggered[...]`, pinned by its md5; it is what
# Bughunt.attribute_semantic's isolation re-runs produce).  Two passes,
# ~7 s on 2 cores.  A change that claims to leave outputs alone must keep
# all five.  Re-baseline them only with a deliberate output change,
# together with the cohort md5 above.
if [ -x "$pb" ]; then
  sh_out=$("$pb" run --workload suite-hunt --seed 1 --seconds 1 --trace 0 2>&1) \
    || err "perfbench suite-hunt run failed"
  sh_digest=$(printf '%s\n' "$sh_out" | grep '^digest:')
  sh_triggered=$(printf '%s\n' "$sh_digest" | tr ' ' '\n' | grep '^triggered\[')
  sh_triggered_md5=$(printf '%s' "$sh_triggered" | md5sum | cut -d' ' -f1)
  for want in 'verdicts[crash=1510,pass=2026,semantic=547,skipped=417]' \
      keys=121/1e5fa6273f0d53e34ba965f7f39c4d60 cov=453 \
      index.jsonl=198532B/9d7647eeeceec2df8e2885e5b89ae9d0; do
    case "$sh_digest " in
      *" $want "*) ;;
      *) err "suite-hunt digest lacks $want: ${sh_digest:-no digest line}" ;;
    esac
  done
  [ "$sh_triggered_md5" = 9a9a371b4438eeb93fb6199ded745f3b ] \
    || err "suite-hunt triggered table md5 $sh_triggered_md5, committed 9a9a371b4438eeb93fb6199ded745f3b: ${sh_triggered:-no triggered token}"
else
  err "perfbench suite-hunt: $pb missing"
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

# One clock: every clock reading under lib/, bin/ and bench/ goes through
# Telemetry.now_ms, so no module can keep a private deadline that decides
# a verdict and the bench keeps no second timing system (the CPU clock
# Unix.times included).
clocks=$(grep -rlE --include='*.ml' 'Unix\.(gettimeofday|times?)\b|Sys\.time\b' \
  lib bin bench | grep -vx 'lib/telemetry/telemetry.ml')
[ -z "$clocks" ] || err "clock read outside lib/telemetry/telemetry.ml: $clocks"

# Test-only solver hooks: the Test-only section of lib/smt/solver.mli
# serves the property tests, so no program path can switch the interval
# screen or decide anything through a hook.
hooks=$(grep -rlE --include='*.ml' \
  '\b(set_prescreen_enabled|prescreen_enabled|prescreen_unsat|propagate_for_test|eval_for_test|components_for_test)\b' \
  lib bin bench examples | grep -vx 'lib/smt/solver.ml')
[ -z "$hooks" ] || err "test-only solver hook named outside lib/smt/solver.ml: $hooks"

# One index engine: kernels walk index maps with Shape.iter_offsets, and
# the per-element Shape.unravel/Shape.ravel formulas serve only the tests
# as their oracle, so none may creep back into a kernel.
decode=$(grep -rlE --include='*.ml' '\bShape\.(unravel|ravel)\b' \
  lib bin bench examples)
[ -z "$decode" ] \
  || err "per-element Shape.unravel/Shape.ravel outside the tests: $decode"

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
