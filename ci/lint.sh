#!/usr/bin/env bash
# Workspace lint gates that rustc/clippy don't cover. See ci/README.md.
#
# Gate 1: no `.unwrap()` in non-test code under crates/faultinj/src.
#         Campaign tooling must surface failures as typed errors
#         (ShardError & friends), not panics — a panicking shard loses
#         its checkpoint guarantee.
# Gate 2: no `Instant::now` outside the files in ci/instant_allowlist.txt.
#         Wall-clock reads belong to obs::profile's Wall mode and the
#         harness timing layer; anywhere else they threaten the
#         bit-identical merge invariant. Every allowlist entry must name
#         an existing file or directory, so a deleted or moved file
#         cannot leave its exemption behind.
# Gate 3: no `&mut SensorFrame` outside the sensor-fault injection hook.
#         The frame between World::capture_into and the driver is mutated
#         in exactly one sanctioned place (runtime::inject, applied by
#         runtime::simloop); a second mutation site would bypass the
#         fault-onset bookkeeping and break seed-pure realizations.
# Gate 4: no time sources in the flight recorder. Flight records and
#         incident artifacts are part of the bit-identical merge surface;
#         a single `Instant::now` / `SystemTime` / chrono timestamp in
#         obs::flight or runtime::flight would make recordings differ
#         across machines and break the exactly-once incident merge.
# Gate 5: no HashMap/HashSet in the guided planner (faultinj guided.rs
#         and plan.rs). Allocation, stratum enumeration, and epoch
#         summaries feed seeds and Horvitz-Thompson weights; one
#         randomized-iteration-order map would silently break the
#         bit-identical guided merge. BTreeMap/BTreeSet only.
# Gate 6: one scorer. In non-test code under crates/*/src, only
#         crates/faultinj/src/outcome.rs may name an `OutcomeClass::`
#         variant or call `first_violation_time(`. Every Table-I row,
#         weighted row, precision/recall, lead time and missed-hazard
#         count is a view of its Verdict/Tally; a hand-written tally
#         elsewhere could silently score runs differently.
# Gate 7: one cut. In non-test code under crates/*/src, only
#         crates/faultinj/src/campaign.rs may call `generate_plan(` or
#         `GuidedPlanner::new(` (the `fn generate_plan(` definition is
#         exempt). campaign::Cut decides which units a campaign cut runs
#         for both executors; a second planner call would be a second
#         place deciding it.
# Gate 8: no unused dependency edges. Every key of a crates/*/Cargo.toml
#         [dependencies] table must be named as a Rust path (`name::`,
#         dashes as underscores) outside comments in that crate's src/
#         or benches/. An edge nothing names still costs build time and
#         hides the real dependency graph; a test-only one belongs in
#         [dev-dependencies].
# Gate 9: one distributor. In non-test code under crates/core/src and
#         crates/runtime/src, only crates/core/src/distributor.rs may
#         name an `AgentMode::` variant (comment lines are skipped: doc
#         examples build modes). The ADS tick asks the distributor who
#         receives, who drives and at what period; a per-mode branch
#         elsewhere would be a second place deciding it.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# --- Gate 1: unwrap() in faultinj non-test code -------------------------
# awk stops scanning each file at its first #[cfg(test)] marker, so test
# modules (which unwrap freely) don't trip the gate.
unwrap_hits=$(awk '
    FNR == 1 { in_tests = 0 }
    /#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && /\.unwrap\(\)/ { print FILENAME ":" FNR ": " $0 }
' crates/faultinj/src/*.rs)
if [[ -n "$unwrap_hits" ]]; then
    echo "lint: .unwrap() in non-test faultinj code (use typed errors):" >&2
    echo "$unwrap_hits" >&2
    fail=1
fi

# --- Gate 2: Instant::now outside the allowlist -------------------------
allowed=()
while IFS= read -r line; do
    line="${line%%#*}"
    line="$(echo "$line" | tr -d '[:space:]')"
    [[ -n "$line" ]] && allowed+=("$line")
done < ci/instant_allowlist.txt

stale=""
for prefix in "${allowed[@]}"; do
    [[ -e "$prefix" ]] || stale+="  $prefix"$'\n'
done
if [[ -n "$stale" ]]; then
    echo "lint: ci/instant_allowlist.txt entries that match no file or directory" >&2
    echo "(remove them; an exemption must not outlive its file):" >&2
    printf '%s' "$stale" >&2
    fail=1
fi

instant_hits=""
while IFS= read -r hit; do
    file="${hit%%:*}"
    ok=0
    for prefix in "${allowed[@]}"; do
        if [[ "$file" == "$prefix" || "$file" == "$prefix"* && "$prefix" == */ ]]; then
            ok=1
            break
        fi
    done
    if [[ $ok -eq 0 ]]; then
        instant_hits+="$hit"$'\n'
    fi
done < <(grep -rn 'Instant::now' crates --include='*.rs' || true)
if [[ -n "$instant_hits" ]]; then
    echo "lint: Instant::now outside ci/instant_allowlist.txt (wall-clock" >&2
    echo "reads belong to obs::profile Wall mode / harness timing only):" >&2
    printf '%s' "$instant_hits" >&2
    fail=1
fi

# --- Gate 3: SensorFrame mutation outside the injection hook ------------
# The producer (simworld fills frames it owns) and the one sanctioned
# injection site are allowed; everything else must take &SensorFrame.
frame_hits=$(grep -rn '&mut SensorFrame' crates --include='*.rs' \
    | grep -v '^crates/simworld/' \
    | grep -v '^crates/runtime/src/inject.rs:' \
    | grep -v '^crates/runtime/src/simloop.rs:' || true)
if [[ -n "$frame_hits" ]]; then
    echo "lint: &mut SensorFrame outside the sanctioned injection hook" >&2
    echo "(sensor faults go through runtime::inject::FrameInjector only):" >&2
    echo "$frame_hits" >&2
    fail=1
fi

# --- Gate 4: time sources in the flight recorder ------------------------
# Stricter than Gate 2: the recorder files may not name *any* wall-clock
# or system-time API, allowlist or not — recordings must be pure
# functions of the seeds.
flight_hits=$(grep -rnE 'Instant::now|SystemTime|chrono|time::OffsetDateTime' \
    crates/obs/src/flight.rs crates/runtime/src/flight.rs || true)
if [[ -n "$flight_hits" ]]; then
    echo "lint: time source in the flight recorder (records must be" >&2
    echo "seed-pure; timestamps break the bit-identical incident merge):" >&2
    echo "$flight_hits" >&2
    fail=1
fi

# --- Gate 5: HashMap/HashSet in the guided planner ----------------------
# The guided planner's maps are iterated to build plans, seeds, and
# weights; std's HashMap randomizes iteration order per process, which
# would break bit-identical guided campaigns. BTreeMap/BTreeSet only.
guided_hits=$(grep -rnE 'HashMap|HashSet' \
    crates/faultinj/src/guided.rs crates/faultinj/src/plan.rs || true)
if [[ -n "$guided_hits" ]]; then
    echo "lint: HashMap/HashSet in the guided planner (iteration order is" >&2
    echo "randomized; stratified allocation must use BTreeMap/BTreeSet):" >&2
    echo "$guided_hits" >&2
    fail=1
fi

# --- Gate 6: one scorer -------------------------------------------------
# Scoped like Gate 1: awk stops at each file's first #[cfg(test)], so
# tests may classify runs by hand to check the scorer.
scorer_hits=$(find crates/*/src -name '*.rs' ! -path crates/faultinj/src/outcome.rs -print0 \
    | sort -z | xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && /OutcomeClass::|first_violation_time\(/ { print FILENAME ":" FNR ": " $0 }
')
if [[ -n "$scorer_hits" ]]; then
    echo "lint: run scoring outside faultinj::outcome (tally Verdicts with" >&2
    echo "outcome::Tally instead of matching OutcomeClass by hand):" >&2
    echo "$scorer_hits" >&2
    fail=1
fi

# --- Gate 7: one cut ----------------------------------------------------
# Scoped like Gates 1 and 6: awk stops at each file's first #[cfg(test)],
# so tests may draw plans directly to check them.
cut_hits=$(find crates/*/src -name '*.rs' ! -path crates/faultinj/src/campaign.rs -print0 \
    | sort -z | xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && /generate_plan\(|GuidedPlanner::new\(/ && !/fn generate_plan\(/ {
        print FILENAME ":" FNR ": " $0
    }
')
if [[ -n "$cut_hits" ]]; then
    echo "lint: injection plan drawn outside faultinj::campaign (build a" >&2
    echo "campaign::Cut instead of calling the planners directly):" >&2
    echo "$cut_hits" >&2
    fail=1
fi

# --- Gate 8: unused dependency edges -----------------------------------
dep_hits=""
for manifest in crates/*/Cargo.toml; do
    crate="${manifest%/Cargo.toml}"
    dirs=()
    for d in "$crate/src" "$crate/benches"; do
        [[ -d "$d" ]] && dirs+=("$d")
    done
    deps=$(awk '
        /^\[/ { in_deps = ($0 == "[dependencies]"); next }
        in_deps && match($0, /^[A-Za-z0-9_-]+/) { print substr($0, 1, RLENGTH) }
    ' "$manifest")
    for dep in $deps; do
        name="${dep//-/_}"
        # Collected first: `grep -q` at the end of a pipe could close it
        # early, and pipefail would then report the writer's SIGPIPE.
        uses=$(grep -rhE "(^|[^[:alnum:]_])${name}::" "${dirs[@]}" --include='*.rs' || true)
        if [[ -z "$(grep -vE '^[[:space:]]*//' <<<"$uses")" ]]; then
            dep_hits+="  $manifest: $dep"$'\n'
        fi
    done
done
if [[ -n "$dep_hits" ]]; then
    echo "lint: [dependencies] entries their crate's src/ and benches/ never name" >&2
    echo "(drop the edge, or move a test-only one to [dev-dependencies]):" >&2
    printf '%s' "$dep_hits" >&2
    fail=1
fi

# --- Gate 9: one distributor --------------------------------------------
# Scoped like Gates 1, 6 and 7: awk stops at each file's first
# #[cfg(test)], so tests may build any mode.
mode_hits=$(find crates/core/src crates/runtime/src -name '*.rs' \
    ! -path crates/core/src/distributor.rs -print0 \
    | sort -z | xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && !/^[[:space:]]*\/\// && /AgentMode::[A-Z]/ { print FILENAME ":" FNR ": " $0 }
')
if [[ -n "$mode_hits" ]]; then
    echo "lint: deployment mode named outside core::distributor (ask AgentMode" >&2
    echo "for recipients/driver/frame_period instead of matching its variants):" >&2
    echo "$mode_hits" >&2
    fail=1
fi

if [[ $fail -ne 0 ]]; then
    exit 1
fi
echo "lint: ok (no stray unwrap(), no unlisted Instant::now, no stale allowlist entry, no rogue SensorFrame mutation, no clock in the flight recorder, no hash maps in the guided planner, no scoring outside the one scorer, no plan drawn outside the one cut, no unused dependency edge, no mode named outside the one distributor)"
