#!/usr/bin/env sh
# Tier-1 gate for longnail-rs. Run from the repo root.
#
#   ./ci.sh            build + tests (+ clippy when available)
#
# Every step is deterministic and offline; the workspace has no external
# crate dependencies (rand/proptest are local stubs in crates/). No step
# gates on wall-clock time: compile speed is measured by compilebench/.
set -eu

echo "== guard: no build artifacts tracked by git"
if git ls-files | grep -q '^target/\|/target/'; then
    echo "error: target/ paths are tracked by git:" >&2
    git ls-files | grep '^target/\|/target/' | head >&2
    exit 1
fi

echo "== docs: DESIGN.md §3 lists every crate, and every cited repo path exists"
# Every crates/* directory needs a `| \`crates/<name>\` |` row in the
# workspace inventory (DESIGN.md §3).
inventory=$(awk '/^## 3\./ { on = 1; next } /^## / { on = 0 } on' DESIGN.md)
stale=""
for dir in crates/*/; do
    name=$(basename "$dir")
    printf '%s\n' "$inventory" | grep -qF "| \`crates/$name\` |" ||
        stale="$stale
DESIGN.md §3 has no \`crates/$name\` row"
done
# A backticked token in README, DESIGN or EXPERIMENTS is a repo path when
# its first component is a tracked top-level directory or a crate name
# (`tests/x.rs`, `rtl/tests/y.rs`); a `::test_name` suffix is dropped.
# Each must match something, globs allowed, under the root, crates/ or
# crates/*/.
roots=$( (git ls-files | cut -d/ -f1; git ls-files crates | cut -d/ -f2) | sort -u)
stale="$stale$(grep -o '`[^` <>]*/[^` <>]*`' README.md DESIGN.md EXPERIMENTS.md | sort -u |
    while IFS= read -r cite; do
        path=$(printf '%s\n' "${cite#*:}" | tr -d '`' | sed 's/::.*//')
        printf '%s\n' "$roots" | grep -qxF "${path%%/*}" || continue
        for hit in ./$path crates/$path crates/*/$path; do
            if [ -e "$hit" ]; then continue 2; fi
        done
        printf '\n%s cites `%s`, which matches no repo path' "${cite%%:*}" "$path"
    done)"
if [ -n "$stale" ]; then
    echo "error: the docs drifted from the tree:$stale" >&2
    exit 1
fi

echo "== cargo build --release"
cargo build --release

echo "== cargo test --workspace (with empty-test-binary gate)"
test_log=$(mktemp)
# Not -q: the gate below needs the per-binary "Running ..." / "running N
# tests" pairs to spot test binaries that silently stopped running tests.
cargo test --workspace 2>&1 | tee "$test_log"
echo "== gate: every compiled test binary runs at least one test"
# Pair each "Running <target> (...)" header with the "running N tests"
# line that follows it. Doc-test sections are exempt (several crates have
# no doc examples by design); a unit/integration binary with 0 tests is a
# regression — the suite it carried went missing.
empty=$(awk '
    /^[[:space:]]+Running / { sub(/^[[:space:]]+Running /, ""); bin = $0; next }
    /^running [0-9]+ tests?$/ { if ($2 == 0 && bin != "") print bin; bin = "" }
' "$test_log")
rm -f "$test_log"
if [ -n "$empty" ]; then
    echo "error: test binaries that run 0 tests:" >&2
    echo "$empty" >&2
    exit 1
fi

echo "== cargo test --release -p bits -p rtl"
# Release builds drop overflow checks and debug_assert!, so the limb
# arithmetic and the simulators also run their tests the way the compiler
# ships.
cargo test --release -p bits -p rtl

echo "== cargo test --release: xcheck and rtl_cosim on the Table 3 netlists"
# The inlined release ApInt, run through both simulators on real
# netlists. Two invocations of their own: a `--test` filter on the step
# above would drop the bits/rtl unit tests.
cargo test --release -p longnail --test xcheck
cargo test --release --test rtl_cosim

echo "== cargo test --release: allocation counts in the build that ships"
# compilebench and lnc run the release build. The debug build counts a
# different program: it inlines differently, and `build_graph_module`
# lints every module it builds in a `debug_assert!` there.
cargo test --release -p longnail --test layer_allocations --test cycle_allocations

if cargo fmt --version >/dev/null 2>&1; then
    echo "== cargo fmt -p telemetry -p bits -p ilp -p qcache -p pool -p rand -p rtl -p eda -p cores -p proptest -p sched -p scaiev -- --check"
    cargo fmt -p telemetry -p bits -p ilp -p qcache -p pool -p rand -p rtl -p eda -p cores -p proptest -p sched -p scaiev -- --check
else
    echo "== rustfmt not installed; skipping format step"
fi

if cargo clippy --version >/dev/null 2>&1; then
    echo "== cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
    echo "== cargo clippy -p telemetry --all-targets -- -D warnings"
    cargo clippy -p telemetry --all-targets -- -D warnings
else
    echo "== clippy not installed; skipping lint step"
fi

echo "== smoke: lnc --report on a builtin ISAX"
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
cat > "$smoke_dir/dotp.core_desc" <<'EOF'
import "RV32I.core_desc";
InstructionSet X_DOTP extends RV32I {
  instructions {
    dotp {
      encoding: 7'd0 :: rs2[4:0] :: rs1[4:0] ::
                3'd0 :: rd[4:0] :: 7'b0001011;
      behavior: {
        signed<32> res = 0;
        for (int i = 0; i < 32; i += 8) {
          signed<16> prod = (signed) X[rs1][i+7:i] *
                            (signed) X[rs2][i+7:i];
          res += prod;
        }
        X[rd] = (unsigned) res;
      }
    }
  }
}
EOF
cargo run -q --release -p longnail --bin lnc -- \
    "$smoke_dir/dotp.core_desc" --core ORCA --unit X_DOTP \
    --report --metrics-out "$smoke_dir/dotp.jsonl" \
    --profile-folded "$smoke_dir/dotp.folded" | grep -q "compile report"
grep -q '"ev":"span_start".*"name":"solve"' "$smoke_dir/dotp.jsonl"
# Folded stacks: every line is "frame(;frame)* <count>" and the solve
# stage shows up under the compile root.
awk 'NF != 2 || $2 !~ /^[0-9]+$/ { bad = 1 } END { exit bad }' "$smoke_dir/dotp.folded"
grep -q ';solve ' "$smoke_dir/dotp.folded"

echo "== fault plan: a single-file compile honours a forced parse error"
# lnc <file> compiles one cell through the same path as a matrix cell, so
# a plan that breaks that cell must fail it with the coded diagnostic.
cat > "$smoke_dir/parse_plan.txt" <<'EOF'
X_DOTP@ORCA parse-error
EOF
parse_code=0
cargo run -q --release -p longnail --bin lnc -- \
    "$smoke_dir/dotp.core_desc" --core ORCA --unit X_DOTP \
    --fault-plan "$smoke_dir/parse_plan.txt" --out "$smoke_dir/parse_out" \
    > /dev/null 2> "$smoke_dir/parse.stderr" || parse_code=$?
[ "$parse_code" -eq 1 ]
grep -q "LN0101" "$smoke_dir/parse.stderr"

echo "== determinism + xcheck: lnc --matrix --jobs 4 is byte-identical to --jobs 1"
# --xcheck doubles as the four-state oracle gate: any interp/xsim
# mismatch or X bit escaping to an output makes lnc exit 2 and fails this
# step. Its telemetry is stripped (timing-free), so the byte-identity diff
# covers the xcheck.jsonl files too.
cargo run -q --release -p longnail --bin lnc -- \
    --matrix --jobs 1 --xcheck --out "$smoke_dir/m1" > "$smoke_dir/m1.stdout"
cargo run -q --release -p longnail --bin lnc -- \
    --matrix --jobs 4 --xcheck --out "$smoke_dir/m4" > "$smoke_dir/m4.stdout"
diff -r "$smoke_dir/m1" "$smoke_dir/m4"
diff "$smoke_dir/m1.stdout" "$smoke_dir/m4.stdout"
# Every cell must have written its stripped traces next to the Verilog,
# and the 32-cell oracle summary must be fully clean.
[ "$(find "$smoke_dir/m1" -name trace.jsonl | wc -l)" -eq 32 ]
[ "$(find "$smoke_dir/m1" -name xcheck.jsonl | wc -l)" -eq 32 ]
grep -qx "xcheck: 32 cell(s), 0 mismatch(es), 0 X output bit(s)" \
    "$smoke_dir/m1.stdout"

# The root matrix_summary.json rides inside the diff -r above: the
# stripped projection must be byte-identical for any worker count.
[ -f "$smoke_dir/m1/matrix_summary.json" ]
grep -q '"schema": "longnail-matrix-summary/1"' "$smoke_dir/m1/matrix_summary.json"

echo "== smoke: lnc --matrix --summary prints the stage table and writes folded stacks"
cargo run -q --release -p longnail --bin lnc -- \
    --matrix --jobs 4 --summary --profile-folded "$smoke_dir/matrix.folded" \
    --out "$smoke_dir/msum" > "$smoke_dir/msum.stdout"
grep -q "== matrix summary: 32 cell(s), 4 job(s) ==" "$smoke_dir/msum.stdout"
grep -q "critical path:" "$smoke_dir/msum.stdout"
grep -q "cache: 8 miss(es), 24 hit(s)" "$smoke_dir/msum.stdout"
awk 'NF != 2 || $2 !~ /^[0-9]+$/ { bad = 1 } END { exit bad }' "$smoke_dir/matrix.folded"
grep -q '^matrix;cell:' "$smoke_dir/matrix.folded"

echo "== chaos: injected fault degrades one cell, leaves the rest byte-identical"
# Inject a contained panic at the rtl stage of one cell and rerun the full
# matrix with --keep-going: lnc must exit 3 (partial success), report the
# faulted cell on stderr with the degrade counters, and every *other* cell
# must be byte-identical to the clean --jobs 4 run above.
cat > "$smoke_dir/plan.txt" <<'EOF'
X_DOTP@ORCA panic@rtl
EOF
chaos_code=0
cargo run -q --release -p longnail --bin lnc -- \
    --matrix --jobs 4 --xcheck --keep-going --fault-plan "$smoke_dir/plan.txt" \
    --out "$smoke_dir/mchaos" \
    > "$smoke_dir/mchaos.stdout" 2> "$smoke_dir/mchaos.stderr" || chaos_code=$?
[ "$chaos_code" -eq 3 ]
grep -q "internal fault: dotprod×ORCA" "$smoke_dir/mchaos.stderr"
grep -q "degrade.cell_faults = 1" "$smoke_dir/mchaos.stderr"
for d in "$smoke_dir/m4"/*/; do
    cell=$(basename "$d")
    [ "$cell" = "dotprod_ORCA" ] && continue
    diff -r "$smoke_dir/m4/$cell" "$smoke_dir/mchaos/$cell"
done

echo "== incremental: warm --cache-dir rerun is pure replay and byte-identical"
# Cold run populates the persistent cell cache; the warm rerun must serve
# every cell from disk (0 misses on every stage row), print the same
# stdout, and write a byte-identical artifact tree.
cargo run -q --release -p longnail --bin lnc -- \
    --matrix --jobs 4 --cache-dir "$smoke_dir/qc" --out "$smoke_dir/inc_cold" \
    > "$smoke_dir/inc_cold.stdout" 2> "$smoke_dir/inc_cold.stderr"
cargo run -q --release -p longnail --bin lnc -- \
    --matrix --jobs 4 --cache-dir "$smoke_dir/qc" --out "$smoke_dir/inc_warm" \
    > "$smoke_dir/inc_warm.stdout" 2> "$smoke_dir/inc_warm.stderr"
diff -r "$smoke_dir/inc_cold" "$smoke_dir/inc_warm"
diff "$smoke_dir/inc_cold.stdout" "$smoke_dir/inc_warm.stdout"
for stage in frontend lower problem solve modes rtl verilog config cell; do
    grep -q "cache-stats: $stage hits=[0-9][0-9]* misses=0" "$smoke_dir/inc_warm.stderr" || {
        echo "error: warm run recomputed stage '$stage':" >&2
        cat "$smoke_dir/inc_warm.stderr" >&2
        exit 1
    }
done
grep -q "cache-stats: cell hits=32 misses=0" "$smoke_dir/inc_warm.stderr"
grep -q "cell cache: 32 served, 0 compiled" "$smoke_dir/inc_warm.stderr"

echo "== opt: -O2 matrix is oracle-clean and byte-identical across worker counts"
# Full 8x4 matrix through the netlist optimizer with the four-state
# oracle on: every optimized cell must diff clean against the
# two-valued interpreter (zero mismatches, zero escaped X bits), and the
# optimized artifact tree must be byte-identical for any --jobs value
# (the fixpoint pass order is deterministic).
cargo run -q --release -p longnail --bin lnc -- \
    --matrix --jobs 1 --opt-level 2 --xcheck --out "$smoke_dir/o2_j1" \
    > "$smoke_dir/o2_j1.stdout"
cargo run -q --release -p longnail --bin lnc -- \
    --matrix --jobs 4 --opt-level 2 --xcheck --out "$smoke_dir/o2_j4" \
    > "$smoke_dir/o2_j4.stdout"
diff -r "$smoke_dir/o2_j1" "$smoke_dir/o2_j4"
diff "$smoke_dir/o2_j1.stdout" "$smoke_dir/o2_j4.stdout"
grep -qx "xcheck: 32 cell(s), 0 mismatch(es), 0 X output bit(s)" \
    "$smoke_dir/o2_j1.stdout"

echo "== opt: a shared cache dir never serves -O0 artifacts to a -O2 run"
# The optimization level is folded into every cache key (stage, cell
# bundle, and disk schema fingerprint), so a -O2 rerun over a cache
# populated at -O0 must recompile all 32 cells rather than cross-serve.
cargo run -q --release -p longnail --bin lnc -- \
    --matrix --jobs 4 --cache-dir "$smoke_dir/qc_opt" \
    --out "$smoke_dir/opt_o0" > /dev/null 2>&1
cargo run -q --release -p longnail --bin lnc -- \
    --matrix --jobs 4 --opt-level 2 --cache-dir "$smoke_dir/qc_opt" \
    --out "$smoke_dir/opt_o2" > /dev/null 2> "$smoke_dir/opt_o2.stderr"
grep -q "cell cache: 0 served, 32 compiled" "$smoke_dir/opt_o2.stderr" || {
    echo "error: -O2 run was served artifacts from a -O0 cache:" >&2
    cat "$smoke_dir/opt_o2.stderr" >&2
    exit 1
}

echo "== serve: compile daemon answers 5 jobs (one faulted, one replayed, one inline)"
# The daemon reads line-delimited JSON jobs from stdin and must answer
# each in input order; a fault-injected job degrades to status "fault"
# without taking down the process (exit 0 — per-job status carries the
# failure, like --keep-going). j4 repeats j1, so it replays j1's cached
# stages; j5 carries the smoke's dotp.core_desc inline, its quotes and
# newlines escaped.
cat > "$smoke_dir/serve_plan.txt" <<'EOF'
X_DOTP@VexRiscv panic@rtl
EOF
cat > "$smoke_dir/jobs.jsonl" <<'EOF'
{"id": "j1", "isax": "dotprod", "core": "ORCA"}
{"id": "j2", "isax": "zol", "core": "Piccolo"}
{"id": "j3", "isax": "dotprod", "core": "VexRiscv"}
{"id": "j4", "isax": "dotprod", "core": "ORCA"}
EOF
awk 'BEGIN { printf "{\"id\": \"j5\", \"unit\": \"X_DOTP\", \"core\": \"Piccolo\", \"src\": \"" }
     { gsub(/"/, "\\\""); printf "%s\\n", $0 }
     END { print "\"}" }' "$smoke_dir/dotp.core_desc" >> "$smoke_dir/jobs.jsonl"
cargo run -q --release -p longnail --bin lnc -- \
    serve --jobs 2 --fault-plan "$smoke_dir/serve_plan.txt" \
    < "$smoke_dir/jobs.jsonl" > "$smoke_dir/serve.out" 2> "$smoke_dir/serve.err"
[ "$(wc -l < "$smoke_dir/serve.out")" -eq 5 ]
grep -q '"id": "j1", "status": "ok", "exit": 0' "$smoke_dir/serve.out"
grep -q '"id": "j2", "status": "ok", "exit": 0' "$smoke_dir/serve.out"
grep -q '"id": "j3", "status": "fault", "exit": 2' "$smoke_dir/serve.out"
# j4's line is j1's apart from the id.
[ "$(sed -n 's/"id": "j1"/"id": ""/p' "$smoke_dir/serve.out")" = \
    "$(sed -n 's/"id": "j4"/"id": ""/p' "$smoke_dir/serve.out")" ]
grep -q '"id": "j5", "status": "ok", "exit": 0, "units": 1,' "$smoke_dir/serve.out"

echo "== bench gate: deterministic work counters vs BENCH_baseline.json"
# cargo run -p bench rewrites BENCH_compile.json (gitignored) and compares
# its deterministic section textually against the checked-in baseline.
# Hard failure on any counter change. This is also the replay and
# early-cutoff gate: the bench asserts zero misses on every stage of a
# warm no-change recompile, zero backend misses after a comment edit, and
# byte-identical artifacts on every warm run (the one-instruction SPARKLE
# edit against a cold compile of the edited sources), and the baseline
# pins the warm_no_change, warm_one_edit and warm_semantic_edit rows.
# Replay speed is measured by compilebench's serve_edit p50, edit speed by
# its p95. When a work-counter change is intentional, refresh the
# baseline with:
#   cp BENCH_compile.json BENCH_baseline.json
cargo run -q --release -p bench -- --check BENCH_baseline.json

echo "== gate: -O2 cuts the modeled matrix area by at least 25% vs -O0"
# The bench's opt section records the 22nm-model area of the full matrix
# unoptimized and at -O2, and the reduction between them. -O2 drops the
# register bits that never change from reset and narrows what carries
# them (27.08% of the matrix area); the bench itself asserts the strict
# inequality at full precision, and this re-checks the recorded
# reduction at whole-percent resolution.
area_o0=$(sed -n 's/^[[:space:]]*"area_o0_um2": \([0-9][0-9]*\)\..*/\1/p' BENCH_compile.json | head -1)
area_o2=$(sed -n 's/^[[:space:]]*"area_o2_um2": \([0-9][0-9]*\)\..*/\1/p' BENCH_compile.json | head -1)
reduction=$(sed -n 's/^[[:space:]]*"area_reduction_pct": \(-\{0,1\}[0-9][0-9]*\)\..*/\1/p' BENCH_compile.json | head -1)
if [ -z "$area_o0" ] || [ -z "$area_o2" ] || [ -z "$reduction" ]; then
    echo "error: opt area figures missing from BENCH_compile.json" >&2
    exit 1
fi
if [ "$reduction" -lt 25 ]; then
    echo "error: -O2 matrix area ${area_o2} um2 is only ${reduction}% below the -O0 area ${area_o0} um2 (gate: 25%)" >&2
    exit 1
fi
echo "matrix area: ${area_o0} um2 at -O0, ${area_o2} um2 at -O2 (${reduction}% lower)"

echo "== gate: solver.pivots stays under the 2761 ceiling"
# A coarse guard on solver work next to the bench gate's exact counters.
# The difference solver starts every solve at the ASAP schedule and pivots
# only where the lifetime terms pull operations off it (94 pivots across
# the matrix); the ceiling keeps the bound set for the earlier simplex
# solver (40% of its 6904 cold pivots). A total past it means the solves
# stopped starting from ASAP.
pivots=$(sed -n 's/^[[:space:]]*"solver\.pivots": \([0-9][0-9]*\).*/\1/p' BENCH_compile.json | head -1)
if [ -z "$pivots" ]; then
    echo "error: solver.pivots counter missing from BENCH_compile.json" >&2
    exit 1
fi
if [ "$pivots" -gt 2761 ]; then
    echo "error: solver.pivots = $pivots exceeds the ceiling of 2761" >&2
    exit 1
fi
echo "solver.pivots = $pivots (ceiling 2761)"

echo "== ci.sh: all checks passed"
