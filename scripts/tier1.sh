#!/usr/bin/env bash
# Tier-1 verification: runs the ROADMAP.md verify line verbatim from the
# repository root. Bench ctest registration is off by default, so this stays
# the fast gate; run the benches separately with
#   cmake -B build -S . -DBUSSENSE_BENCH_TESTS=ON && ctest --test-dir build -L bench
#
# Every stage is timed; on success the script ends with a per-stage
# wall-clock summary, and on any failure it names the exact stage that
# broke (fail-fast -- later stages do not run).
#
# Optional ThreadSanitizer stage: BUSSENSE_SANITIZE=ON ./scripts/tier1.sh
# additionally builds the concurrency-sensitive suites under TSan in
# build-tsan/ and runs the binaries directly: test_ingest_service (the
# sharded front end's backpressure, shutdown and interleaved-ops
# bit-identity properties), test_robustness (multi-producer sharded
# ingest against the serial server, snapshots racing the shard
# consumers) and test_metrics (more recording threads than metric cells
# while another thread snapshots; two readers sharing one QueryService).
# Off by default -- TSan builds are ~10x slower.
#
# Optional sharded-ingest stage: BUSSENSE_SHARDED=ON ./scripts/tier1.sh
# builds the sharded ingest suites under TSan in build-tsan/ and runs the
# binaries directly: all of test_ingest_service (backpressure, shutdown
# and bit-identity properties), the lifecycle tests of test_durability
# (enqueue guards, close() racing producers, partial batches at every
# barrier, and the whole CrashRecovery suite: durability lives only in
# the sharded service, so every crash case, 1-shard included, runs shard
# consumer threads against the WAL, and the SIGKILL case kills a forked
# service whose WAL syncer is held between write() and fdatasync by
# wal_test_seam, so the kill lands mid-sync in every build), the
# TripLogWriter tests (the hand-off from an appender to the segment's
# syncer thread, which does the WAL I/O under all three fsync policies,
# and its latched write errors),
# the Checkpoint tests (checkpoints taken from a running service, saves
# that fail mid-write) and test_properties' ShardedIdentity
# suite (shuffled hostile uploads handed through the recycled inbox slots
# to the shard consumers). Off by default for the same reason.
#
# Optional fault/fuzz stage: BUSSENSE_FAULTS=ON ./scripts/tier1.sh builds
# the adversarial-input suites (fault injection + admission, golden
# accuracy, serialization fuzz) and the trip-path suites (test_pipeline,
# test_robustness: the stage types index into the upload and into each
# other, which is where an out-of-bounds read would hide) under ASan+UBSan
# in build-asan/ and runs the binaries directly, so the fuzzer's "no
# crash, no UB" contract is checked by the sanitizers rather than by luck.
# Off by default.
#
# Optional SIMD stage: BUSSENSE_SIMD=ON ./scripts/tier1.sh builds the
# matching suites under ASan+UBSan with the vector kernels compiled in
# (the intrinsics paths get sanitizer coverage), then builds a
# forced-scalar-fallback tree (-DBUSSENSE_SIMD=OFF) and reruns the same
# suites — so non-AVX2/NEON hosts stay covered by the identical property
# surface. The matching suites are test_matching, test_matching_simd and
# test_properties' matcher cases (the indexed-vs-brute-force equivalence,
# the pipeline identity with the index off, the matching invariants and
# the per-trip matcher counters). In test_matching_simd,
# KernelRows.RowsEqualTransposedBatchAndSimilarity drives score_rows'
# 8-wide loads past the rank blob's last record into its pad tail, which
# ASan checks, and RealisticStream.MatchDigestIsPinned holds one digest of
# a LodWorld day's match() results in all three trees;
# QuantizedView.FlatDictionaryKeepsFirstEncounterIds covers the flat
# dictionary's probe chains. Off by default.
#
# Optional durability stage: BUSSENSE_DURABILITY=ON ./scripts/tier1.sh
# builds the WAL + checkpoint/restore suite under ASan+UBSan in build-asan/
# and runs the binary directly — the torn-tail/bit-flip sweeps and the
# randomized crash-recovery property hammer exactly the byte-level parsing
# paths where the sanitizers earn their keep. Off by default.
#
# Optional serving-tier stage: BUSSENSE_SERVING=ON ./scripts/tier1.sh
# builds the epoch publisher / query service suite under TSan (the
# no-torn-epoch property: 8 readers racing sustained publishes) together
# with test_metrics (two readers sharing one QueryService, so both pin
# through the thread-local pin cache of one publisher), and the query
# service suite again under ASan+UBSan with leak detection on (the
# 10k-epoch churn property: every retired epoch reclaimed). Off by
# default.
#
# Optional LOD metropolis stage: BUSSENSE_LOD=ON ./scripts/tier1.sh builds
# the tiered-fidelity simulation suites (test_lod_world + the metropolis
# golden band), the World suites that drive the same recorder stage as
# LodWorld's Focus tier (test_trafficsim, test_world_detail and
# test_extensions, whose transfer trips feed it multi-leg beeps), the scan
# equivalence suite (test_sensing_perf: scan
# sites, the tower index and the shadow-node memo, which LodWorld's
# per-stop site table indexes through) and the generator's building blocks
# (test_common: the lazy mt19937_64 engine, which indexes its 312-word
# state by hand; test_dsp: the block audio renderer, which slices spans
# into the detector) under ASan+UBSan, byte-diffs two
# same-seed lod_cityweek trip streams generated at different thread
# counts, then runs the million-rider city-week determinism + replay
# bench through the ctest `bench` label in a separate build-lod/ tree (so
# the fast gate's build/ never flips BUSSENSE_BENCH_TESTS). Off by default
# -- the long run takes ~10 minutes on a single-core host.
#
# Optional benchmark smoke stage: BUSSENSE_PERFBENCH=ON ./scripts/tier1.sh
# runs perfbench/smoke_test.py -- a reduced-size run of every BENCHMARK.json
# workload, untraced and traced, that must pass every self-check the
# benchmark makes (among them the in-pipeline SIMD bound-skip check and the
# bitwise sharded-vs-serial gate), so a matcher or ingest change that breaks
# one fails this named stage. The first run builds perfbench/ (Release) into
# .bench_build/. Off by default -- it takes a few minutes.
set -euo pipefail
cd "$(dirname "$0")/.."

CURRENT_STAGE="(startup)"
STAGE_START=$SECONDS
STAGE_SUMMARY=()

on_fail() {
  echo ""
  echo "==== tier-1 FAILED at stage: ${CURRENT_STAGE} (after $((SECONDS - STAGE_START))s in stage) ====" >&2
}
trap on_fail ERR

begin_stage() {
  CURRENT_STAGE="$1"
  STAGE_START=$SECONDS
  echo "==== tier-1 stage: ${CURRENT_STAGE} ===="
}

end_stage() {
  STAGE_SUMMARY+=("$(printf '%6ss  %s' "$((SECONDS - STAGE_START))" "${CURRENT_STAGE}")")
}

begin_stage "configure + build"
cmake -B build -S . && cmake --build build -j
end_stage

begin_stage "ctest"
(cd build && ctest --output-on-failure -j)
end_stage

if [[ "${BUSSENSE_SANITIZE:-}" == "ON" ]]; then
  begin_stage "TSan concurrency (test_ingest_service, test_robustness, test_metrics)"
  cmake -B build-tsan -S . -DBUSSENSE_SANITIZE=thread
  cmake --build build-tsan -j --target test_ingest_service test_robustness \
    test_metrics
  # Run the binaries directly: a partial TSan build registers no stale
  # ctest placeholders for the targets we skipped.
  ./build-tsan/tests/test_ingest_service
  ./build-tsan/tests/test_robustness
  ./build-tsan/tests/test_metrics
  end_stage
fi

if [[ "${BUSSENSE_SHARDED:-}" == "ON" ]]; then
  begin_stage "TSan sharded ingest (test_ingest_service, test_durability lifecycle, ShardedIdentity)"
  cmake -B build-tsan -S . -DBUSSENSE_SANITIZE=thread
  cmake --build build-tsan -j --target test_ingest_service test_durability \
    test_properties
  ./build-tsan/tests/test_ingest_service
  # The lifecycle and crash-recovery tests race producers against close()
  # and the shard consumers against the WAL; the TripLogWriter tests hand
  # buffers from the appender to the segment's syncer thread under every
  # fsync policy, and the SIGKILL crash test does so in forked children;
  # the Checkpoint tests sync every segment's syncer before each save. The
  # rest of the suite is single-threaded byte parsing, covered by the ASan
  # durability stage.
  ./build-tsan/tests/test_durability \
    --gtest_filter='DurableLifecycle.*:ShardBatch.*:CrashRecovery.*:TripLogWriter.*:Checkpoint.*'
  # Hostile uploads through the recycled inbox slots of a 3-shard service.
  ./build-tsan/tests/test_properties --gtest_filter='ShardedIdentity.*'
  end_stage
fi

if [[ "${BUSSENSE_FAULTS:-}" == "ON" ]]; then
  begin_stage "ASan+UBSan faults (test_faults, test_golden_accuracy, test_fuzz_serialization, test_pipeline, test_robustness)"
  cmake -B build-asan -S . -DBUSSENSE_SANITIZE=address,undefined
  cmake --build build-asan -j --target test_faults test_golden_accuracy \
    test_fuzz_serialization test_pipeline test_robustness
  ./build-asan/tests/test_faults
  ./build-asan/tests/test_golden_accuracy
  ./build-asan/tests/test_fuzz_serialization
  ./build-asan/tests/test_pipeline
  ./build-asan/tests/test_robustness
  end_stage
fi

if [[ "${BUSSENSE_SIMD:-}" == "ON" ]]; then
  # The seeded suites print as Seeds/<Suite>, hence the leading wildcards.
  MATCHER_PROPERTIES='*IndexedMatcher*:*MatchingProperties*:MatcherMetrics*'
  begin_stage "ASan+UBSan SIMD kernels (test_matching, test_matching_simd, test_properties matcher cases)"
  cmake -B build-asan -S . -DBUSSENSE_SANITIZE=address,undefined
  cmake --build build-asan -j --target test_matching test_matching_simd \
    test_properties
  ./build-asan/tests/test_matching
  ./build-asan/tests/test_matching_simd
  ./build-asan/tests/test_properties --gtest_filter="${MATCHER_PROPERTIES}"
  end_stage
  begin_stage "scalar-batch fallback (-DBUSSENSE_SIMD=OFF)"
  cmake -B build-scalar -S . -DBUSSENSE_SIMD=OFF
  cmake --build build-scalar -j --target test_matching test_matching_simd \
    test_properties
  ./build-scalar/tests/test_matching
  ./build-scalar/tests/test_matching_simd
  ./build-scalar/tests/test_properties --gtest_filter="${MATCHER_PROPERTIES}"
  end_stage
fi

if [[ "${BUSSENSE_DURABILITY:-}" == "ON" ]]; then
  begin_stage "ASan+UBSan durability (test_durability)"
  cmake -B build-asan -S . -DBUSSENSE_SANITIZE=address,undefined
  cmake --build build-asan -j --target test_durability
  # The scan/repair paths parse attacker-shaped bytes (torn tails, bit
  # flips, duplicated blocks, the checkpoint prefix and bit-flip sweep);
  # run them, and the pinned WAL/checkpoint digests, with memory checking
  # on.
  ./build-asan/tests/test_durability
  end_stage
fi

if [[ "${BUSSENSE_SERVING:-}" == "ON" ]]; then
  begin_stage "TSan serving tier (test_query_service, test_metrics)"
  cmake -B build-tsan -S . -DBUSSENSE_SANITIZE=thread
  cmake --build build-tsan -j --target test_query_service test_metrics
  # The no-torn-epoch property races 8 pinned readers against sustained
  # publishes + live ingest; TSan must stay silent on the whole suite.
  ./build-tsan/tests/test_query_service
  # Two readers share one QueryService and so one publisher's pin path.
  ./build-tsan/tests/test_metrics
  end_stage
  begin_stage "ASan+UBSan serving leak check (test_query_service)"
  cmake -B build-asan -S . -DBUSSENSE_SANITIZE=address,undefined
  cmake --build build-asan -j --target test_query_service
  # Leak detection proves the 10k-epoch churn reclaims every retired
  # epoch -- the grace-period protocol, checked by the allocator.
  ASAN_OPTIONS=detect_leaks=1 ./build-asan/tests/test_query_service
  end_stage
fi

if [[ "${BUSSENSE_LOD:-}" == "ON" ]]; then
  begin_stage "ASan+UBSan LOD + World suites (test_lod_world, test_trafficsim, test_world_detail, test_extensions, test_sensing_perf, test_common, test_dsp, metropolis golden)"
  cmake -B build-asan -S . -DBUSSENSE_SANITIZE=address,undefined
  cmake --build build-asan -j --target test_lod_world test_trafficsim \
    test_world_detail test_extensions test_sensing_perf test_common \
    test_dsp test_golden_accuracy
  ./build-asan/tests/test_lod_world
  ./build-asan/tests/test_trafficsim
  ./build-asan/tests/test_world_detail
  ./build-asan/tests/test_extensions
  ./build-asan/tests/test_sensing_perf
  ./build-asan/tests/test_common
  ./build-asan/tests/test_dsp
  ./build-asan/tests/test_golden_accuracy --gtest_filter='*Metropolis*'
  end_stage
  begin_stage "deterministic-seed re-run byte diff (lod_cityweek)"
  cmake --build build -j --target lod_cityweek
  # Two same-seed runs at different thread counts must produce the same
  # bytes -- the full %.17g trip stream, not just a digest.
  ./build/examples/lod_cityweek 60000 2 1 2026 build/lod_stream_a.txt
  ./build/examples/lod_cityweek 60000 2 4 2026 build/lod_stream_b.txt
  cmp build/lod_stream_a.txt build/lod_stream_b.txt
  rm -f build/lod_stream_a.txt build/lod_stream_b.txt
  end_stage
  begin_stage "million-rider city-week (ctest bench label, build-lod/)"
  cmake -B build-lod -S . -DBUSSENSE_BENCH_TESTS=ON
  cmake --build build-lod -j --target bench_ingest_service
  # The bench itself asserts the determinism contract (day-0 thread
  # ladder + same-seed week re-run) and exits non-zero on a digest
  # mismatch; BUSSENSE_LOD_RIDERS can scale the metropolis down for
  # smoke runs of this stage.
  (cd build-lod && ctest --output-on-failure -R 'bench.bench_ingest_service')
  end_stage
fi

if [[ "${BUSSENSE_PERFBENCH:-}" == "ON" ]]; then
  begin_stage "perfbench smoke (both workloads x both trace modes)"
  python3 perfbench/smoke_test.py
  end_stage
fi

echo ""
echo "==== tier-1 PASSED -- stage wall-clock summary ===="
for line in "${STAGE_SUMMARY[@]}"; do
  echo "  ${line}"
done
