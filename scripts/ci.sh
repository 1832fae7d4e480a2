#!/usr/bin/env bash
# The full CI gate, runnable locally: configure + build + ctest (tier 1),
# then a ThreadSanitizer smoke over the concurrency-heavy distributed and
# recovery suites. Usage:
#
#   scripts/ci.sh           # tier-1 suite + TSan smoke
#   scripts/ci.sh --fast    # tier-1 suite only (skip the sanitizer rebuild)
#
# Builds into build/ (and build-tsan/ via scripts/sanitize.sh); both are
# incremental across runs.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"
fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

# -Wall -Wextra with -Werror: the build is warning-free and stays so, so a
# new warning fails here instead of scrolling past in the build log.
echo "==== tier 1: configure + build + ctest ===="
cmake -B "$repo/build" -S "$repo" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
  -DTFHPC_WERROR=ON >/dev/null
cmake --build "$repo/build" -j "$jobs"
(cd "$repo/build" && ctest --output-on-failure -j "$jobs")

# GraphCheck gate: lint the exported application graphs with the graphcheck
# CLI. The app graphs must come back clean (exit 0); the deliberately broken
# graph must be rejected (exit 2) — this pins the tool's exit-code contract.
echo "==== graphcheck: lint exported app graphs ===="
mkdir -p "$repo/build/graphs"
"$repo/build/examples/export_graphs" "$repo/build/graphs"
"$repo/build/tools/graphcheck" \
  "$repo/build/graphs/stream.graph" \
  "$repo/build/graphs/tiled_matmul.graph" \
  "$repo/build/graphs/cg.graph" \
  "$repo/build/graphs/fft.graph"
# Same graphs through the optimizer pipeline: every pass output must
# re-verify clean (an ERROR after optimization exits 2 = optimizer bug).
"$repo/build/tools/graphcheck" --optimize=aggressive \
  "$repo/build/graphs/stream.graph" \
  "$repo/build/graphs/tiled_matmul.graph" \
  "$repo/build/graphs/cg.graph" \
  "$repo/build/graphs/fft.graph"
rc=0
"$repo/build/tools/graphcheck" "$repo/build/graphs/broken.graph" || rc=$?
if [[ "$rc" != 2 ]]; then
  echo "graphcheck: expected exit 2 on broken.graph, got $rc" >&2
  exit 1
fi
echo "==== graphcheck: app graphs clean, broken graph rejected ===="

# Memory-planner gate: every app graph must produce a static memory plan
# (waterline report, exit 0 — GC019/GC020 advisories don't fail the gate),
# and an absurdly small budget must trip GC018 with exit 1 (valid graph
# that provably cannot fit).
echo "==== graphcheck --memory: static peak report on app graphs ===="
"$repo/build/tools/graphcheck" --memory \
  "$repo/build/graphs/stream.graph" \
  "$repo/build/graphs/tiled_matmul.graph" \
  "$repo/build/graphs/cg.graph" \
  "$repo/build/graphs/fft.graph" >/dev/null
rc=0
"$repo/build/tools/graphcheck" --memory=1024 \
  "$repo/build/graphs/stream.graph" >/dev/null || rc=$?
if [[ "$rc" != 1 ]]; then
  echo "graphcheck: expected exit 1 (GC018) on 1 KiB budget, got $rc" >&2
  exit 1
fi
echo "==== graphcheck --memory: plans computed, GC018 budget gate holds ===="

# Serving smoke: a short closed-loop multi-client run against the admission
# layer with chaos faults in the third phase. The binary itself asserts zero
# hangs (exits 2 on a stuck client) and we bound the success-path p99 to a
# sanity ceiling — overload must degrade to fast errors, not slow timeouts.
echo "==== serving smoke: load generator under saturation + faults ===="
(cd "$repo/build" && \
  ./bench/serving_load --clients 16 --duration-ms 500 --max-p99-ms 5000)
echo "==== serving smoke: zero hangs, p99 within bound ===="

# Optimizer ablation smoke: CG/FFT/elementwise-chain at off/basic/aggressive
# (reduced sizes). The binary asserts the node-count reduction floor on the
# chain graph and numeric agreement across levels, and writes
# BENCH_optimizer.json.
echo "==== optimizer ablation smoke ===="
(cd "$repo/build" && ./bench/ablation_optimizer --smoke)
echo "==== optimizer ablation: levels agree, reduction floor met ===="

# GEMM ablation smoke: every micro-kernel tier the host supports vs the
# pre-PR i-k-j loop at small sizes. The binary gates each tier's numerics
# against a naive triple-loop reference (exit 2 on divergence) and writes
# BENCH_gemm.json; the 2x speedup floor is asserted only in full mode.
echo "==== gemm ablation smoke ===="
(cd "$repo/build" && ./bench/ablation_gemm --smoke)
echo "==== gemm ablation: every tier matches naive reference ===="

# Memory-planner ablation smoke: app step graphs with planning on/off at
# reduced sizes. The binary asserts bit-identical fetches across modes,
# static peak >= measured peak wherever a plan exists, and an allocator-
# call reduction on at least one graph; writes BENCH_memplan.json.
echo "==== memplan ablation smoke ===="
(cd "$repo/build" && ./bench/ablation_memplan --smoke)
echo "==== memplan ablation: bit-identical, bounds sound, allocs reduced ===="

# Golden-output gate: the DES figure/table benches, the zero-copy
# ablation's transport counts and the memplan smoke's allocs/step, pool
# bytes, planned nodes and peaks are deterministic, so each must print
# exactly its committed bench/golden/<bench>.txt (about 15 s in all). The
# wall-clock figures, fig11's merge time and memplan's us/step column, are
# masked. A change that moves an output updates the file and says why.
# fig8_matmul runs real GEMMs for minutes and stays a manual check. To
# regenerate a file, with its mask and arguments from the loop below:
#   (cd build && ./bench/<bench> <args>) | sed -E "$mask" > bench/golden/<bench>.txt
echo "==== golden outputs: deterministic benches match bench/golden ===="
golden_mask='s/(merge excluded from timing: )[0-9.]+s/\1<wall>s/'
memplan_mask='s/\| +[0-9]+\.[0-9]+( +[0-9]+\.[0-9])/| <us>\1/'
for run in fig7_stream fig10_cg fig11_fft table1_platforms ablation_zerocopy \
    "ablation_memplan --smoke"; do
  read -r bench args <<< "$run"
  case "$bench" in
    ablation_memplan) mask="$memplan_mask" ;;
    *) mask="$golden_mask" ;;
  esac
  # $args is unquoted on purpose: it splits into the bench's arguments.
  if ! (cd "$repo/build" && "./bench/$bench" $args) | sed -E "$mask" |
      diff -u "$repo/bench/golden/$bench.txt" -; then
    echo "golden: $bench output differs from bench/golden/$bench.txt" >&2
    exit 1
  fi
done
echo "==== golden outputs: all match ===="

# ctest -R filters of the sanitizer legs below. Every '|' term must match at
# least one test of the tier-1 build (which registers the same tests as the
# sanitizer builds), so a renamed suite cannot drop out of a leg silently.
tsan_filter='ExecutableCache|Executor|DistSession|DistStep|FaultTolerance|StepRecovery|JobRecovery|Liveness|Rendezvous|BufferPool|Serving|CancellationToken|Oom|Optimizer|Fused|SharedConsumerSend|ThreadPool|WireChecksum|VariableAccumulate'
asan_filter='BufferPool|OutputBuffer|TensorBuffer|MemplanRuntime|Transport|ServerTest|Checkpoint|TensorProto|WireChecksum|PayloadRef|RpcEnvelope|WireFuzz|ServerFuzz|Npy|Oom|Fused|SharedConsumerSend|Gemm'
ubsan_filter='Gemm|Gemv|Fft|Reduction|ArrayKernel|KernelSession|Tensor|Shape|DType|Status|GraphCheck|ShapeInference|PlannedOutput|Wire|Optimizer|Fused'
echo "==== sanitizer filters: every term matches a test ===="
for filter in "$tsan_filter" "$asan_filter" "$ubsan_filter"; do
  IFS='|' read -ra terms <<< "$filter"
  for term in "${terms[@]}"; do
    count="$(cd "$repo/build" && ctest -N -R "$term" | sed -n 's/^Total Tests: //p')"
    if [[ "${count:-0}" == 0 ]]; then
      echo "sanitizer filter term '$term' matches no test" >&2
      exit 1
    fi
  done
done

if [[ "$fast" == 1 ]]; then
  echo "==== ci: tier 1 OK (sanitizer smoke skipped) ===="
  exit 0
fi

# TSan over the suites that exercise cross-thread step execution: the
# executable cache under concurrent Runs, the executor's scheduling loop and
# its one-node step on the calling thread, the distributed step path, the
# pooled allocator under concurrent alloc/free (including injected allocator
# faults, the Oom* suites), fault/liveness recovery, the serving layer
# (admission control, token cancellation, concurrent Session::Run over one
# shared cached Executable), the thread pool itself, and the bulk passes
# whose chunks pool threads write (the payload checksum's chunk digests and
# Variable::Accumulate's sum, in place while snapshots are read).
echo "==== tier 2: ThreadSanitizer smoke ===="
"$repo/scripts/sanitize.sh" thread "$tsan_filter"

# ASan over the zero-copy data path: pooled buffer recycling, payload views
# holding buffer references across transport/server boundaries, envelope
# parsing that slices payload views out of pooled frames at offsets read off
# the wire (and the fuzzers feeding it garbage over every protocol), step-arena
# views handed to planned outputs and the lifetime of fetched outputs past
# the runtime, the checksum's stripe loops on every SIMD tier and its
# streaming buffer, .npy
# loads read straight into pooled buffers, and the packed GEMM's pack and
# micro-kernel loops on every tier the host supports — exactly the code
# where a lifetime bug or overread would be a use-after-free or heap
# overflow rather than a test failure. The full-suite sweep stays in the
# nightly `scripts/sanitize.sh both`.
echo "==== tier 3: AddressSanitizer smoke ===="
"$repo/scripts/sanitize.sh" address "$asan_filter"

# OOM-injection smoke: the multi-client distributed workload under an
# injected allocator fault schedule, on the instrumented build. The binary
# asserts the robustness contract itself (zero hangs, every failure a clean
# transient kResourceExhausted, process budget back to baseline) and ASan's
# leak checker asserts that an unwound OOM step released every allocation.
echo "==== tier 3b: OOM-injection smoke (ablation_oom under ASan) ===="
(cd "$repo/build-asan" && \
  ASAN_OPTIONS="detect_leaks=1 abort_on_error=1" ./bench/ablation_oom)
echo "==== OOM smoke: contract held, zero leaks ===="

# UBSan over the numeric kernels (GEMM, GEMV, FFT, reductions, array
# kernels), the core tensor/shape/status types and the static-analysis
# layer: shape arithmetic, wire varint decoding and kernel index math are
# where a signed overflow or misaligned access would hide.
echo "==== tier 4: UndefinedBehaviorSanitizer smoke ===="
"$repo/scripts/sanitize.sh" undefined "$ubsan_filter"

# clang-tidy (checks pinned in .clang-tidy, including bugprone-* and
# concurrency-*) over the analysis, optimizer and runtime subsystems and
# the CLI; the container may not ship clang-tidy, so skip-if-absent.
echo "==== tier 5: clang-tidy ===="
if command -v clang-tidy >/dev/null 2>&1; then
  clang-tidy -p "$repo/build" --quiet \
    "$repo"/src/analysis/*.cc "$repo"/src/optimizer/*.cc \
    "$repo"/src/runtime/*.cc \
    "$repo"/tools/graphcheck.cc
  echo "==== clang-tidy: clean ===="
else
  echo "==== clang-tidy not installed; skipping lint leg ===="
fi

# Clang thread-safety analysis (warnings as errors) over the annotated
# mutex holders: BufferPool / AllocFaultInjector, the Session executable
# cache, and the ServingController admission queue (core/
# thread_annotations.h). gcc has no -Wthread-safety, so the leg runs only
# when a clang++ is available; -fsyntax-only keeps it a pure analysis pass.
echo "==== tier 6: clang -Wthread-safety ===="
if command -v clang++ >/dev/null 2>&1; then
  clang++ -std=c++20 -fsyntax-only -I "$repo/src" \
    -Wthread-safety -Werror=thread-safety-analysis \
    "$repo/src/core/buffer.cc" \
    "$repo/src/runtime/serving.cc" \
    "$repo/src/runtime/session.cc"
  echo "==== thread-safety: clean ===="
else
  echo "==== clang++ not installed; skipping thread-safety leg ===="
fi

echo "==== ci: all gates passed ===="
