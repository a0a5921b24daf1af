#!/bin/sh
# CI gate: gofmt + vet + the cdpcvet invariant lint, docs, build, the full
# test suite, the race detector over the whole module, the benchmark
# module's fingerprint tests, audited experiment runs, and the cdpcd
# end-to-end smoke. Everything must pass before a change lands.
set -eux

# Formatting: every Go file, the benchmark module's included, must be
# gofmt-clean.
test -z "$(gofmt -l .)"

go vet ./...
# The benchmark module (perfbench/, its own go.mod) is outside ./...
(cd perfbench && go vet .)

# cdpcvet: the repo's own static analyzers (determinism, statsconserve,
# guardedby, errcode, pow2geom, and the interprocedural quartet:
# memokey, cancelpoll, topoaccess, scaleconserve). Any diagnostic is a
# hard failure — the tool exits 1 when it reports anything — and the
# analysis itself (module load + all nine analyzers, excluding the go
# toolchain's compile of cdpcvet) must finish inside a 10s wall budget
# so the lint gate stays cheap enough to run on every change.
go run ./cmd/cdpcvet -budget 10s ./...

# Every internal package (and the root package) must carry a doc.go
# with a package comment — the documentation contract of the repo.
for d in internal/*/; do
    pkg=$(basename "$d")
    test -f "${d}doc.go" || { echo "missing ${d}doc.go"; exit 1; }
    grep -q "^// Package ${pkg}" "${d}doc.go" || { echo "${d}doc.go lacks a '// Package ${pkg}' comment"; exit 1; }
done
test -f doc.go || { echo "missing root doc.go"; exit 1; }
grep -q "^// Package" doc.go || { echo "root doc.go lacks a package comment"; exit 1; }

go build ./...
go test ./...
go test -race ./...

# The benchmark module (perfbench/, its own go.mod) is outside the root
# module's ./... pattern; its tests hold the full-fig6, full-fig6-sampled
# and cdpcd-sampled result fingerprints to perfbench/testdata/golden.json.
(cd perfbench && go test .)

# Program-text parser fuzz seeds: replay the checked-in corpus (plus the
# F.Add seeds) as deterministic regression tests.
go test -run=FuzzParse ./internal/ir

# Binary-trace decoder fuzz seeds: same replay discipline for the
# CDPCTRC1 decoder (malformed/truncated inputs must error, never panic).
go test -run=FuzzDecodeTrace ./internal/trace

# Hot-path hash table fuzz seeds: FuzzFlatMap replays operation
# sequences against a Go map.
go test -run=FuzzFlatMap ./internal/flat

# Shadow LRU fuzz seeds: FuzzLRU diffs Touch/Remove/Clear/Len sequences
# at capacities 1-64, key 0 and colliding keys included, on both LRU
# forms (64-bit keys, and 32-bit keys with 16-bit links) against a
# container/list LRU.
go test -run=FuzzLRU ./internal/flat

# Frame allocator fuzz seeds: FuzzAllocator diffs Alloc from each
# pid's color subset, Release, a pid's release of everything it holds
# (highest frame first), Partition's domain blocks and color drains,
# under the modular layout and two hashed ones, against the explicit
# free-list allocator that keeps the pids' frames and domains, with
# every pool count and every subset's first-touch color after each
# operation.
go test -run=FuzzAllocator ./internal/memory

# Cache fuzz seeds: FuzzCache diffs Access, Probe, Invalidate,
# InvalidateRange, Clean, MarkDirty and Flush at line sizes 1-128 B,
# addresses near 2^64 included, against the per-set reference cache.
go test -run=FuzzCache ./internal/cache

# TLB fuzz seeds: FuzzTLB diffs Translate/Fill/Peek/Invalidate/Flush
# sequences against a container/list LRU reference.
go test -run=FuzzTLB ./internal/tlb

# Coherence directory fuzz seeds: FuzzDirectory diffs Access, AccessInto
# (one reused Outcome), Evict, Forget and Holders sequences at 1-64 CPUs
# (every mask width, full and one past) and 8-256-byte lines, lines
# whose writers spill to a side row included, against the per-line
# oracle directory.
go test -run=FuzzDirectory ./internal/coherence

# Machine and topology file fuzz seeds: FuzzReadConfig and
# FuzzReadTopology replay loader inputs; an accepted machine must
# round-trip through its JSON and build, or error, without panicking.
go test -run=FuzzReadConfig ./internal/arch
go test -run=FuzzReadTopology ./internal/arch

# cdpcd request fuzz seeds: FuzzJobRequest decodes and validates
# arbitrary bodies; validate must not panic, and an accepted request's
# machine must validate.
go test -run=FuzzJobRequest ./internal/server

# Nest-stream cursor fuzz seeds: FuzzNestStream diffs the flattened
# cursor against the oracle interpreter on generated nests.
go test -run=FuzzNestStream ./internal/ir

# Simulator-throughput regression guard: re-time one tomcatv run through
# the full simulator and compare against the baseline recorded in
# BENCH_harness.json (make bench regenerates it). More than 25% slower
# is a hard failure.
base_ns=$(sed -n 's/.*"sim_throughput_ns_per_op": \([0-9][0-9]*\).*/\1/p' BENCH_harness.json)
test -n "$base_ns" || { echo "BENCH_harness.json lacks sim_throughput_ns_per_op; run make bench"; exit 1; }
now_ns=$(go test -run='^$' -bench='^BenchmarkSimulatorThroughput$' -benchtime=3x . \
    | awk '/^BenchmarkSimulatorThroughput/ { print int($3); exit }')
test -n "$now_ns" || { echo "could not parse BenchmarkSimulatorThroughput output"; exit 1; }
awk -v now="$now_ns" -v base="$base_ns" 'BEGIN {
    ratio = now / base
    printf "sim throughput: %d ns/op vs baseline %d ns/op (%.2fx)\n", now, base, ratio
    exit (ratio > 1.25) ? 1 : 0
}' || { echo "simulator throughput regressed more than 25% against BENCH_harness.json"; exit 1; }

# Same guard for the phase-sampled mode: its whole point is throughput,
# so a silent slowdown is a regression even if results stay correct.
base_samp_ns=$(sed -n 's/.*"sampled_throughput_ns_per_op": \([0-9][0-9]*\).*/\1/p' BENCH_harness.json)
test -n "$base_samp_ns" || { echo "BENCH_harness.json lacks sampled_throughput_ns_per_op; run make bench"; exit 1; }
now_samp_ns=$(go test -run='^$' -bench='^BenchmarkSimulatorThroughputSampled$' -benchtime=3x . \
    | awk '/^BenchmarkSimulatorThroughputSampled/ { print int($3); exit }')
test -n "$now_samp_ns" || { echo "could not parse BenchmarkSimulatorThroughputSampled output"; exit 1; }
awk -v now="$now_samp_ns" -v base="$base_samp_ns" 'BEGIN {
    ratio = now / base
    printf "sampled throughput: %d ns/op vs baseline %d ns/op (%.2fx)\n", now, base, ratio
    exit (ratio > 1.25) ? 1 : 0
}' || { echo "sampled simulator throughput regressed more than 25% against BENCH_harness.json"; exit 1; }

# Trace-decode regression guard: the input path of trace-driven
# simulation (DESIGN.md §15.2). BenchmarkTraceDecode reports a ns/ref
# metric; compare it against the recorded per-reference baseline.
base_ref_ns=$(sed -n 's/.*"trace_decode_ns_per_ref": \([0-9.][0-9.]*\).*/\1/p' BENCH_harness.json)
test -n "$base_ref_ns" || { echo "BENCH_harness.json lacks trace_decode_ns_per_ref; run make bench"; exit 1; }
now_ref_ns=$(go test -run='^$' -bench='^BenchmarkTraceDecode$' -benchtime=3x . \
    | awk '/^BenchmarkTraceDecode/ { for (i = 2; i <= NF; i++) if ($i == "ns/ref") { print $(i-1); exit } }')
test -n "$now_ref_ns" || { echo "could not parse BenchmarkTraceDecode ns/ref output"; exit 1; }
awk -v now="$now_ref_ns" -v base="$base_ref_ns" 'BEGIN {
    ratio = now / base
    printf "trace decode: %.2f ns/ref vs baseline %.2f ns/ref (%.2fx)\n", now, base, ratio
    exit (ratio > 1.25) ? 1 : 0
}' || { echo "trace decoding regressed more than 25% against BENCH_harness.json"; exit 1; }

# Sampled-fidelity smoke: one workload sampled vs full through cdpcsim;
# the MCPI deviation must stay inside the 2% error budget (the Go test
# TestSampledFidelity asserts it for all ten workloads; this catches a
# broken sampled path without rerunning the suite).
full_mcpi=$(go run ./cmd/cdpcsim -workload hydro2d -cpus 2 | awk '/MCPI/ { print $2; exit }')
samp_mcpi=$(go run ./cmd/cdpcsim -workload hydro2d -cpus 2 -sampled -audit > /tmp/cdpc-sampled-smoke.txt \
    && awk '/MCPI/ { print $2; exit }' /tmp/cdpc-sampled-smoke.txt)
grep -q '^fidelity   sampled' /tmp/cdpc-sampled-smoke.txt || { echo "cdpcsim -sampled did not report sampled fidelity"; exit 1; }
rm -f /tmp/cdpc-sampled-smoke.txt
awk -v full="$full_mcpi" -v samp="$samp_mcpi" 'BEGIN {
    err = (samp > full) ? (samp - full) / full : (full - samp) / full
    printf "sampled MCPI %.4f vs full %.4f (%.2f%% error)\n", samp, full, 100 * err
    exit (err > 0.02) ? 1 : 0
}' || { echo "sampled MCPI deviates more than 2% from full fidelity"; exit 1; }

# Audited smoke runs: conservation invariants (cycles, miss classes,
# bus occupancy) checked on every simulation; violations exit non-zero.
# fig6 covers the paper's headline sweep, ext-pressure the raw-simulator
# path that bypasses the scheduler, ext-multiprog the co-scheduled path:
# frames released at a process's exit, isolation domains and first-touch
# co-runs.
go run ./cmd/experiments -id fig6 -quick -audit > /dev/null
go run ./cmd/experiments -id ext-pressure -quick -audit > /dev/null
go run ./cmd/experiments -id ext-multiprog -quick -audit > /dev/null

# Touch-order smoke: cdpc-touch realizes CDPC's hints by faulting the
# pages in order on the master before execution (§5.3's Digital UNIX
# emulation over bin hopping), the only path that serializes faults on
# one CPU before the run; no other audited run reaches it.
go run ./cmd/cdpcsim -machine alpha -variant cdpc-touch -cpus 8 -scale 32 -audit > /dev/null

# cdpcd end-to-end: start the daemon on an ephemeral port, run sync and
# async jobs, saturate the bounded queue with 64 concurrent mixed
# repeated/unique submissions (429s observed, zero accepted jobs
# dropped, repeats served from the memo cache), check /metrics moved,
# then SIGTERM and require a clean drain within the deadline.
go build -o /tmp/cdpcd-verify ./cmd/cdpcd
go run ./scripts/smoke -bin /tmp/cdpcd-verify
rm -f /tmp/cdpcd-verify

# Isolation smoke: a 2-way color-partitioned mix must report exactly
# zero cross-domain evictions (audit invariant 12 also checks this, so
# the run is audited too — the grep catches a silent wiring break
# between the simulator counter and the printed line).
go run ./cmd/cdpcsim -workload tomcatv -scale 32 -procs 2 -isolate -audit > /tmp/cdpc-isolate-smoke.txt
grep -q '^isolation: color-partitioned domains; cross-domain evictions 0 ' /tmp/cdpc-isolate-smoke.txt \
    || { echo "isolated 2-way run did not report zero cross-domain evictions"; cat /tmp/cdpc-isolate-smoke.txt; exit 1; }
rm -f /tmp/cdpc-isolate-smoke.txt

# Topology smoke: a 2-way co-schedule on the hash-sliced LLC must pass
# the audit (invariant 13 holds the per-slice miss split to the
# machine-wide total on the multiprocess path) and print the split.
go run ./cmd/cdpcsim -workload tomcatv -scale 32 -cpus 8 -procs 2 -topology sliced-llc4 -audit > /tmp/cdpc-topology-smoke.txt
grep -q 'sliced-llc4' /tmp/cdpc-topology-smoke.txt || { echo "sliced run does not carry the topology name"; cat /tmp/cdpc-topology-smoke.txt; exit 1; }
grep -q 'slice split' /tmp/cdpc-topology-smoke.txt || { echo "sliced run did not print the per-slice miss split"; cat /tmp/cdpc-topology-smoke.txt; exit 1; }
rm -f /tmp/cdpc-topology-smoke.txt

# Rejection smoke: a spec harness.Check rejects must make cdpcsim exit
# non-zero before simulating (an unknown machine preset used to run the
# base machine silently).
if go run ./cmd/cdpcsim -machine cray -workload tomcatv -cpus 1 -scale 64 > /dev/null 2>&1; then
    echo "cdpcsim accepted the unknown machine preset cray"; exit 1
fi

# Trace smoke: convert the bundled irregular text trace to the binary
# format and replay it under first-touch and the online-summarizer cdpc
# variant, audited. The conservation invariants must hold on both runs,
# and the summarizer's hints must eliminate at least 90% of
# first-touch's conflict misses (the tentpole acceptance criterion;
# TestTraceOnlineSummarizerBeatsFirstTouch asserts the same in-process).
go run ./cmd/traceconv -o /tmp/cdpc-trace-smoke.trc examples/traces/irregular.txt
go run ./cmd/cdpcsim -trace-file /tmp/cdpc-trace-smoke.trc -variant first-touch -audit > /tmp/cdpc-trace-ft.txt
go run ./cmd/cdpcsim -trace-file /tmp/cdpc-trace-smoke.trc -variant cdpc -audit > /tmp/cdpc-trace-cdpc.txt
grep -q 'audit: all conservation invariants hold' /tmp/cdpc-trace-ft.txt \
    || { echo "first-touch trace replay failed the audit"; cat /tmp/cdpc-trace-ft.txt; exit 1; }
grep -q 'audit: all conservation invariants hold' /tmp/cdpc-trace-cdpc.txt \
    || { echo "cdpc trace replay failed the audit"; cat /tmp/cdpc-trace-cdpc.txt; exit 1; }
grep -q 'CDPC hints' /tmp/cdpc-trace-cdpc.txt \
    || { echo "cdpc trace replay reported no hint activity"; cat /tmp/cdpc-trace-cdpc.txt; exit 1; }
ft_conf=$(sed -n 's/.*conflict \([0-9][0-9]*\),.*/\1/p' /tmp/cdpc-trace-ft.txt)
cd_conf=$(sed -n 's/.*conflict \([0-9][0-9]*\),.*/\1/p' /tmp/cdpc-trace-cdpc.txt)
awk -v ft="$ft_conf" -v cd="$cd_conf" 'BEGIN {
    printf "trace conflict misses: first-touch %d, cdpc (online summarizer) %d\n", ft, cd
    exit (ft >= 1000 && cd * 10 <= ft) ? 0 : 1
}' || { echo "online summarizer did not eliminate >=90% of first-touch conflict misses on the bundled trace"; exit 1; }
rm -f /tmp/cdpc-trace-smoke.trc /tmp/cdpc-trace-ft.txt /tmp/cdpc-trace-cdpc.txt
