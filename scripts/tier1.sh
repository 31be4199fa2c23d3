#!/bin/sh
# Tier-1 verification recipe. Run from the repository root:
#
#	./scripts/tier1.sh           # full pass (includes -race and slow pipeline tests)
#	SHORT=1 ./scripts/tier1.sh   # faster iteration: -short skips the slow comparisons
#
# Stages:
#   1. gofmt -l        — formatting drift fails the build
#   2. grep-lint       — no context.TODO() / bare time.Now() in the
#                        deterministic pipeline paths, and no new bare
#                        256/NumComparators vehicle constants in
#                        internal/macros or internal/adc outside the
#                        vehicle spec, and no direct netlist.NewBuilder
#                        in internal/core (engines must come through
#                        the pool/rebind seam), and no hand-rolled
#                        chan struct{} single-flight registries in
#                        internal/core or internal/macros (compute-once
#                        results go through internal/memo)
#   3. go build / vet  — compile + static checks, whole tree
#   4. staticcheck     — when the binary is on PATH (skipped with a notice
#                        otherwise; the container does not ship it)
#   5. go test (+race) — unit + integration tests, plus a -shuffle=on
#                        pass so test-order dependencies (easy to
#                        introduce around shared pipelines and caches)
#                        cannot hide behind the default ordering
#   6. bench smoke     — every benchmark runs once (-benchtime=1x) so the
#                        table/figure and kernel benchmarks cannot bit-rot
#   7. bench guard     — a fresh kernel-benchmark run is compared against
#                        the checked-in BENCH_kernel.json snapshot; only a
#                        >2x ns/op regression or an allocs/op increase
#                        beyond 0.1% (exactly zero for the deterministic
#                        kernel cases) fails, so machine noise passes but
#                        a reverted kernel optimisation does not
#   8. vehicle smoke   — a quick 6-bit campaign runs the full
#                        sprinkle→collapse→inject→classify→detect flow
#                        (runs under SHORT=1 too: it is the only stage
#                        covering a non-default vehicle end-to-end)
#   9. RunMacro smoke  — dotest -quick -macro decoder and -macro ladder
#                        must write the same JSON bytes with the default
#                        class-analysis fan-out as strictly serial
#                        (-workers 1), and those bytes must match the
#                        sha256 pinned in scripts/digests.sha256; runs
#                        under SHORT=1 too
#  10. campaignd smoke — (skipped with SHORT=1) check that dotest's
#                        whole-vehicle run at the default fan-out
#                        matches its pinned sha256 and the strictly
#                        serial and the 4-worker runs byte for byte,
#                        and so does a checkpointed run and its
#                        -resume; check the post-DfT whole-vehicle
#                        run against its pinned sha256; then start
#                        the job server, submit a -quick job over
#                        HTTP, stream it to
#                        completion, verify the result bytes are
#                        identical to a direct `dotest -quick` run, and
#                        shut the daemon down with SIGTERM (exit 130)
#  11. campaignw smoke  — (skipped with SHORT=1) attach two campaignw
#                        remote workers to the same daemon (one with two
#                        slots, so it leases multi-grant batches), run a
#                        second -quick job with units leasing out over the
#                        remote protocol, verify the served bytes are
#                        again identical to the direct CLI run, and stop
#                        the workers with SIGTERM (exit 130)
set -eu

fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
	echo "gofmt: needs formatting:" >&2
	echo "$fmt" >&2
	exit 1
fi

# Grep-lint: the deterministic pipeline must stay reproducible. A
# context.TODO() marks an unthreaded context (the API takes ctx
# everywhere now), and a bare time.Now() leaks wall-clock state into
# results. Wall-clock use is legitimate only in the observability and
# campaign-metrics layers (span timestamps, run wall time), the job
# server (lease deadlines and worker liveness are wall-clock state by
# design, and never flow into results) and in CLIs / tests, so those
# are excluded. internal/worker stays IN scope: the remote worker
# executes pipeline units and must stay wall-clock-free outside
# tickers/timers, or remote results could diverge from local ones.
lint=$(grep -rn --include='*.go' \
	--exclude='*_test.go' \
	--exclude-dir=obs --exclude-dir=campaign --exclude-dir=jobserver \
	-e 'context\.TODO()' -e 'time\.Now()' \
	internal/ repro.go 2>/dev/null || true)
if [ -n "$lint" ]; then
	echo "grep-lint: forbidden context.TODO()/time.Now() in deterministic pipeline paths:" >&2
	echo "$lint" >&2
	exit 1
fi

# Vehicle-constant lint: the resolution-dependent sizes derive from
# macros.Vehicle; a fresh bare 256 (or a resurrected NumComparators)
# in the macro or behavioural-ADC layers would silently pin a consumer
# back to the 8-bit case. The spec itself and tests are excluded.
vlint=$(grep -rn --include='*.go' 	--exclude='*_test.go' --exclude='vehicle.go' 	-e '\b256\b' -e 'NumComparators' 	internal/macros/ internal/adc/ 2>/dev/null || true)
if [ -n "$vlint" ]; then
	echo "grep-lint: bare 256/NumComparators in vehicle-parameterised layers (use macros.Vehicle):" >&2
	echo "$vlint" >&2
	exit 1
fi

# Rebind-seam lint: the per-die loops in internal/core must obtain
# engines through the macro pool/rebind seam (macros.Respond* with an
# EnginePool), never by compiling a netlist directly. A direct
# netlist.NewBuilder call in core would bypass the compile-once cache
# and silently reintroduce the per-die rebuild cost. Tests are
# excluded (they may build reference engines on purpose).
rlint=$(grep -rn --include='*.go' --exclude='*_test.go' \
	-e 'netlist\.NewBuilder' \
	internal/core/ 2>/dev/null || true)
if [ -n "$rlint" ]; then
	echo "grep-lint: direct netlist.NewBuilder in internal/core (use the macro pool/rebind seam):" >&2
	echo "$rlint" >&2
	exit 1
fi

# Compute-once lint: the good machine is computed once per key through
# internal/memo, the one single-flight with one cancellation policy. A
# `chan struct{}` in the pipeline's core or macro layers is the telltale
# of a new hand-rolled in-flight registry with a policy of its own.
# Tests are excluded (they use channels to stage concurrency).
mlint=$(grep -rn --include='*.go' --exclude='*_test.go' \
	-e 'chan struct{}' \
	internal/core/ internal/macros/ 2>/dev/null || true)
if [ -n "$mlint" ]; then
	echo "grep-lint: chan struct{} single-flight in internal/core or internal/macros (use internal/memo):" >&2
	echo "$mlint" >&2
	exit 1
fi

short=${SHORT:+-short}

go build ./...
go vet ./...

if command -v staticcheck >/dev/null 2>&1; then
	staticcheck ./...
else
	echo "tier1: staticcheck not found, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"
fi
go test $short ./...
go test $short -shuffle=on ./...
go test $short -race ./...
go test -bench=. -benchtime=1x ./...
go run ./cmd/benchkernel -benchtime 100ms -check BENCH_kernel.json

# Vehicle smoke: the non-default 6-bit vehicle must complete the whole
# methodology (layout → sprinkle → collapse → inject → classify →
# detect). Quick config, pre-DfT only, classes capped — this is a
# does-it-run gate, not a coverage measurement. Kept under SHORT=1: no
# other stage exercises a non-default vehicle end-to-end.
go run ./cmd/dotest -quick -bits 6 -dft pre -maxclasses 4 >/dev/null
echo "tier1: 6-bit vehicle smoke passed"

# RunMacro smoke: a single macro's class analyses fan out over the
# campaign workers, like Run's. The default fan-out must reproduce the
# strictly serial run byte for byte, both on the ladder (workers share
# its nominal factorization) and on the gate-level decoder.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/dotest" ./cmd/dotest

# pinned FILE...: each named file in $tmp must hold the sha256 that
# scripts/digests.sha256 records for it. Comparing runs of one binary
# with each other cannot catch a change that moves the bytes of every
# mode at once; the pins can. A deliberate change of results updates
# the file in the same commit.
digests=$(pwd)/scripts/digests.sha256
pinned() {
	for f in "$@"; do
		grep "  $f\$" "$digests" || {
			echo "tier1: no pinned digest for $f in $digests" >&2
			exit 1
		}
	done >"$tmp/pins"
	(cd "$tmp" && sha256sum -c --quiet pins)
}

for m in decoder ladder; do
	"$tmp/dotest" -quick -macro "$m" -json "$tmp/$m.json" >/dev/null
	"$tmp/dotest" -quick -macro "$m" -workers 1 -json "$tmp/$m.serial.json" >/dev/null
	cmp "$tmp/$m.json" "$tmp/$m.serial.json"
	cmp "$tmp/$m.json.dft" "$tmp/$m.serial.json.dft"
	pinned "$m.json" "$m.json.dft"
done
echo "tier1: parallel and serial RunMacro byte-identical and pinned"

# Campaignd smoke: the service path must be byte-identical to the CLI.
# A job submitted over HTTP runs the same quick configuration as a
# direct dotest run; the served result bytes must match exactly, and a
# SIGTERM must drain the daemon to the conventional exit status 130.
if [ -z "${SHORT:-}" ]; then
	go build -o "$tmp/campaignd" ./cmd/campaignd
	go build -o "$tmp/campaignctl" ./cmd/campaignctl

	"$tmp/dotest" -quick -dft pre -workers 0 -json "$tmp/ref.json" >/dev/null
	pinned ref.json

	# The default fan-out (GOMAXPROCS campaign workers and die workers)
	# must match the strictly serial run (-workers 1) byte for byte, and
	# so must an oversubscribed pool (-workers 4).
	"$tmp/dotest" -quick -dft pre -workers 1 -json "$tmp/serial.json" >/dev/null
	cmp "$tmp/ref.json" "$tmp/serial.json"
	"$tmp/dotest" -quick -dft pre -workers 4 -json "$tmp/w4.json" >/dev/null
	cmp "$tmp/ref.json" "$tmp/w4.json"
	echo "tier1: default, serial and 4-worker runs byte-identical"

	# The post-DfT vehicle analyses bias-line shorts that the comparator
	# and the bias generator share; pin its bytes too.
	"$tmp/dotest" -quick -dft post -workers 0 -json "$tmp/post.json" >/dev/null
	pinned post.json.dft
	echo "tier1: post-DfT run pinned"

	# A checkpointed run, and a -resume that restores every unit from
	# its checkpoint, must both reproduce the same bytes.
	"$tmp/dotest" -quick -dft pre -workers 0 -checkpoint "$tmp/ck" -json "$tmp/ck.json" >/dev/null
	cmp "$tmp/ref.json" "$tmp/ck.json"
	"$tmp/dotest" -quick -dft pre -workers 0 -checkpoint "$tmp/ck" -resume -json "$tmp/ck.json" >/dev/null
	cmp "$tmp/ref.json" "$tmp/ck.json"
	echo "tier1: checkpointed and resumed runs byte-identical"

	"$tmp/campaignd" -addr 127.0.0.1:0 -addrfile "$tmp/addr" -store "$tmp/ckpts" &
	dpid=$!
	i=0
	while [ ! -s "$tmp/addr" ]; do
		i=$((i + 1))
		if [ "$i" -gt 1000 ]; then
			echo "campaignd smoke: daemon never wrote its address" >&2
			kill "$dpid" 2>/dev/null || true
			exit 1
		fi
		sleep 0.01
	done
	addr="http://$(cat "$tmp/addr")"

	id=$("$tmp/campaignctl" -server "$addr" submit -quick -dft pre -wait)
	"$tmp/campaignctl" -server "$addr" result "$id" -dft pre -o "$tmp/srv.json"
	cmp "$tmp/ref.json" "$tmp/srv.json"

	# Campaignw smoke: the remote-worker path must also be byte-identical.
	# Two workers attach to the daemon, one with two slots so that a
	# multi-grant batch runs end to end; a second job (different seed, so it
	# cannot dedup onto the finished one) runs with units leasing out over
	# the remote protocol, and the served bytes must again match the direct
	# CLI run exactly. The workers are parked before submission so units
	# demonstrably lease out; the Go tests assert remote participation,
	# this stage asserts the end-to-end binaries and byte-identity.
	go build -o "$tmp/campaignw" ./cmd/campaignw
	"$tmp/dotest" -quick -dft pre -seed 7 -workers 0 -json "$tmp/ref2.json" >/dev/null

	"$tmp/campaignw" -addr "$addr" -id smoke-w1 -slots 2 -wait 2s &
	wpid1=$!
	"$tmp/campaignw" -addr "$addr" -id smoke-w2 -wait 2s &
	wpid2=$!
	i=0
	while [ "$("$tmp/campaignctl" -server "$addr" workers | grep -c 'waiting for work')" -lt 2 ]; do
		i=$((i + 1))
		if [ "$i" -gt 1000 ]; then
			echo "campaignw smoke: workers never parked" >&2
			kill "$wpid1" "$wpid2" "$dpid" 2>/dev/null || true
			exit 1
		fi
		sleep 0.01
	done

	id2=$("$tmp/campaignctl" -server "$addr" submit -quick -dft pre -seed 7 -wait)
	"$tmp/campaignctl" -server "$addr" result "$id2" -dft pre -o "$tmp/srv2.json"
	cmp "$tmp/ref2.json" "$tmp/srv2.json"
	"$tmp/campaignctl" -server "$addr" workers >&2

	for wpid in "$wpid1" "$wpid2"; do
		kill -TERM "$wpid"
		set +e
		wait "$wpid"
		status=$?
		set -e
		if [ "$status" -ne 130 ]; then
			echo "campaignw smoke: worker exited $status, want 130" >&2
			exit 1
		fi
	done
	echo "tier1: campaignw smoke passed (remote workers byte-identical to dotest)"

	kill -TERM "$dpid"
	set +e
	wait "$dpid"
	status=$?
	set -e
	if [ "$status" -ne 130 ]; then
		echo "campaignd smoke: daemon exited $status, want 130" >&2
		exit 1
	fi
	echo "tier1: campaignd smoke passed (byte-identical to dotest)"
fi

echo "tier1: all stages passed"
