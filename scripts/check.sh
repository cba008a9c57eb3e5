#!/bin/sh
# The pre-merge gate list, kept only here. With no arguments every gate
# runs in order (`make check` does exactly that); with arguments only the
# named gates run (`make <gate>` calls `scripts/check.sh <gate>`).
#
#   scripts/check.sh               # all gates
#   scripts/check.sh rsm overload  # just these
#   scripts/check.sh --list        # print the gate names
#
# Set GO to use another toolchain binary. Seeded suites (nemesis, crash,
# rsm, overload) log their seed on failure; replay with
# BESPOKV_NEMESIS_SEED=<seed>.
set -eu

cd "$(dirname "$0")/.."
GO=${GO:-go}

GATES="fmt vet build test race obs telemetry migrate nemesis crash wirespeed rsm overload"

# fmt fails, listing the offenders, when any Go file is not gofmt-clean.
gate_fmt() {
	unformatted=$(gofmt -l .)
	if [ -n "$unformatted" ]; then
		echo "gofmt needed on:" >&2
		echo "$unformatted" >&2
		return 1
	fi
}

gate_vet() {
	$GO vet ./...
}

gate_build() {
	$GO build ./...
}

gate_test() {
	$GO test ./...
}

# race stress-tests the concurrent packages under the race detector: the
# pipelined datalet client, the RPC layer, transports, controlet
# replication paths, and the client router.
gate_race() {
	$GO test -race \
		./internal/datalet/... \
		./internal/rpc/... \
		./internal/transport/... \
		./internal/controlet/... \
		./internal/client/...
}

# obs race-tests the observability stack and guards the hot-path contract:
# Counter.Add and Histogram.Observe must stay allocation-free (the zero
# allocs/op assertion lives in TestHotPathZeroAlloc; the -benchmem run
# makes regressions visible in review output too).
gate_obs() {
	$GO test -race ./internal/metrics/... ./internal/trace/... ./internal/obs/...
	$GO test -run TestHotPathZeroAlloc ./internal/metrics/
	$GO test -run NONE -bench 'CounterAdd|HistogramObserve' -benchmem ./internal/metrics/
}

# telemetry race-tests the cluster telemetry plane end to end: the
# telemetry package units (windowing, hot-key sketch, SLO burn-rate state
# machine, aggregator merge/staleness), the label-cardinality guard, the
# cluster e2e (skewed workload → hot shard + hot keys in /clusterz;
# faultnet delay → SLO pending→firing→resolved without flapping), and the
# hot-path contract: Record/Touch must stay allocation-free (asserted in
# TestRecordZeroAllocTelemetry; the -benchmem run keeps the per-op numbers
# visible in review output).
gate_telemetry() {
	$GO test -race ./internal/telemetry/...
	$GO test -race -run 'TestLabelCardinality' ./internal/metrics/
	$GO test -race -run 'TestTelemetryEndToEnd' ./internal/cluster/
	$GO test -run TestRecordZeroAllocTelemetry ./internal/telemetry/
	$GO test -run NONE -bench 'TelemetryRecord|SketchTouch' -benchmem ./internal/telemetry/
}

# migrate race-tests the online-resize path end to end: the migrate
# package's planner/mover units plus the cluster join/drain/AA+EC-floor
# scenarios under client load.
gate_migrate() {
	$GO test -race ./internal/migrate/...
	$GO test -race -run 'TestJoinNodeUnderLoad|TestDrainNodeUnderLoad|TestJoinNodeAAEC' ./internal/cluster/
}

# nemesis race-tests the fault plane end to end: the faultnet fabric and
# schedule units, the linearizability/convergence checker units, and the
# cluster chaos suites that run every mode under seeded fault schedules.
gate_nemesis() {
	$GO test -race ./internal/faultnet/... ./internal/histcheck/...
	$GO test -race -run 'TestNemesis' ./internal/cluster/
}

# crash race-tests the storage fault story end to end: the WAL and faultfs
# units, the durable ht/lsm/applog engine recovery suites, and the cluster
# crash-restart/incremental-rejoin scenarios.
gate_crash() {
	$GO test -race ./internal/store/wal/... ./internal/store/faultfs/...
	$GO test -race -run 'Durable|Crash|Torn|WAL|Recover|Snapshot|Persist|CleanClose' \
		./internal/store/ht/ ./internal/store/lsm/ ./internal/store/applog/
	$GO test -race -run 'TestCrashRestart|TestRejoin' ./internal/cluster/
}

# wirespeed race-tests the direct-read data path end to end: the multi-op
# wire frames (fuzz seeds included), the whole client package (batch
# scheduler and lease cache units among it), and the cluster suites
# covering direct reads under epoch churn, shard-coalesced
# MultiGet/MultiPut in every mode, hedged reads under injected delay, and
# MS+SC linearizability with direct readers.
gate_wirespeed() {
	$GO test -race -run 'Multi|Fuzz' ./internal/wire/
	$GO test -race ./internal/client/
	$GO test -race -run 'TestDirectRead|TestHotKeyShadow|TestMultiGet|TestMultiPut|TestHedged|TestMSSCLinearizableWithDirectReads' ./internal/cluster/
}

# rsm race-tests the replicated control plane end to end: the Raft-style
# core (election, replication, persistence, snapshots — fuzz seeds
# included) and its leader-following group client, the replicated
# coordinator/DLM/sequencer services with their Close-aborts-a-long-poll
# contract, and the cluster control-plane nemesis suites (leader kill and
# partition under MS+SC load, checked for zero acked-write loss and
# linearizability). The apply path must stay allocation-free
# (TestApplyZeroAlloc).
gate_rsm() {
	$GO test -race ./internal/rsm/...
	$GO test -race -run 'Replicated|Sequencer|Follower|TestLockTableClock|TestTakeDeltaCap|TestCloseAborts' \
		./internal/coordinator/ ./internal/dlm/ ./internal/sharedlog/
	$GO test -race -run 'TestControlPlane' ./internal/cluster/
	$GO test -run TestApplyZeroAlloc ./internal/rsm/
}

# overload race-tests the end-to-end overload-control plane: the
# admission-gate/retry-budget/breaker units and the deadline wire-field
# fuzz seeds, the client failure-classification and retry-discipline
# suites, the controlet/datalet shed paths, and the cluster overload
# nemesis acceptance — a 4x surge against slowed engines must hold
# goodput at >= 80% of the pre-overload plateau with a bounded success
# tail, zero spurious failovers, and a linearizable history (Overloaded
# answers recorded as non-acked).
gate_overload() {
	$GO test -race ./internal/overload/...
	$GO test -race -run 'Fuzz' ./internal/wire/
	$GO test -race -run 'TestClassifyFailure|TestOverloaded|TestRetryBudget|TestBreaker|TestOpBudget|TestSustainedOverload' ./internal/client/
	$GO test -race -run 'Shed|Deadline|Overload' ./internal/controlet/ ./internal/datalet/
	$GO test -race -run 'TestOverload' ./internal/cluster/
}

if [ "${1:-}" = --list ]; then
	echo "$GATES"
	exit 0
fi
[ $# -gt 0 ] || set -- $GATES
for g; do
	case " $GATES " in
	*" $g "*) ;;
	*) echo "check.sh: unknown gate $g (gates: $GATES)" >&2; exit 2 ;;
	esac
done
set -x
for g; do
	"gate_$g"
done
