#!/bin/sh
# The one ratchet entry point:
#
#   scripts/gates.sh <run> [-record] [benchtool flags...]
#
# Builds benchtool with `go build` (`go run` stamps no VCS revision, so
# the BENCH header could not name its commit) and runs the named run from
# the repository root. benchtool writes BENCH_<run>.json, prints its
# table, appends it to $GITHUB_STEP_SUMMARY when that is set, and checks
# every line of scripts/gates.txt for the run; a failed line, or a
# fingerprint divergence, exits non-zero. With -record, once the run
# passes, its ratchet lines are tightened to the measured value plus
# their headroom: commit the changed gates.txt. Other flags pass through,
# e.g. -cpuprofile perf/cpu.pprof.
set -eu
cd "$(dirname "$0")/.."

if [ $# -lt 1 ]; then
	echo "usage: scripts/gates.sh <run> [-record] [benchtool flags...]" >&2
	exit 2
fi
run=$1
shift

bin="${TMPDIR:-/tmp}/papyrus-benchtool.$$"
trap 'rm -f "$bin"' EXIT
go build -o "$bin" ./cmd/benchtool

status=0
"$bin" -exp "$run" "$@" || status=$?
if [ "$status" -ne 0 ] && [ -n "${GITHUB_ACTIONS:-}" ]; then
	echo "::error file=scripts/gates.txt::run $run failed a gate or a fingerprint check (see the job log and BENCH_$run.json)"
fi
exit "$status"
