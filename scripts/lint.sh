#!/bin/sh
# Static-analysis gate: run the armvet pass suite (determvet, lockvet,
# atomicvet, allocvet, metricvet) over the whole module and fail on any finding.
# armvet typechecks the repo from source with the pure-Go toolchain
# (no cgo, no network), so the only requirement is a Go toolchain new
# enough to build the module. Degrade loudly, not silently: an old
# toolchain is an error, never a skipped gate.
# Extra arguments are passed straight through, e.g.
#
#   scripts/lint.sh -list
#   scripts/lint.sh ./internal/sim
set -eu

cd "$(dirname "$0")/.."

# go.mod says "go 1.22" (armvet's parser relies on 1.22 semantics:
# ast.Unparen, for-range scoping), but the simulator's scheduler runs
# threads as iter.Pull coroutines, so internal/sim/sched.go is built
# only by go1.23+ toolchains (//go:build go1.23). Reject older
# toolchains with a clear message instead of a confusing compile error.
gover=$(go env GOVERSION 2>/dev/null || true)
case "$gover" in
"")
	echo "lint: cannot determine Go toolchain version ('go env GOVERSION' failed);" >&2
	echo "lint: armvet needs Go >= 1.23 — install or fix the toolchain, do not skip this gate" >&2
	exit 2
	;;
go1 | go1.[0-9] | go1.[0-9].* | go1.1[0-9] | go1.1[0-9].* | go1.2[012] | go1.2[012].*)
	echo "lint: Go toolchain $gover is too old for this module (needs go1.23+ for iter.Pull)" >&2
	echo "lint: upgrade the toolchain; this gate must not be skipped" >&2
	exit 2
	;;
esac

if [ "$#" -eq 0 ]; then
	set -- ./...
fi
exec go run ./cmd/armvet "$@"
