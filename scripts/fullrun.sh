#!/bin/sh
# Regenerates the full-fidelity pipeline artifacts that EXPERIMENTS.md
# quotes. They are deterministic at the default seed (1995), so they are
# gitignored rather than tracked; their sha256 is pinned in
# scripts/digests.sha256 and checked at the end. A run took 78 s at
# WORKERS=0 on two cores; the serial default runs on one. Run this from
# the repository root whenever you need them:
#
#	./scripts/fullrun.sh              # serial (the reference ordering)
#	WORKERS=0 ./scripts/fullrun.sh    # parallel, byte-identical output
#
# Produces:
#   full_run_output.txt  — the rendered tables and figures
#   full_run.json        — machine-readable summary, pre-DfT
#   full_run.json.dft    — machine-readable summary, post-DfT
set -eu

go run ./cmd/dotest -workers "${WORKERS:-1}" -json full_run.json \
	| tee full_run_output.txt

# The pinned digests: a change that moves full-fidelity results on
# purpose updates scripts/digests.sha256 in the same commit.
grep '  full_run\.json' scripts/digests.sha256 | sha256sum -c
