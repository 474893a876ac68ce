#!/usr/bin/env bash
# Determinism matrix: every deterministic nidt output is byte-identical
# across worker counts (--jobs 1/2/8), cache temperature (no cache, cold,
# warm from the cold run's own segment and, for audit, warm after
# compact) and telemetry flags. Each lap writes --metrics-out and
# --stats-out; its report is cmp'd against a --no-cache --jobs 1
# reference run without telemetry flags, and the "sim" and "cov" sections
# of its metrics file against its family's first lap. An audit lap's
# "cov" section also equals the one `nidt coverage --format json` prints
# for the same flags.
#
# usage: tests/determinism_matrix.sh path/to/nidt   (ctest runs it)
set -euo pipefail
NIDT=$(realpath "$1")
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"
unset NIDKIT_CACHE_DIR

# `! grep` can never fail a `set -e` script, so every "must not appear"
# check goes through here.
absent() { if grep -q -- "$1" "$2"; then echo "FAIL: '$1' in $2" >&2; exit 1; fi; }
# lap NAME ARGS...: one run with every telemetry output, saved as NAME.*;
# NAME.sim and NAME.cov hold the one-line sections, without the comma
# that separates them from the next.
lap() {
  local name=$1; shift
  "$NIDT" "$@" --metrics-out "$name.m" --stats-out "$name.s" > "$name.out"
  grep -o '^"sim":{.*}' "$name.m" > "$name.sim"
  grep -o '^"cov":{.*}' "$name.m" > "$name.cov"
}
# same REF FILE...: each FILE equals REF. warm STATS...: no cache misses.
same() { local ref=$1; shift; for f in "$@"; do cmp "$ref" "$f"; done; }
warm() { for s in "$@"; do grep -q '"misses":0' "$s"; absent '"hits":0,' "$s"; done; }

# Audit: jobs 1/8/2 x cold/warm on three cache dirs, a no-cache traced lap,
# then jobs 8/1 from the compacted segment after `cache compact`.
AUDIT=(audit --impls frr,bird --format json)
"$NIDT" "${AUDIT[@]}" --no-cache --jobs 1 > ref.out
lap a1 "${AUDIT[@]}" --jobs 1 --cache-dir ca
lap a8w "${AUDIT[@]}" --jobs 8 --cache-dir ca
lap a8 "${AUDIT[@]}" --jobs 8 --cache-dir cb
lap a1w "${AUDIT[@]}" --jobs 1 --cache-dir cb
lap a2 "${AUDIT[@]}" --jobs 2 --cache-dir cc
lap a2w "${AUDIT[@]}" --jobs 2 --cache-dir cc
lap a8n "${AUDIT[@]}" --jobs 8 --no-cache --trace-out trace.json
"$NIDT" cache compact --cache-dir ca > compact.txt
grep -q '^packed ' compact.txt
lap a8p "${AUDIT[@]}" --jobs 8 --cache-dir ca
lap a1p "${AUDIT[@]}" --jobs 1 --cache-dir ca
same ref.out a*.out; same a1.sim a*.sim; same a1.cov a*.cov
warm a8w.s a1w.s a2w.s a8p.s a1p.s
for s in a8p.s a1p.s; do grep -q '"pack_hits":' "$s"; absent '"pack_hits":0,' "$s"; done
for key in '"traceEvents":\[' '"ph":"M"' '"ph":"X"' '"name":"worker-0"' '"name":"scenario"'; do
  grep -q "$key" trace.json
done
python3 -c 'import json, sys; json.load(open(sys.argv[1]))' trace.json

# Cache maintenance on the compacted directory.
"$NIDT" cache ls --cache-dir ca > ls.txt
grep -q '^24 entries$' ls.txt; absent ' NO$' ls.txt
"$NIDT" cache compact --cache-dir ca > /dev/null
"$NIDT" cache prune --cache-dir ca --max-age-days 30 > /dev/null
"$NIDT" cache ls --json --cache-dir ca > ls.json
absent '"valid":false' ls.json
"$NIDT" cache clear --cache-dir ca > /dev/null
"$NIDT" cache ls --cache-dir ca > ls.txt
grep -q '^0 entries' ls.txt

# Sweep and stability at jobs 1/2/8, then cold and warm on a cache dir.
for cmd in sweep stability; do
  "$NIDT" "$cmd" --impl frr --no-cache --jobs 1 > "$cmd.ref"
  lap "${cmd}2" "$cmd" --impl frr --jobs 2
  lap "${cmd}8" "$cmd" --impl frr --jobs 8
  lap "${cmd}c" "$cmd" --impl frr --jobs 2 --cache-dir "c$cmd"
  lap "${cmd}w" "$cmd" --impl frr --jobs 8 --cache-dir "c$cmd"
  same "$cmd.ref" "${cmd}"{2,8,c,w}.out
  same "${cmd}2.sim" "${cmd}"{8,c,w}.sim; same "${cmd}2.cov" "${cmd}"{8,c,w}.cov
  warm "${cmd}w.s"
done

# Coverage subcommand.
COVERAGE=(coverage --impls frr,bird --topos linear-2 --seeds 1 --duration-s 90)
"$NIDT" "${COVERAGE[@]}" > coverage.txt
for key in 'coverage: ' 'saturation:' 'fsm.ospf.Down>Init'; do grep -q "$key" coverage.txt; done
"$NIDT" "${COVERAGE[@]}" --format json > coverage.json
python3 -c 'import json, sys; json.load(open(sys.argv[1]))' coverage.json
# The audit's record reports the same coverage as the coverage command.
lap acov audit "${COVERAGE[@]:1}"
grep '^"cov":{' coverage.json > coverage.cov
same coverage.cov acov.cov

# Triage: jobs 1 cold, jobs 8 warm twice, jobs 1 warm. The Table 2 flag
# comes back confirmed with a strictly smaller repro that still flags.
TRIAGE=(triage --impls frr,bird)
"$NIDT" "${TRIAGE[@]}" --no-cache --jobs 1 --report-out tref.json > tref.out
lap t1 "${TRIAGE[@]}" --jobs 1 --cache-dir ct --report-out t1.json
lap t8w "${TRIAGE[@]}" --jobs 8 --cache-dir ct --report-out t8w.json
lap t8w2 "${TRIAGE[@]}" --jobs 8 --cache-dir ct --report-out t8w2.json
lap t1w "${TRIAGE[@]}" --jobs 1 --cache-dir ct --report-out t1w.json
same tref.json t1.json t8w.json t8w2.json t1w.json; same tref.out t*.out
same t1.sim t*.sim; same t1.cov t*.cov
for key in '"schema":"nidt-triage-v1"' '"verdict":"confirmed"' '"smaller":true' '"repro":"nidt audit'; do
  grep -q "$key" t1.json
done
warm t8w.s t8w2.s t1w.s
"$NIDT" cache ls --cache-dir ct > tls.txt
absent ' NO$' tls.txt
[[ $(< t1.json) =~ \"repro\":\"nidt\ (audit\ [^\"]*)\" ]]
read -ra REPRO <<< "${BASH_REMATCH[1]}"
"$NIDT" "${REPRO[@]}" > repro.json
grep -q '"discrepancies":\[{' repro.json
echo "determinism matrix: all laps identical"
