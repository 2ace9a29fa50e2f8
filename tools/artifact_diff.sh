#!/usr/bin/env bash
# Artifact byte-identity between two builds of adlsym: run the same
# explorations with both and require every artifact, stdout and exit code
# to match. This is the acceptance check for refactors that must not
# change behaviour (one engine, one observation pipeline, ...).
#
# Matrix: 4 ISAs x {bitcount3, earlyexit4, parse2} x {sequential, --jobs 1,
# --jobs 2}, all under --clock=manual, each writing --stats-json,
# --path-forest, --path-dot, --profile, --profile-folded, --events and
# --manifest; plus per ISA:
#  - `adlsym profile` runs (stdout tables), a --max-steps budget run and
#    one --checkpoint run;
#  - sort4 sequential, --jobs 1, --jobs 2 and --jobs 4 runs, whose
#    queries need bit-blasting and the SAT core (most Unsat ones are
#    answered by kept cores), and whose steals make workers build
#    constraints over variables their pools created in different orders;
#  - bitcount3 with --merge --strategy bfs, and with --query-log (every
#    corpus file compared);
#  - parse2 under --strategy coverage and --strategy random;
#  - the front end's output: `adlsym model` and `adlsym lint
#    --format=json`;
#  - `adlsym lint --format=json` of the sort4 image, for the CFG and
#    image passes.
# Each tests/lint fixture is linted with --format=json too. 113 cases in
# all: 25 per ISA, 12 fixtures and the budget run below.
# One more rv32e sort4 run has a --max-wall-ms budget on a 7 us manual
# clock: it exits 3, and one query finds its deadline already spent. The
# budget is tuned to the number of clock reads, so a change in the number
# of queries, or of SAT conflicts (the core reads the clock at each one
# under a deadline), moves where it binds.
#
# Under --jobs 2 and 4 the raw event order and therefore the manifest
# hashes are schedule-dependent, so those runs compare the
# tools/events_canon form of the stream and skip the manifest.
#
# Every run executes in the same scratch work directory with relative
# artifact paths, so the argv and paths echoed into the manifests match.
#
# usage: tools/artifact_diff.sh <old-build> <new-build> <scratch-dir>
set -euo pipefail

old=${1:?usage: artifact_diff.sh <old-build> <new-build> <scratch-dir>}
new=${2:?usage: artifact_diff.sh <old-build> <new-build> <scratch-dir>}
scratch=${3:?usage: artifact_diff.sh <old-build> <new-build> <scratch-dir>}
old=$(cd "$old" && pwd)
new=$(cd "$new" && pwd)
repo=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$scratch"
scratch=$(cd "$scratch" && pwd)
rm -rf "$scratch/old" "$scratch/new" "$scratch/img" "$scratch/work" \
  "$scratch/lint"
mkdir -p "$scratch/old" "$scratch/new" "$scratch/img" "$scratch/lint"

fails=0
cases=0

# run_case <build> <side> <case> <adlsym args...>: run one command in the
# shared work directory and file its outputs under <side>/<case>.
run_case() {
  local build=$1 side=$2 name=$3
  shift 3
  local work="$scratch/work"
  rm -rf "$work"
  mkdir -p "$work"
  local rc=0
  (cd "$work" && "$build/tools/adlsym" "$@" > stdout.txt 2> stderr.txt) ||
    rc=$?
  echo "$rc" > "$work/exit.txt"
  if [ -f "$work/events.jsonl" ]; then
    "$new/tools/events_canon" "$work/events.jsonl" > "$work/events.canon" ||
      echo "events_canon failed" > "$work/events.canon"
  fi
  mv "$work" "$scratch/$side/$name"
}

# same <case> <file>...: each file must exist in both runs with equal
# bytes, or in neither.
same() {
  local name=$1
  shift
  local f a b
  for f in "$@"; do
    a="$scratch/old/$name/$f"
    b="$scratch/new/$name/$f"
    if [ ! -e "$a" ] && [ ! -e "$b" ]; then continue; fi
    if ! cmp -s "$a" "$b"; then
      echo "artifact_diff: $name: $f differs" >&2
      fails=$((fails + 1))
    fi
  done
}

# corpus <case>: the query-log files either run of the case wrote.
corpus() {
  (cd "$scratch" && find "old/$1/qlog" "new/$1/qlog" -type f 2>/dev/null |
    sed 's|^[a-z]*/[^/]*/||' | sort -u)
}

# both <case> <adlsym args...>: run the case on the old and new builds.
both() {
  local name=$1
  shift
  run_case "$old" old "$name" "$@"
  run_case "$new" new "$name" "$@"
  cases=$((cases + 1))
}

observe=(--clock=manual --stats-json=stats.json --path-forest=forest.json
         --path-dot=forest.dot --profile=profile.json
         --profile-folded=profile.folded --events=events.jsonl
         --manifest=manifest.json)
common=(stdout.txt exit.txt stats.json forest.json forest.dot profile.json
        profile.folded)

for isa in acc8 m16 rv32e stk16; do
  # The ADL front end: the loaded model and its lint report.
  both "$isa-model" model "$isa"
  same "$isa-model" stdout.txt exit.txt
  both "$isa-lint" lint "$isa" --format=json
  same "$isa-lint" stdout.txt exit.txt

  for wl in bitcount3 earlyexit4 parse2; do
    img="$scratch/img/$isa-$wl.img"
    "$new/tools/workload_img" "$wl" "$isa" > "$img"
    "$old/tools/workload_img" "$wl" "$isa" > "$img.old"
    if ! cmp -s "$img" "$img.old"; then
      echo "artifact_diff: $isa $wl: workload image differs" >&2
      fails=$((fails + 1))
    fi

    both "$isa-$wl-seq" explore "$isa" "$img" "${observe[@]}"
    same "$isa-$wl-seq" "${common[@]}" events.jsonl manifest.json
    both "$isa-$wl-j1" explore "$isa" "$img" "${observe[@]}" --jobs 1
    same "$isa-$wl-j1" "${common[@]}" events.jsonl manifest.json
    both "$isa-$wl-j2" explore "$isa" "$img" "${observe[@]}" --jobs 2
    same "$isa-$wl-j2" "${common[@]}" events.canon
  done

  img="$scratch/img/$isa-bitcount3.img"
  for mode in seq j2; do
    jobs=()
    [ "$mode" = j2 ] && jobs=(--jobs 2)
    both "$isa-profile-$mode" profile "$isa" "$img" --clock=manual \
      --stats-json=stats.json --profile=profile.json "${jobs[@]}"
    same "$isa-profile-$mode" stdout.txt exit.txt stats.json profile.json
  done

  # A step budget truncates paths: partial results and exit code 3.
  for mode in seq j1; do
    jobs=()
    [ "$mode" = j1 ] && jobs=(--jobs 1)
    both "$isa-budget-$mode" explore "$isa" "$scratch/img/$isa-parse2.img" \
      --max-steps 20 "${observe[@]}" "${jobs[@]}"
    same "$isa-budget-$mode" "${common[@]}" events.jsonl manifest.json
  done

  both "$isa-ckpt" explore "$isa" "$img" --clock=manual --jobs 1 \
    --checkpoint=run.ckpt --checkpoint-every=2 --stats-json=stats.json \
    --path-forest=forest.json --path-dot=forest.dot --events=events.jsonl \
    --manifest=manifest.json
  same "$isa-ckpt" stdout.txt exit.txt stats.json forest.json forest.dot \
    events.jsonl manifest.json run.ckpt

  # Solver-bound: sort4's branches need the SAT core. Older builds'
  # workload_img may not know sort4, so only the new build generates it.
  img="$scratch/img/$isa-sort4.img"
  "$new/tools/workload_img" sort4 "$isa" > "$img"
  both "$isa-sort4-seq" explore "$isa" "$img" "${observe[@]}"
  same "$isa-sort4-seq" "${common[@]}" events.jsonl manifest.json
  both "$isa-sort4-j1" explore "$isa" "$img" "${observe[@]}" --jobs 1
  same "$isa-sort4-j1" "${common[@]}" events.jsonl manifest.json
  for j in 2 4; do
    both "$isa-sort4-j$j" explore "$isa" "$img" "${observe[@]}" --jobs "$j"
    same "$isa-sort4-j$j" "${common[@]}" events.canon
  done
  both "$isa-lint-sort4" lint "$isa" "$img" --format=json
  same "$isa-lint-sort4" stdout.txt exit.txt

  img="$scratch/img/$isa-bitcount3.img"
  both "$isa-merge-bfs" explore "$isa" "$img" "${observe[@]}" \
    --merge --strategy bfs
  same "$isa-merge-bfs" "${common[@]}" events.jsonl manifest.json
  both "$isa-qlog" explore "$isa" "$img" "${observe[@]}" --query-log=qlog
  # shellcheck disable=SC2046  # corpus prints one path per line
  same "$isa-qlog" "${common[@]}" events.jsonl manifest.json \
    $(corpus "$isa-qlog")

  for strategy in coverage random; do
    both "$isa-parse2-$strategy" explore "$isa" \
      "$scratch/img/$isa-parse2.img" "${observe[@]}" --strategy "$strategy"
    same "$isa-parse2-$strategy" "${common[@]}" events.jsonl manifest.json
  done
done

# Every lint fixture, by a relative path so the reports' subject is the
# same wherever the repository is checked out.
cp "$repo"/tests/lint/*.adl "$scratch/lint/"
for fixture in "$scratch"/lint/*.adl; do
  name=$(basename "$fixture" .adl)
  both "lint-$name" lint "../lint/$name.adl" --format=json
  same "lint-$name" stdout.txt exit.txt
done

# The expired-deadline check: "${observe[@]:1}" drops --clock=manual for
# a clock that advances 7 us per read.
both rv32e-sort4-max-wall explore rv32e "$scratch/img/rv32e-sort4.img" \
  --clock=manual:7 --max-wall-ms 3 "${observe[@]:1}"
same rv32e-sort4-max-wall "${common[@]}" events.jsonl manifest.json

if [ "$fails" -ne 0 ]; then
  echo "artifact_diff: $fails difference(s) over $cases cases" \
       "(outputs under $scratch/old and $scratch/new)" >&2
  exit 1
fi
echo "artifact_diff: $cases cases byte-identical"
