#!/usr/bin/env bash
# Artifact byte-identity between two builds of adlsym: run the same
# explorations with both and require every artifact, stdout and exit code
# to match. This is the acceptance check for refactors that must not
# change behaviour (one engine, one observation pipeline, ...).
#
# Matrix: 4 ISAs x {bitcount3, earlyexit4, parse2} x {sequential, --jobs 1,
# --jobs 2}, all under --clock=manual, each writing --stats-json,
# --path-forest, --path-dot, --profile, --profile-folded, --events and
# --manifest; plus per ISA `adlsym profile` runs (stdout tables), a
# --max-steps budget run, one --checkpoint run and sort4 sequential and
# --jobs 1 runs, whose queries the prefilter rarely decides, so they go
# through bit-blasting and the SAT core. Under --jobs 2 the raw event
# order and therefore the manifest hashes are schedule-dependent, so those
# runs compare the tools/events_canon form of the stream and skip the
# manifest. sort4 has no --jobs 2 case: its stats are not yet stable
# across schedules (docs/parallelism.md, caveats).
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
mkdir -p "$scratch"
scratch=$(cd "$scratch" && pwd)
rm -rf "$scratch/old" "$scratch/new" "$scratch/img" "$scratch/work"
mkdir -p "$scratch/old" "$scratch/new" "$scratch/img"

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
done

if [ "$fails" -ne 0 ]; then
  echo "artifact_diff: $fails difference(s) over $cases cases" \
       "(outputs under $scratch/old and $scratch/new)" >&2
  exit 1
fi
echo "artifact_diff: $cases cases byte-identical"
