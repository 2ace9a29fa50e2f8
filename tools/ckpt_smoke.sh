#!/usr/bin/env bash
# Kill/resume byte-identity smoke (docs/robustness.md): crash a
# checkpointed exploration at a deterministic point (--inject=ckpt.write),
# resume from the surviving checkpoint with identical flags, and require
# every final artifact to match the uninterrupted run — stats, path
# forest, canonicalized event stream, stdout and the final checkpoint
# itself — on every shipped ISA at -j1 and -j8. Also checks that the
# checkpoint *content* is byte-identical across jobs counts.
#
# Two cases per ISA and jobs count:
#  - bitcount3, killed at the second checkpoint write: the surviving
#    checkpoint is taken before any path constraint exists;
#  - sort4, killed at the fourth write of a 40-step cadence: the
#    surviving frontier is deep in the comparator network, so each
#    resumed state must bring its carried witness along, or it solves
#    both sides of its next branch and every artifact moves. Its final
#    checkpoint is compared between runs without --events: with them,
#    the checkpoint records the raw stream's byte offset, and the raw
#    `snapshot` events differ after a resume (docs/robustness.md).
#
# usage: tools/ckpt_smoke.sh <build-dir> <scratch-dir>
set -euo pipefail

build=${1:?usage: ckpt_smoke.sh <build-dir> <scratch-dir>}
scratch=${2:?usage: ckpt_smoke.sh <build-dir> <scratch-dir>}
adlsym="$build/tools/adlsym"
canon="$build/tools/events_canon"
wimg="$build/tools/workload_img"
mkdir -p "$scratch"

for isa in acc8 m16 rv32e stk16; do
  "$wimg" bitcount3 "$isa" > "$scratch/$isa.img"
  for j in 1 8; do
    d="$scratch/$isa-j$j"
    mkdir -p "$d"
    run() {
      local tag=$1
      shift
      "$adlsym" explore "$isa" "$scratch/$isa.img" \
        --clock=manual --jobs "$j" --checkpoint-every=2 \
        --checkpoint="$d/$tag.ckpt" \
        --stats-json="$d/$tag-stats.json" \
        --path-forest="$d/$tag-forest.json" \
        --events="$d/$tag-events.jsonl" \
        "$@" > "$d/$tag-out.txt"
    }

    # Uninterrupted reference run.
    run ref

    # Kill: the second checkpoint write faults (exit 4) *before* its
    # temp file exists, so the first barrier's checkpoint survives.
    rc=0
    run kill --inject=ckpt.write:2 || rc=$?
    test "$rc" -eq 4 || {
      echo "ckpt_smoke: $isa -j$j: expected exit 4 from the injected" \
           "crash, got $rc" >&2
      exit 1
    }

    # Resume from the survivor with identical flags: the finished run's
    # artifacts must be byte-identical to the uninterrupted reference.
    run kill "--resume=$d/kill.ckpt"
    cmp "$d/ref-stats.json" "$d/kill-stats.json"
    cmp "$d/ref-forest.json" "$d/kill-forest.json"
    cmp "$d/ref-out.txt" "$d/kill-out.txt"
    cmp "$d/ref.ckpt" "$d/kill.ckpt"
    "$canon" "$d/ref-events.jsonl" > "$d/ref-events-canon.jsonl"
    "$canon" "$d/kill-events.jsonl" > "$d/kill-events-canon.jsonl"
    cmp "$d/ref-events-canon.jsonl" "$d/kill-events-canon.jsonl"
    echo "ckpt_smoke: $isa -j$j OK"
  done
  # Level-barrier checkpoints are schedule-independent snapshots: the
  # final checkpoint bytes must match across jobs counts too.
  cmp "$scratch/$isa-j1/ref.ckpt" "$scratch/$isa-j8/ref.ckpt"

  # Late kill: sort4, crashed with a constrained frontier checkpointed.
  # Each variant (with and without --events) runs the reference, the
  # crash and the resume.
  "$wimg" sort4 "$isa" > "$scratch/$isa-sort4.img"
  for j in 1 8; do
    d="$scratch/$isa-sort4-j$j"
    mkdir -p "$d"
    late() {
      local variant=$1 tag=$2
      shift 2
      local ev=()
      [ "$variant" = events ] && ev=("--events=$d/$variant-$tag-events.jsonl")
      "$adlsym" explore "$isa" "$scratch/$isa-sort4.img" \
        --clock=manual --jobs "$j" --checkpoint-every=40 \
        --checkpoint="$d/$variant-$tag.ckpt" \
        --stats-json="$d/$variant-$tag-stats.json" \
        --path-forest="$d/$variant-$tag-forest.json" \
        ${ev[@]+"${ev[@]}"} "$@" > "$d/$variant-$tag-out.txt"
    }
    for variant in events plain; do
      late "$variant" ref
      rc=0
      late "$variant" kill --inject=ckpt.write:4 || rc=$?
      test "$rc" -eq 4 || {
        echo "ckpt_smoke: $isa sort4 -j$j ($variant): expected exit 4" \
             "from the injected crash, got $rc" >&2
        exit 1
      }
      late "$variant" kill "--resume=$d/$variant-kill.ckpt"
      cmp "$d/$variant-ref-stats.json" "$d/$variant-kill-stats.json"
      cmp "$d/$variant-ref-forest.json" "$d/$variant-kill-forest.json"
      cmp "$d/$variant-ref-out.txt" "$d/$variant-kill-out.txt"
    done
    "$canon" "$d/events-ref-events.jsonl" > "$d/ref-events-canon.jsonl"
    "$canon" "$d/events-kill-events.jsonl" > "$d/kill-events-canon.jsonl"
    cmp "$d/ref-events-canon.jsonl" "$d/kill-events-canon.jsonl"
    cmp "$d/plain-ref.ckpt" "$d/plain-kill.ckpt"
    echo "ckpt_smoke: $isa sort4 -j$j OK"
  done
  cmp "$scratch/$isa-sort4-j1/plain-ref.ckpt" \
      "$scratch/$isa-sort4-j8/plain-ref.ckpt"
done
echo "ckpt_smoke: all ISAs OK"
