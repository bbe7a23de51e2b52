#!/usr/bin/env bash
# Result identity against a base revision.
#
# Builds the base revision and the working tree (both Release, targets
# litereconfig_run and serve_run), trains each side's model cache cold in its
# own directory, runs a fixed matrix of offline and serving configurations at
# --threads=4 on both sides, and byte-compares every output: JSON, decision
# trace, stdout, and the trained model caches. A change that must not alter
# results (a refactor or an optimisation) passes only when every file is
# identical.
#
# The caches are paired by device (models_<device>_<fingerprint>.bin). Under
# one fingerprint they must be identical too. A change that bumps the
# fingerprint (the format version in TrainConfig::Fingerprint) declares that
# the caches are retrained on purpose: each pair is reported as re-baselined,
# with the count of bytes that differ, and does not fail the run. Every
# JSON, trace and stdout file must still be identical.
#
# Usage: tools/result_identity.sh [BASE] [WORK_DIR]
#   BASE      a git revision, checked out into a temporary git worktree, or a
#             directory holding a source checkout to use as is
#             (default: HEAD~1)
#   WORK_DIR  builds, model caches and outputs (default: build-identity/ in
#             the repository; builds are reused between runs)
# JOBS sets the build parallelism (default: nproc). Exits 0 when identical.
set -euo pipefail

base=${1:-HEAD~1}
repo=$(git rev-parse --show-toplevel)
work=$(realpath -m "${2:-$repo/build-identity}")
jobs=${JOBS:-$(nproc)}
mkdir -p "$work"

if [[ -d $base ]]; then
  base_src=$(realpath "$base")
else
  base_src=$work/base-src
  git -C "$repo" worktree remove --force "$base_src" 2>/dev/null || true
  git -C "$repo" worktree add --detach "$base_src" "$base"
  trap 'git -C "$repo" worktree remove --force "$base_src"' EXIT
fi

build() {  # build <source dir> <build dir>; the log goes to <build dir>.log
  echo "== building $1"
  if ! { cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release &&
         cmake --build "$2" --target litereconfig_run serve_run -j "$jobs"; } \
       >"$2.log" 2>&1; then
    tail -n 40 "$2.log"
    exit 1
  fi
}
build "$base_src" "$work/base-build"
build "$repo" "$work/head-build"

# name|tool|flags. --json, --trace and --threads=4 are added below; approxdet
# and ssd write no decision trace.
cases=(
  "lrc_none|litereconfig_run|--protocol=litereconfig --faults=none"
  "lrc_moderate_predictive|litereconfig_run|--protocol=litereconfig --faults=moderate --predictive=1"
  "mincost_severe|litereconfig_run|--protocol=mincost --faults=severe"
  "lrc_denied_moderate_cpu|litereconfig_run|--protocol=litereconfig --faults=denied_moderate --cpu_family=1"
  "lrc_denied_nocpu|litereconfig_run|--protocol=litereconfig --faults=denied_moderate"
  "lrc_naive_severe|litereconfig_run|--protocol=litereconfig --faults=severe --degrade=0"
  "approxdet_moderate|litereconfig_run|--protocol=approxdet --faults=moderate"
  "approxdet_severe_predictive|litereconfig_run|--protocol=approxdet --lat_req=100 --faults=severe --predictive=1"
  "lrc_ramp_predictive|litereconfig_run|--protocol=litereconfig --faults=ramp --predictive=1"
  "approxdet_severe_xavier|litereconfig_run|--protocol=approxdet --device=xavier --lat_req=20 --faults=severe_xavier --predictive=1"
  "ssd_moderate|litereconfig_run|--protocol=ssd --faults=moderate"
  # A forced-feature mode: every decision extracts ResNet50 and charges it
  # against a 12 ms SLO.
  "maxresnet_tight|litereconfig_run|--protocol=maxcontent-resnet --lat_req=12 --faults=moderate"
  # The other forced feature: MobileNetV2 on most decisions, with faults.
  "maxmobile_moderate|litereconfig_run|--protocol=maxcontent-mobilenet --lat_req=100 --faults=moderate"
  "serve_64|serve_run|--streams=64"
  "serve_severe|serve_run|--streams=12 --arrival_seed=1 --interarrival=0.25 --slo=25 --frames=200 --faults=severe --fault_seed=7"
  "serve_severe_xavier|serve_run|--streams=12 --arrival_seed=1 --interarrival=0.25 --slo=25 --frames=200 --faults=severe_xavier --fault_seed=7"
  "serve_denied_cpu|serve_run|--streams=12 --arrival_seed=1 --interarrival=0.25 --slo=25 --frames=200 --faults=denied_severe --fault_seed=17 --cpu_family=1"
  # Every rung of the pressure ladder: coasts, renegotiations and evictions
  # of all three classes; with --cpu_family=1 also the demote rung.
  "serve_ladder|serve_run|--streams=200 --arrival_seed=3 --interarrival=0.5 --faults=moderate --fault_seed=5"
  "serve_ladder_cpu|serve_run|--streams=200 --arrival_seed=3 --interarrival=0.5 --faults=moderate --fault_seed=5 --cpu_family=1"
  # A long head-of-line queue under the equal-split allocator.
  "serve_queue_equalsplit|serve_run|--streams=40 --arrival_seed=6 --interarrival=0.2 --capacity=0.3 --max_streams=3 --allocator=equalsplit"
  # Admission rejections: most candidates are infeasible while the GPU is denied.
  "serve_reject_denied|serve_run|--streams=60 --arrival_seed=2 --interarrival=0.5 --faults=denied_frequent --fault_seed=2"
)

run_side() {  # run_side <base|head>
  local side=$1
  local out=$work/$side-out
  local cache=$work/$side-cache
  rm -rf "$out" "$cache"
  mkdir -p "$out" "$cache"
  for entry in "${cases[@]}"; do
    IFS='|' read -r name tool flags <<<"$entry"
    local trace="--trace=$name.trace.jsonl"
    [[ $flags == *approxdet* || $flags == *ssd* ]] && trace=""
    echo "== $side: $name"
    # Relative output paths keep the paths the tools print identical.
    # shellcheck disable=SC2086
    (cd "$out" && LITERECONFIG_CACHE_DIR=$cache "$work/$side-build/tools/$tool" \
       --threads=4 $flags --json="$name.json" $trace >"$name.stdout")
  done
  cp "$cache"/*.bin "$out"/
}
run_side base
run_side head

status=0
base_files=$(cd "$work/base-out" && ls --ignore='models_*.bin')
head_files=$(cd "$work/head-out" && ls --ignore='models_*.bin')
if [[ $base_files != "$head_files" ]]; then
  echo "DIFFERENT file sets:"
  diff <(echo "$base_files") <(echo "$head_files") || true
  status=1
fi
for f in $base_files; do
  if cmp -s "$work/base-out/$f" "$work/head-out/$f"; then
    echo "identical  $f"
  else
    echo "DIFFERENT  $f"
    status=1
  fi
done
rebaselined=0
for device in tx2 xavier; do
  base_cache=$(cd "$work/base-out" && ls models_"$device"_*.bin 2>/dev/null || true)
  head_cache=$(cd "$work/head-out" && ls models_"$device"_*.bin 2>/dev/null || true)
  if [[ $(wc -w <<<"$base_cache") -ne 1 || $(wc -w <<<"$head_cache") -ne 1 ]]; then
    echo "DIFFERENT  $device cache sets: base '$base_cache', head '$head_cache'"
    status=1
  elif [[ $base_cache == "$head_cache" ]]; then
    if cmp -s "$work/base-out/$base_cache" "$work/head-out/$head_cache"; then
      echo "identical  $base_cache"
    else
      echo "DIFFERENT  $base_cache (same fingerprint: bump the format version if the change is deliberate)"
      status=1
    fi
  else
    a=$work/base-out/$base_cache
    b=$work/head-out/$head_cache
    size_a=$(stat -c %s "$a")
    size_b=$(stat -c %s "$b")
    size=$((size_a > size_b ? size_a : size_b))
    # cmp -l lists each differing byte of the common length, and exits 1.
    listed=$(cmp -l "$a" "$b" 2>/dev/null | wc -l || true)
    differ=$((listed + size - (size_a < size_b ? size_a : size_b)))
    echo "cache re-baselined: $base_cache -> $head_cache, $differ of $size bytes differ"
    rebaselined=1
  fi
done
if [[ $status -eq 0 ]]; then
  if [[ $rebaselined -eq 1 ]]; then
    echo "result identity: every output is byte-identical to $base; the caches are re-baselined"
  else
    echo "result identity: every output is byte-identical to $base"
  fi
fi
exit $status
