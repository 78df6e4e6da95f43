#!/usr/bin/env bash
# Full verification sweep: the plain tier-1 build + test run, then the
# same suite under AddressSanitizer, ThreadSanitizer, and UBSan (separate
# build trees; the FIXY_SANITIZE CMake option instruments every target).
#
# Usage:
#   tools/check.sh            # plain + asan + tsan + ubsan + metrics
#                             # + cache + multiapp + daemon
#                             # + incremental + sweep
#   tools/check.sh plain      # just the tier-1 build/test
#   tools/check.sh address    # just the asan build/test
#   tools/check.sh thread     # just the tsan build/test
#   tools/check.sh undefined  # just the ubsan build/test
#   tools/check.sh metrics    # end-to-end metrics sweep: every value
#                             # finite/non-negative, counters identical
#                             # across thread counts, batch.threads
#                             # capped at the scene count, schema key set
#                             # matches tools/metrics_schema.golden
#   tools/check.sh cache      # FXB cache sweep: JSON-vs-FXB proposal
#                             # parity (byte-identical), cache-hit metrics
#                             # vs the golden key set, and the streaming,
#                             # CRC-32 and JSON tests under asan + tsan
#                             # (the cache's bytes come from both)
#   tools/check.sh multiapp   # multi-application sweep: rank --apps all
#                             # proposals byte-identical to per-app solo
#                             # runs, one track build per scene (not per
#                             # app), per-app metrics keys vs the golden,
#                             # and the multiapp tests under asan + tsan
#   tools/check.sh daemon     # fixyd sweep: start a resident daemon, check
#                             # CLI-vs-daemon proposal parity (byte-identical),
#                             # hammer it with 8 concurrent query clients,
#                             # verify graceful shutdown unlinks the socket,
#                             # then the daemon concurrency/corruption suites
#                             # under plain + asan builds
#   tools/check.sh sweep      # scenario sweep: validator rejections name
#                             # the offending field, the generate alias
#                             # byte-identical to sim --preset, a
#                             # 2x3 scenario-x-app grid byte-identical at
#                             # any --threads, metrics-diff + regression
#                             # gate smoke, and the scenario suites under
#                             # plain + asan builds
#   tools/check.sh incremental # incremental-ingestion sweep: 1-scene edit
#                             # cache update byte-identical to a rebuild,
#                             # a corrupt cached section re-encoded (not
#                             # copied) with the same result,
#                             # watch --learn-labels fold byte-identical to
#                             # a full refit, watch smoke with a live edit,
#                             # and the randomized parity/merge suites
#
# Performance is measured by `python3 fixybench/run.py` (see
# fixybench/README.md), not by this script.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

run_suite() {
  local name="$1" build_dir="$2"
  shift 2
  echo "==== ${name}: configure + build (${build_dir}) ===="
  cmake -B "${build_dir}" -S . "$@"
  cmake --build "${build_dir}" -j "${JOBS}"
  echo "==== ${name}: ctest ===="
  (cd "${build_dir}" && ctest --output-on-failure -j "${JOBS}")
  echo "==== ${name}: OK ===="
}

run_metrics_sweep() {
  echo "==== metrics: build fixy_cli ===="
  cmake -B build -S .
  cmake --build build -j "${JOBS}" --target fixy_cli
  local cli="build/tools/fixy_cli"
  [ -x "${cli}" ] || cli="$(find build -name fixy_cli -type f | head -1)"
  local work
  work="$(mktemp -d)"
  trap 'rm -rf "${work}"' RETURN

  echo "==== metrics: generate + learn + rank --metrics-json ===="
  "${cli}" generate --out "${work}/ds" --profile lyft --scenes 4 --seed 11
  "${cli}" learn --data "${work}/ds" --model "${work}/model.json"
  "${cli}" rank --data "${work}/ds" --model "${work}/model.json" \
      --threads 1 --metrics-json "${work}/metrics1.json" > /dev/null
  "${cli}" rank --data "${work}/ds" --model "${work}/model.json" \
      --threads 8 --metrics-json "${work}/metrics8.json" > /dev/null

  if ! command -v python3 > /dev/null; then
    echo "==== metrics: python3 not found, skipping validation ===="
    return 0
  fi
  echo "==== metrics: validate snapshots ===="
  python3 - "${work}/metrics1.json" "${work}/metrics8.json" \
      tools/metrics_schema.golden <<'PYEOF'
import json, math, sys

m1_path, m8_path, golden_path = sys.argv[1:4]
with open(m1_path) as f:
    m1 = json.load(f)
with open(m8_path) as f:
    m8 = json.load(f)

def fail(msg):
    sys.exit("metrics sweep FAILED: " + msg)

for path, doc in ((m1_path, m1), (m8_path, m8)):
    if doc.get("format") != "fixy-metrics" or doc.get("version") != 1:
        fail(f"{path}: bad format/version header")
    for section in ("counters", "timers_ms", "gauges"):
        for name, value in doc[section].items():
            if not math.isfinite(value):
                fail(f"{path}: {section}/{name} is not finite: {value}")
            if section != "gauges" and value < 0:
                fail(f"{path}: {section}/{name} is negative: {value}")

# Counters are exact event counts: identical at any thread count.
if m1["counters"] != m8["counters"]:
    fail("counters differ between --threads 1 and --threads 8")

# The rank loop starts no more workers than scenes: 8 asked, 4 scenes.
for doc, expected in ((m1, 1), (m8, 4)):
    threads = doc["gauges"].get("batch.threads")
    if threads != expected:
        fail(f"gauges/batch.threads reads {threads}, expected {expected}")

# Schema drift is an explicit change: the key set must match the golden.
keys = sorted(
    f"{section}/{name}"
    for section in ("counters", "timers_ms", "gauges")
    for name in m1[section]
)
with open(golden_path) as f:
    golden = [line.strip() for line in f
              if line.strip() and not line.startswith("#")]
if keys != golden:
    missing = sorted(set(golden) - set(keys))
    extra = sorted(set(keys) - set(golden))
    fail(f"schema drift vs {golden_path}: missing={missing} extra={extra}\n"
         "(regenerate the golden file if the change is intentional)")
print("metrics sweep OK:", len(keys), "metrics validated")
PYEOF
  echo "==== metrics: OK ===="
}

run_cache_sweep() {
  echo "==== cache: build fixy_cli ===="
  cmake -B build -S .
  cmake --build build -j "${JOBS}" --target fixy_cli
  local cli="build/tools/fixy_cli"
  [ -x "${cli}" ] || cli="$(find build -name fixy_cli -type f | head -1)"
  local work
  work="$(mktemp -d)"
  trap 'rm -rf "${work}"' RETURN

  echo "==== cache: JSON-vs-FXB proposal parity ===="
  "${cli}" generate --out "${work}/ds" --profile lyft --scenes 4 --seed 11
  "${cli}" learn --data "${work}/ds" --model "${work}/model.json"
  "${cli}" rank --data "${work}/ds" --model "${work}/model.json" \
      --no-cache --out "${work}/p_json.json" > /dev/null
  "${cli}" cache "${work}/ds" > /dev/null
  "${cli}" rank --data "${work}/ds" --model "${work}/model.json" \
      --out "${work}/p_fxb.json" \
      --metrics-json "${work}/metrics_fxb.json" | tee "${work}/rank.out"
  grep -q "using cache" "${work}/rank.out" \
      || { echo "cache sweep FAILED: rank did not use the cache" >&2; return 1; }
  cmp "${work}/p_json.json" "${work}/p_fxb.json" \
      || { echo "cache sweep FAILED: FXB proposals differ from JSON" >&2; return 1; }

  if command -v python3 > /dev/null; then
    echo "==== cache: validate cache-hit metrics ===="
    python3 - "${work}/metrics_fxb.json" tools/metrics_schema.golden <<'PYEOF'
import json, sys

metrics_path, golden_path = sys.argv[1:3]
with open(metrics_path) as f:
    doc = json.load(f)

def fail(msg):
    sys.exit("cache sweep FAILED: " + msg)

keys = sorted(
    f"{section}/{name}"
    for section in ("counters", "timers_ms", "gauges")
    for name in doc[section]
)
with open(golden_path) as f:
    golden = [line.strip() for line in f
              if line.strip() and not line.startswith("#")]
if keys != golden:
    missing = sorted(set(golden) - set(keys))
    extra = sorted(set(keys) - set(golden))
    fail(f"cache-hit schema drift: missing={missing} extra={extra}")

counters = doc["counters"]
if counters.get("io.fxb.cache_hits") != 1:
    fail(f"expected io.fxb.cache_hits == 1, got {counters.get('io.fxb.cache_hits')}")
if counters.get("io.fxb.scenes_decoded") != 4:
    fail(f"expected io.fxb.scenes_decoded == 4, got {counters.get('io.fxb.scenes_decoded')}")
if counters.get("io.fxb.checksum_failures") != 0:
    fail(f"expected io.fxb.checksum_failures == 0, got {counters.get('io.fxb.checksum_failures')}")
print("cache-hit metrics OK:", len(keys), "keys")
PYEOF
  else
    echo "==== cache: python3 not found, skipping metrics validation ===="
  fi

  echo "==== cache: streaming, CRC-32 and JSON tests under asan + tsan ===="
  # Every binary the regex reaches is built, so a reused tree never runs
  # a stale one and a fresh tree skips none.
  local san tests_re="Fxb|Crc32|Streaming|Binary|ChecksumFlip|Json"
  for san in address thread; do
    local dir="build-${san:0:1}san"  # build-asan / build-tsan
    cmake -B "${dir}" -S . -DFIXY_SANITIZE="${san}"
    cmake --build "${dir}" -j "${JOBS}" \
        --target fxb_test batch_test common_test fault_injection_test io_test \
        json_test core_test daemon_test multiapp_test obs_test scenario_test
    (cd "${dir}" && ctest --output-on-failure -j "${JOBS}" -R "${tests_re}")
  done
  echo "==== cache: OK ===="
}

run_multiapp_sweep() {
  echo "==== multiapp: build fixy_cli ===="
  cmake -B build -S .
  cmake --build build -j "${JOBS}" --target fixy_cli
  local cli="build/tools/fixy_cli"
  [ -x "${cli}" ] || cli="$(find build -name fixy_cli -type f | head -1)"
  local work
  work="$(mktemp -d)"
  trap 'rm -rf "${work}"' RETURN

  echo "==== multiapp: rank --apps all vs per-app solo runs ===="
  "${cli}" generate --out "${work}/ds" --profile lyft --scenes 4 --seed 11
  "${cli}" learn --data "${work}/ds" --model "${work}/model.json"
  local apps="missing-tracks missing-obs model-errors suspect-tracks"
  local app
  for app in ${apps}; do
    "${cli}" rank --data "${work}/ds" --model "${work}/model.json" \
        --app "${app}" --out "${work}/solo_${app}.json" > /dev/null
  done
  "${cli}" rank --data "${work}/ds" --model "${work}/model.json" \
      --apps all --out "${work}/multi.json" \
      --metrics-json "${work}/metrics_multi.json" > /dev/null
  for app in ${apps}; do
    cmp "${work}/solo_${app}.json" "${work}/multi.${app}.json" \
        || { echo "multiapp sweep FAILED: ${app} proposals differ from solo" >&2
             return 1; }
  done

  if command -v python3 > /dev/null; then
    echo "==== multiapp: validate shared-pass metrics ===="
    python3 - "${work}/metrics_multi.json" tools/metrics_schema.golden <<'PYEOF'
import json, sys

metrics_path, golden_path = sys.argv[1:3]
with open(metrics_path) as f:
    doc = json.load(f)

def fail(msg):
    sys.exit("multiapp sweep FAILED: " + msg)

keys = sorted(
    f"{section}/{name}"
    for section in ("counters", "timers_ms", "gauges")
    for name in doc[section]
)
with open(golden_path) as f:
    golden = [line.strip() for line in f
              if line.strip() and not line.startswith("#")]
if keys != golden:
    missing = sorted(set(golden) - set(keys))
    extra = sorted(set(keys) - set(golden))
    fail(f"multi-app schema drift: missing={missing} extra={extra}")

counters = doc["counters"]
# The tentpole invariant: association runs once per SCENE, shared by every
# application, so track builds equal the scene count — not scenes * apps.
if counters.get("rank.track_builds") != 4:
    fail(f"expected rank.track_builds == 4 (one per scene), got "
         f"{counters.get('rank.track_builds')}")
apps = ["missing-tracks", "missing-obs", "model-errors", "suspect-tracks"]
for app in apps:
    for key in (f"rank.{app}.factors", f"rank.{app}.proposals"):
        if counters.get(key, 0) <= 0:
            fail(f"expected {key} > 0 in an --apps all run, got "
                 f"{counters.get(key)}")
print("multi-app metrics OK: one track build per scene,",
      len(apps), "apps ranked")
PYEOF
  else
    echo "==== multiapp: python3 not found, skipping metrics validation ===="
  fi

  echo "==== multiapp: multiapp tests under asan + tsan ===="
  # The regex also reaches FeatureRegistryTest (model_io_test) and
  # Presets.RegistryOrderAndLookup (scenario_test).
  local san tests_re="MultiApp|Registry|ScenePass"
  for san in address thread; do
    local dir="build-${san:0:1}san"  # build-asan / build-tsan
    cmake -B "${dir}" -S . -DFIXY_SANITIZE="${san}"
    cmake --build "${dir}" -j "${JOBS}" \
        --target multiapp_test model_io_test scenario_test
    (cd "${dir}" && ctest --output-on-failure -j "${JOBS}" -R "${tests_re}")
  done
  echo "==== multiapp: OK ===="
}

run_daemon_sweep() {
  echo "==== daemon: build fixy_cli + the suites' binaries ===="
  cmake -B build -S .
  cmake --build build -j "${JOBS}" --target fixy_cli daemon_test common_test
  local cli="build/tools/fixy_cli"
  [ -x "${cli}" ] || cli="$(find build -name fixy_cli -type f | head -1)"
  local work
  work="$(mktemp -d)"
  # The daemon must not outlive the sweep even on failure. `|| true`: once
  # the daemon has exited the kill fails, and errexit applies in traps.
  trap 'kill "${serve_pid:-}" 2>/dev/null || true; rm -rf "${work}"' RETURN

  echo "==== daemon: generate + learn + start fixyd ===="
  "${cli}" generate --out "${work}/ds" --profile lyft --scenes 4 --seed 11
  "${cli}" learn --data "${work}/ds" --model "${work}/model.json"
  local socket="${work}/fixyd.sock"
  "${cli}" serve --socket "${socket}" --model "${work}/model.json" \
      --threads 4 > "${work}/serve.log" 2>&1 &
  local serve_pid=$!
  local i
  for i in $(seq 1 100); do
    grep -q "fixyd serving" "${work}/serve.log" 2>/dev/null && break
    kill -0 "${serve_pid}" 2>/dev/null \
        || { echo "daemon sweep FAILED: fixyd died at startup" >&2
             cat "${work}/serve.log" >&2; return 1; }
    sleep 0.1
  done

  echo "==== daemon: CLI-vs-daemon proposal parity ===="
  local apps="missing-tracks missing-obs model-errors suspect-tracks"
  "${cli}" rank --data "${work}/ds" --model "${work}/model.json" \
      --apps all --out "${work}/cli.json" > /dev/null
  "${cli}" query --socket "${socket}" --cmd rank-dataset \
      --data "${work}/ds" --apps all --out "${work}/dq.json" > /dev/null
  local app
  for app in ${apps}; do
    cmp "${work}/cli.${app}.json" "${work}/dq.${app}.json" \
        || { echo "daemon sweep FAILED: ${app} proposals differ between" \
                  "one-shot CLI and resident daemon" >&2; return 1; }
  done

  echo "==== daemon: 8 concurrent query clients ===="
  local pids=() c
  for c in $(seq 1 8); do
    if [ $((c % 2)) -eq 0 ]; then
      "${cli}" query --socket "${socket}" --cmd rank-dataset \
          --data "${work}/ds" --app model-errors \
          --out "${work}/conc_${c}.json" > /dev/null &
    else
      "${cli}" query --socket "${socket}" --cmd status > /dev/null &
    fi
    pids+=($!)
  done
  local pid failed=0
  for pid in "${pids[@]}"; do
    wait "${pid}" || failed=1
  done
  [ "${failed}" -eq 0 ] \
      || { echo "daemon sweep FAILED: a concurrent client failed" >&2
           return 1; }
  for c in 2 4 6 8; do
    cmp "${work}/cli.model-errors.json" "${work}/conc_${c}.json" \
        || { echo "daemon sweep FAILED: concurrent client ${c} proposals" \
                  "differ" >&2; return 1; }
  done

  echo "==== daemon: graceful shutdown ===="
  "${cli}" query --socket "${socket}" --cmd shutdown > /dev/null
  wait "${serve_pid}" \
      || { echo "daemon sweep FAILED: fixyd exited non-zero" >&2; return 1; }
  serve_pid=""
  [ ! -e "${socket}" ] \
      || { echo "daemon sweep FAILED: socket not unlinked on shutdown" >&2
           return 1; }

  echo "==== daemon: concurrency + corruption suites (plain + asan) ===="
  local tests_re="Daemon|Process"
  (cd build && ctest --output-on-failure -j "${JOBS}" -R "${tests_re}")
  cmake -B build-asan -S . -DFIXY_SANITIZE=address
  cmake --build build-asan -j "${JOBS}" --target daemon_test common_test
  (cd build-asan && ctest --output-on-failure -j "${JOBS}" -R "${tests_re}")
  echo "==== daemon: OK ===="
}

run_incremental_sweep() {
  echo "==== incremental: build fixy_cli ===="
  cmake -B build -S .
  cmake --build build -j "${JOBS}" --target fixy_cli incremental_test
  local cli="build/tools/fixy_cli"
  [ -x "${cli}" ] || cli="$(find build -name fixy_cli -type f | head -1)"
  local work
  work="$(mktemp -d)"
  trap 'rm -rf "${work}"' RETURN

  echo "==== incremental: edit -> update vs rebuild byte parity ===="
  "${cli}" generate --out "${work}/ds" --profile lyft --scenes 6 --seed 23
  "${cli}" cache "${work}/ds" > /dev/null
  local scene
  scene="$(ls "${work}/ds" | grep '\.fixy\.json$' | head -1)"
  # Rewrite one scene in place, refresh the cache incrementally, and
  # compare against a from-scratch build of the same sources.
  printf '\n' >> "${work}/ds/${scene}"
  "${cli}" cache "${work}/ds" | grep -q "1 re-encoded" \
      || { echo "incremental sweep FAILED: cache update did not re-encode" >&2
           return 1; }
  cp "${work}/ds/dataset.fxb" "${work}/updated.fxb"
  rm "${work}/ds/dataset.fxb"
  "${cli}" cache "${work}/ds" > /dev/null
  cmp "${work}/ds/dataset.fxb" "${work}/updated.fxb" \
      || { echo "incremental sweep FAILED: updated cache differs from a" \
                "fresh rebuild" >&2; return 1; }

  echo "==== incremental: corrupt section -> re-encoded, not copied ===="
  # Flip one byte inside the first scene section of the fresh cache. Its
  # sources are unchanged, so only the section's CRC check can keep the
  # update from writing the damaged bytes into the new file.
  python3 - "${work}/ds/dataset.fxb" <<'EOF'
import struct, sys
path = sys.argv[1]
blob = bytearray(open(path, "rb").read())
index_offset = struct.unpack_from("<Q", blob, 16)[0]
offset, length = struct.unpack_from("<QQ", blob, index_offset)
blob[offset + length // 2] ^= 0x08
open(path, "wb").write(blob)
EOF
  "${cli}" cache "${work}/ds" | grep -q "1 re-encoded" \
      || { echo "incremental sweep FAILED: the corrupt section was not" \
                "re-encoded" >&2; return 1; }
  cp "${work}/ds/dataset.fxb" "${work}/updated.fxb"
  rm "${work}/ds/dataset.fxb"
  "${cli}" cache "${work}/ds" > /dev/null
  cmp "${work}/ds/dataset.fxb" "${work}/updated.fxb" \
      || { echo "incremental sweep FAILED: cache updated over a corrupt" \
                "section differs from a fresh rebuild" >&2; return 1; }

  echo "==== incremental: merge vs refit model parity ===="
  # Learn + cache the 4-scene head, add two more scenes WHILE watch
  # --learn-labels is running (bootstrap never folds — only live updates
  # do), and compare the folded model against one full learn over all 6.
  "${cli}" generate --out "${work}/head" --profile lyft --scenes 4 --seed 31
  "${cli}" generate --out "${work}/more" --profile lyft --scenes 6 --seed 31
  "${cli}" learn --data "${work}/head" --model "${work}/folded.json"
  "${cli}" cache "${work}/head" > /dev/null
  "${cli}" watch --data "${work}/head" --model "${work}/folded.json" \
      --learn-labels --interval-ms 50 > "${work}/watch.log" 2>&1 &
  local watch_pid=$!
  trap 'kill "${watch_pid}" 2>/dev/null; rm -rf "${work}"' RETURN
  local i
  for i in $(seq 1 100); do
    # The bootstrap cycle ranks every head scene; its last line marks it.
    grep -q "lyft_like_3 \[suspect-tracks\]" "${work}/watch.log" && break
    kill -0 "${watch_pid}" 2>/dev/null \
        || { echo "incremental sweep FAILED: watch died at bootstrap" >&2
             cat "${work}/watch.log" >&2; return 1; }
    sleep 0.1
  done
  local extra
  for extra in $(ls "${work}/more" | grep '\.fixy\.json$' | tail -2); do
    cp "${work}/more/${extra}" "${work}/head/${extra}"
  done
  python3 - "${work}/head/manifest.json" <<'EOF'
import json, sys
path = sys.argv[1]
doc = json.load(open(path))
doc["scenes"] += ["lyft_like_4.fixy.json", "lyft_like_5.fixy.json"]
json.dump(doc, open(path, "w"), indent=2)
EOF
  for i in $(seq 1 200); do
    # Wait until every added scene has been folded in (one or two folds,
    # depending on how the poll interleaves with the manifest edit).
    local folded_total
    # `|| true` swallows grep's no-match status (pipefail would otherwise
    # fail the whole assignment before any fold happened).
    folded_total="$(grep -o "folded [0-9]* scene" "${work}/watch.log" \
        | awk '{s += $2} END {print s + 0}' || true)"
    [ "${folded_total}" -ge 2 ] && break
    kill -0 "${watch_pid}" 2>/dev/null \
        || { echo "incremental sweep FAILED: watch died mid-fold" >&2
             cat "${work}/watch.log" >&2; return 1; }
    sleep 0.1
  done
  kill -INT "${watch_pid}"
  wait "${watch_pid}" \
      || { echo "incremental sweep FAILED: watch exited non-zero" >&2
           cat "${work}/watch.log" >&2; return 1; }
  trap 'rm -rf "${work}"' RETURN
  grep -q "watch: folded" "${work}/watch.log" \
      || { echo "incremental sweep FAILED: watch never folded the added" \
                "scenes" >&2; cat "${work}/watch.log" >&2; return 1; }
  "${cli}" learn --data "${work}/head" --model "${work}/refit.json"
  cmp "${work}/folded.json" "${work}/refit.json" \
      || { echo "incremental sweep FAILED: folded model differs from a" \
                "full refit" >&2; return 1; }

  echo "==== incremental: watch smoke with a live edit ===="
  "${cli}" learn --data "${work}/ds" --model "${work}/watch_model.json"
  printf '\n' >> "${work}/ds/${scene}"
  "${cli}" watch --data "${work}/ds" --model "${work}/watch_model.json" \
      --interval-ms 0 --max-cycles 2 --metrics-json "${work}/watch.json" \
      > "${work}/smoke.log"
  grep -q "watch: stopped after 2 cycles" "${work}/smoke.log" \
      || { echo "incremental sweep FAILED: watch did not run its cycles" >&2
           cat "${work}/smoke.log" >&2; return 1; }
  grep -q '"watch.cycles"' "${work}/watch.json" \
      || { echo "incremental sweep FAILED: watch metrics missing" >&2
           return 1; }

  echo "==== incremental: randomized parity + merge suites ===="
  (cd build && ctest --output-on-failure -j "${JOBS}" \
      -R "Incremental|MergeRefit|SufficientStats|Watch")
  echo "==== incremental: OK ===="
}

run_scenario_sweep() {
  echo "==== sweep: build fixy_cli + scenario_test + incremental_test ===="
  cmake -B build -S .
  # `Sweep` also reaches WatchTest.SurvivesSeededCorruptionSweep.
  cmake --build build -j "${JOBS}" \
      --target fixy_cli scenario_test incremental_test
  local cli="build/tools/fixy_cli"
  [ -x "${cli}" ] || cli="$(find build -name fixy_cli -type f | head -1)"
  local work
  work="$(mktemp -d)"
  trap 'rm -rf "${work}"' RETURN

  echo "==== sweep: scenario validator rejects with field paths ===="
  cat > "${work}/bad_key.scenario.json" <<'EOF'
{"name": "bad", "wrold": {}}
EOF
  cat > "${work}/bad_enum.scenario.json" <<'EOF'
{"name": "bad", "detector": {"calibration": "sometimes"}}
EOF
  if "${cli}" sim --out "${work}/bad_ds" \
      --scenario "${work}/bad_key.scenario.json" > "${work}/bad.log" 2>&1; then
    echo "sweep FAILED: malformed scenario was accepted" >&2
    return 1
  fi
  grep -q "wrold" "${work}/bad.log" \
      || { echo "sweep FAILED: validator error does not name the unknown" \
                "field" >&2; cat "${work}/bad.log" >&2; return 1; }
  if "${cli}" sim --out "${work}/bad_ds" \
      --scenario "${work}/bad_enum.scenario.json" > "${work}/bad.log" 2>&1; then
    echo "sweep FAILED: bad enum value was accepted" >&2
    return 1
  fi
  grep -q "valid values: calibrated, uncalibrated" "${work}/bad.log" \
      || { echo "sweep FAILED: enum error does not list valid values" >&2
           cat "${work}/bad.log" >&2; return 1; }

  echo "==== sweep: the generate alias is byte-identical to sim --preset ===="
  "${cli}" generate --out "${work}/legacy" --profile lyft --scenes 3 --seed 9
  "${cli}" sim --out "${work}/preset" --preset lyft-like --scenes 3 --seed 9 \
      > /dev/null
  local scene
  for scene in $(ls "${work}/legacy" | grep '\.fixy\.json$'); do
    cmp "${work}/legacy/${scene}" "${work}/preset/${scene}" \
        || { echo "sweep FAILED: sim --preset lyft-like ${scene} differs" \
                  "from generate --profile lyft" >&2; return 1; }
  done

  echo "==== sweep: 2x3 grid, byte-identical at any thread count ===="
  local grid="lyft-like,internal-like"
  local apps="missing-tracks,missing-obs,model-errors"
  "${cli}" sweep --report "${work}/report_t1.json" \
      --presets "${grid}" --apps "${apps}" --scenes 2 --top 5 --threads 1 \
      --cache-dir "${work}/cache" > "${work}/sweep_t1.log"
  "${cli}" sweep --report "${work}/report_t4.json" \
      --presets "${grid}" --apps "${apps}" --scenes 2 --top 5 --threads 4 \
      --cache-dir "${work}/cache" > /dev/null
  cmp "${work}/report_t1.json" "${work}/report_t4.json" \
      || { echo "sweep FAILED: reports differ between --threads 1 and 4" >&2
           return 1; }
  grep -q "p@5" "${work}/sweep_t1.log" \
      || { echo "sweep FAILED: per-cell table missing from output" >&2
           cat "${work}/sweep_t1.log" >&2; return 1; }
  grep -q "wrote sweep report (6 cells)" "${work}/sweep_t1.log" \
      || { echo "sweep FAILED: expected 6 cells in the 2x3 grid" >&2
           cat "${work}/sweep_t1.log" >&2; return 1; }

  echo "==== sweep: metrics-diff between two runs ===="
  "${cli}" sweep --diff-only --baseline "${work}/report_t1.json" \
      --report "${work}/report_t4.json" > "${work}/diff.log"
  grep -q "no differences (6 cells compared)" "${work}/diff.log" \
      || { echo "sweep FAILED: identical reports did not diff clean" >&2
           cat "${work}/diff.log" >&2; return 1; }
  # A doctored baseline (inflated hit counts) must trip the regression gate.
  sed 's/"hits": [0-9]*/"hits": 999/' "${work}/report_t1.json" \
      > "${work}/doctored.json"
  if "${cli}" sweep --diff-only --baseline "${work}/doctored.json" \
      --report "${work}/report_t4.json" --fail-on-regression \
      > "${work}/regress.log" 2>&1; then
    echo "sweep FAILED: --fail-on-regression passed a doctored baseline" >&2
    return 1
  fi
  grep -q "REGRESSED" "${work}/regress.log" \
      || { echo "sweep FAILED: regression diff missing REGRESSED rows" >&2
           cat "${work}/regress.log" >&2; return 1; }

  echo "==== sweep: scenario suites (plain + asan) ===="
  local tests_re="SpecValidator|SpecRoundTrip|Presets|Materialize|DropoutWindows|LedgerIo|Sweep|CellDiff"
  (cd build && ctest --output-on-failure -j "${JOBS}" -R "${tests_re}")
  cmake -B build-asan -S . -DFIXY_SANITIZE=address
  cmake --build build-asan -j "${JOBS}" \
      --target scenario_test fixy_cli incremental_test
  (cd build-asan && ctest --output-on-failure -j "${JOBS}" -R "${tests_re}")
  echo "==== sweep: OK ===="
}

mode="${1:-all}"
case "${mode}" in
  plain)
    run_suite "plain" build ;;
  address)
    run_suite "asan" build-asan -DFIXY_SANITIZE=address ;;
  thread)
    run_suite "tsan" build-tsan -DFIXY_SANITIZE=thread ;;
  undefined)
    run_suite "ubsan" build-ubsan -DFIXY_SANITIZE=undefined ;;
  metrics)
    run_metrics_sweep ;;
  cache)
    run_cache_sweep ;;
  multiapp)
    run_multiapp_sweep ;;
  daemon)
    run_daemon_sweep ;;
  incremental)
    run_incremental_sweep ;;
  sweep)
    run_scenario_sweep ;;
  all)
    run_suite "plain" build
    run_suite "asan" build-asan -DFIXY_SANITIZE=address
    run_suite "tsan" build-tsan -DFIXY_SANITIZE=thread
    run_suite "ubsan" build-ubsan -DFIXY_SANITIZE=undefined
    run_metrics_sweep
    run_cache_sweep
    run_multiapp_sweep
    run_daemon_sweep
    run_incremental_sweep
    run_scenario_sweep ;;
  *)
    echo "usage: $0 [plain|address|thread|undefined|metrics|cache|multiapp|daemon|incremental|sweep|all]" >&2
    exit 2 ;;
esac
echo "all requested suites passed"
