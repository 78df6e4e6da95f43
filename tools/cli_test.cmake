# End-to-end smoke test of fixy_cli: generate -> info -> learn -> rank.
# Invoked by ctest with -DCLI=<path-to-binary>.
set(WORK ${CMAKE_CURRENT_BINARY_DIR}/cli_test_work)
file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

function(run_cli)
  execute_process(COMMAND ${CLI} ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "fixy_cli ${ARGN} failed (${rc}): ${out} ${err}")
  endif()
  set(CLI_OUTPUT "${out}" PARENT_SCOPE)
endfunction()

run_cli(generate --out ${WORK}/ds --profile internal --scenes 2 --seed 5)
run_cli(info --data ${WORK}/ds)
if(NOT CLI_OUTPUT MATCHES "2 scenes")
  message(FATAL_ERROR "info output missing scene count: ${CLI_OUTPUT}")
endif()
run_cli(learn --data ${WORK}/ds --model ${WORK}/model.json)
if(NOT EXISTS ${WORK}/model.json)
  message(FATAL_ERROR "learn did not write the model file")
endif()
run_cli(rank --data ${WORK}/ds --model ${WORK}/model.json --top 3 --out ${WORK}/proposals.json)
if(NOT CLI_OUTPUT MATCHES "candidates")
  message(FATAL_ERROR "rank output missing candidates: ${CLI_OUTPUT}")
endif()
if(NOT EXISTS ${WORK}/proposals.json)
  message(FATAL_ERROR "rank --out did not write the proposals file")
endif()

# ---- Multi-application ranking: --apps resolves via the registry. ----
run_cli(rank --data ${WORK}/ds --model ${WORK}/model.json --top 3
        --apps all --out ${WORK}/multi.json)
foreach(app missing-tracks missing-obs model-errors suspect-tracks)
  if(NOT CLI_OUTPUT MATCHES "== app: ${app} ==")
    message(FATAL_ERROR "--apps all output missing ${app} section: ${CLI_OUTPUT}")
  endif()
  if(NOT EXISTS ${WORK}/multi.${app}.json)
    message(FATAL_ERROR "--apps all --out did not write multi.${app}.json")
  endif()
endforeach()

# Each app's multi-run proposals must be byte-identical to its solo run.
run_cli(rank --data ${WORK}/ds --model ${WORK}/model.json --top 3
        --app model-errors --out ${WORK}/solo_me.json)
file(READ ${WORK}/solo_me.json SOLO_ME)
file(READ ${WORK}/multi.model-errors.json MULTI_ME)
if(NOT SOLO_ME STREQUAL MULTI_ME)
  message(FATAL_ERROR "model-errors proposals differ between solo and --apps all")
endif()

# The single-app proposals from the multi machinery must match the
# original rank --out file written above.
run_cli(rank --data ${WORK}/ds --model ${WORK}/model.json --top 3
        --apps missing-tracks --out ${WORK}/single_via_apps.json)
file(READ ${WORK}/proposals.json P_ORIG)
file(READ ${WORK}/single_via_apps.json P_VIA_APPS)
if(NOT P_ORIG STREQUAL P_VIA_APPS)
  message(FATAL_ERROR "--apps missing-tracks proposals differ from --app default run")
endif()

# Unknown app names fail with the registry's dynamic listing (which must
# include the user-registered demo application).
execute_process(COMMAND ${CLI} rank --data ${WORK}/ds --model ${WORK}/model.json --app frobnicate
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "rank --app frobnicate should fail")
endif()
if(NOT "${out}${err}" MATCHES "registered: .*suspect-tracks")
  message(FATAL_ERROR "unknown-app error missing registry listing: ${out}${err}")
endif()

# --app and --apps are mutually exclusive.
execute_process(COMMAND ${CLI} rank --data ${WORK}/ds --model ${WORK}/model.json
                        --app missing-tracks --apps all
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "rank with both --app and --apps should fail")
endif()

# ---- Observability: --metrics-json / --verbose-metrics. ----
run_cli(rank --data ${WORK}/ds --model ${WORK}/model.json --threads 1
        --metrics-json ${WORK}/metrics1.json)
if(NOT EXISTS ${WORK}/metrics1.json)
  message(FATAL_ERROR "rank --metrics-json did not write the metrics file")
endif()
file(READ ${WORK}/metrics1.json METRICS1)
if(NOT METRICS1 MATCHES "fixy-metrics")
  message(FATAL_ERROR "metrics file missing format marker: ${METRICS1}")
endif()
if(NOT METRICS1 MATCHES "stats\\.kde_evals")
  message(FATAL_ERROR "metrics file missing kde counter: ${METRICS1}")
endif()

# The determinism contract: the counters block must be byte-identical
# between a 1-thread and an 8-thread run of the same rank.
run_cli(rank --data ${WORK}/ds --model ${WORK}/model.json --threads 8
        --metrics-json ${WORK}/metrics8.json)
file(READ ${WORK}/metrics8.json METRICS8)
string(REGEX MATCH "\"counters\": \\{[^}]*\\}" COUNTERS1 "${METRICS1}")
string(REGEX MATCH "\"counters\": \\{[^}]*\\}" COUNTERS8 "${METRICS8}")
if(COUNTERS1 STREQUAL "")
  message(FATAL_ERROR "could not extract counters block: ${METRICS1}")
endif()
if(NOT COUNTERS1 STREQUAL COUNTERS8)
  message(FATAL_ERROR "counters differ between --threads 1 and --threads 8:\n${COUNTERS1}\nvs\n${COUNTERS8}")
endif()

run_cli(rank --data ${WORK}/ds --model ${WORK}/model.json --verbose-metrics)
if(NOT CLI_OUTPUT MATCHES "stats\\.kde_evals")
  message(FATAL_ERROR "--verbose-metrics table missing kde counter: ${CLI_OUTPUT}")
endif()

# ---- Checked numeric flags: malformed values are errors, not defaults. ----
foreach(bad_flags
        "rank;--data;${WORK}/ds;--model;${WORK}/model.json;--threads;abc"
        "rank;--data;${WORK}/ds;--model;${WORK}/model.json;--threads;9999999999"
        "rank;--data;${WORK}/ds;--model;${WORK}/model.json;--threads;-2"
        "rank;--data;${WORK}/ds;--model;${WORK}/model.json;--top;12x"
        "generate;--out;${WORK}/bad;--scenes;abc"
        "generate;--out;${WORK}/bad;--scenes;0")
  execute_process(COMMAND ${CLI} ${bad_flags}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(rc EQUAL 0)
    message(FATAL_ERROR "expected failure for: ${bad_flags}")
  endif()
endforeach()

# ---- Thread-count flags stop at the 1024-thread ceiling. ----
# One past it must fail before any work starts: no stdout, no socket, and
# (the timeout guards it) no serve or watch loop.
foreach(bad_flags
        "rank;--data;${WORK}/ds;--model;${WORK}/model.json;--threads;1025"
        "sweep;--report;${WORK}/x.json;--presets;internal-like;--threads;1025"
        "watch;--data;${WORK}/ds;--model;${WORK}/model.json;--max-cycles;1;--threads;1025"
        "serve;--socket;${WORK}/ceiling.sock;--model;${WORK}/model.json;--threads;1025"
        "serve;--socket;${WORK}/ceiling.sock;--model;${WORK}/model.json;--rank-threads;1025")
  execute_process(COMMAND ${CLI} ${bad_flags} TIMEOUT 60
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(rc EQUAL 0 OR NOT err MATCHES "threads must be <= 1024")
    message(FATAL_ERROR "thread ceiling not enforced for ${bad_flags} (${rc}): ${out}${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "${bad_flags}: wrote to stdout before rejecting: ${out}")
  endif()
endforeach()
if(EXISTS ${WORK}/ceiling.sock OR EXISTS ${WORK}/x.json)
  message(FATAL_ERROR "an over-ceiling command left its socket or report behind")
endif()

# ---- Unknown flags: each command accepts only the flags it reads. ----
# A misspelled flag used to be ignored (learn wrote the default KDE model),
# and a retired one (--workers) silently ran the default path. The command
# must stop before it starts work: no stdout, and (checked below) no file.
# The timeout keeps a `serve` that wrongly starts from hanging the test.
function(expect_unknown_flag flag command)
  execute_process(COMMAND ${CLI} ${command} ${ARGN} TIMEOUT 60
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${command} ${flag}: expected exit 2, got ${rc}: ${out}${err}")
  endif()
  if(NOT err MATCHES "unknown flag ${flag} for command '${command}'")
    message(FATAL_ERROR "${command} ${flag}: error names neither: ${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "${command} ${flag}: wrote to stdout: ${out}")
  endif()
endfunction()
expect_unknown_flag(--estimater learn --data ${WORK}/ds --model ${WORK}/typo.json
                    --estimater histogram)
expect_unknown_flag(--workers rank --data ${WORK}/ds --model ${WORK}/model.json
                    --workers 2)
expect_unknown_flag(--fail-fast rank --data ${WORK}/ds --model ${WORK}/model.json
                    --fail-fast)
expect_unknown_flag(--decode-threads rank --data ${WORK}/ds
                    --model ${WORK}/model.json --decode-threads 2)
expect_unknown_flag(--max-resident-scenes rank --data ${WORK}/ds
                    --model ${WORK}/model.json --max-resident-scenes 1)
expect_unknown_flag(--bogus info --data ${WORK}/ds --bogus 1)
if(EXISTS ${WORK}/typo.json)
  message(FATAL_ERROR "learn with an unknown flag still wrote a model")
endif()
expect_unknown_flag(--top-k rank --data ${WORK}/ds --model ${WORK}/model.json
                    --out ${WORK}/topk.json --top-k 10)
if(EXISTS ${WORK}/topk.json)
  message(FATAL_ERROR "rank with --top-k still wrote proposals")
endif()
expect_unknown_flag(--top-k serve --socket ${WORK}/topk.sock
                    --model ${WORK}/model.json --top-k 10)
if(EXISTS ${WORK}/topk.sock)
  message(FATAL_ERROR "serve with --top-k still bound its socket")
endif()

# ---- Estimators: every command that takes --estimator accepts the same
# three names and rejects anything else before it starts work. ----
foreach(bad_estimator
        "learn;--data;${WORK}/ds;--model;${WORK}/magic.json"
        "serve;--socket;${WORK}/magic.sock;--model;${WORK}/model.json")
  execute_process(COMMAND ${CLI} ${bad_estimator} --estimator magic TIMEOUT 60
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(rc EQUAL 0 OR NOT "${out}${err}" MATCHES "unknown estimator: magic")
    message(FATAL_ERROR "${bad_estimator} --estimator magic: ${rc}: ${out}${err}")
  endif()
endforeach()
foreach(artifact magic.json magic.sock)
  if(EXISTS ${WORK}/${artifact})
    message(FATAL_ERROR "--estimator magic still wrote ${artifact}")
  endif()
endforeach()

# ---- Partial-failure fixture: corrupt one scene file on disk. ----
run_cli(generate --out ${WORK}/broken --profile internal --scenes 2 --seed 7)
file(GLOB BROKEN_SCENES ${WORK}/broken/*.fixy.json)
list(SORT BROKEN_SCENES)
list(GET BROKEN_SCENES 0 FIRST_SCENE)
get_filename_component(FIRST_SCENE_NAME ${FIRST_SCENE} NAME)
string(REPLACE ".fixy.json" "" FIRST_SCENE_NAME "${FIRST_SCENE_NAME}")
file(WRITE ${FIRST_SCENE} "{this is not a scene")

# Strict rank (the default) must fail on the corrupt file.
execute_process(COMMAND ${CLI} rank --data ${WORK}/broken --model ${WORK}/model.json
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "strict rank should fail on a corrupt scene file")
endif()

# --keep-going must quarantine the corrupt scene, rank the rest, and
# exit 0.
run_cli(rank --data ${WORK}/broken --model ${WORK}/model.json --keep-going)
if(NOT CLI_OUTPUT MATCHES "FAILED ${FIRST_SCENE_NAME}: ")
  message(FATAL_ERROR "keep-going rank missing FAILED ${FIRST_SCENE_NAME}: ${CLI_OUTPUT}")
endif()
if(NOT CLI_OUTPUT MATCHES "ranked 1/2 scenes \\(1 quarantined\\)")
  message(FATAL_ERROR "keep-going rank missing summary line: ${CLI_OUTPUT}")
endif()

# With every scene corrupt, even --keep-going must exit non-zero.
foreach(scene ${BROKEN_SCENES})
  file(WRITE ${scene} "{this is not a scene")
endforeach()
execute_process(COMMAND ${CLI} rank --data ${WORK}/broken --model ${WORK}/model.json --keep-going
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "keep-going rank should fail when ALL scenes are corrupt")
endif()

# Bad invocations must fail.
execute_process(COMMAND ${CLI} frobnicate RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "unknown command should fail")
endif()
execute_process(COMMAND ${CLI} learn --data ${WORK}/nonexistent --model ${WORK}/x.json
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "learn on missing data should fail")
endif()

# ---- FXB cache workflow: cache -> auto-detect -> stale -> rebuild. ----
# (Placed after the metrics determinism checks above so those always run
# against the JSON path, cache-free.)
run_cli(cache ${WORK}/ds)
if(NOT CLI_OUTPUT MATCHES "cached 2 scenes")
  message(FATAL_ERROR "cache output missing scene count: ${CLI_OUTPUT}")
endif()
if(NOT CLI_OUTPUT MATCHES "parity verified")
  message(FATAL_ERROR "cache output missing parity confirmation: ${CLI_OUTPUT}")
endif()
if(NOT EXISTS ${WORK}/ds/dataset.fxb)
  message(FATAL_ERROR "cache did not write dataset.fxb")
endif()

# rank must auto-detect the fresh cache, and its proposals must be
# byte-identical to a --no-cache (JSON path) run.
run_cli(rank --data ${WORK}/ds --model ${WORK}/model.json --out ${WORK}/p_fxb.json)
if(NOT CLI_OUTPUT MATCHES "using cache")
  message(FATAL_ERROR "rank did not use the fresh cache: ${CLI_OUTPUT}")
endif()
run_cli(rank --data ${WORK}/ds --model ${WORK}/model.json --no-cache --out ${WORK}/p_json.json)
if(CLI_OUTPUT MATCHES "using cache")
  message(FATAL_ERROR "--no-cache still used the cache: ${CLI_OUTPUT}")
endif()
file(READ ${WORK}/p_fxb.json P_FXB)
file(READ ${WORK}/p_json.json P_JSON)
if(NOT P_FXB STREQUAL P_JSON)
  message(FATAL_ERROR "FXB-path proposals differ from JSON-path proposals")
endif()

# The cache-hit run records io.fxb.cache_hits.
run_cli(rank --data ${WORK}/ds --model ${WORK}/model.json
        --metrics-json ${WORK}/metrics_fxb.json)
file(READ ${WORK}/metrics_fxb.json METRICS_FXB)
if(NOT METRICS_FXB MATCHES "io\\.fxb\\.cache_hits")
  message(FATAL_ERROR "cache-hit metrics missing io.fxb.cache_hits: ${METRICS_FXB}")
endif()

# Touching a source file makes the cache stale: rank must say so, fall
# back to JSON, and still succeed; re-caching restores the fast path.
file(GLOB DS_SCENES ${WORK}/ds/*.fixy.json)
list(GET DS_SCENES 0 DS_FIRST)
file(APPEND ${DS_FIRST} "\n")
run_cli(rank --data ${WORK}/ds --model ${WORK}/model.json)
if(NOT CLI_OUTPUT MATCHES "stale")
  message(FATAL_ERROR "rank on a stale cache missing staleness notice: ${CLI_OUTPUT}")
endif()
# One refresh hint, and it names the directory to refresh.
string(REGEX MATCHALL "fixy_cli cache" STALE_HINTS "${CLI_OUTPUT}")
list(LENGTH STALE_HINTS STALE_HINT_COUNT)
if(NOT STALE_HINT_COUNT EQUAL 1)
  message(FATAL_ERROR "stale notice has ${STALE_HINT_COUNT} refresh hints, not 1: ${CLI_OUTPUT}")
endif()
string(FIND "${CLI_OUTPUT}" "fixy_cli cache ${WORK}/ds`" STALE_HINT_AT)
if(STALE_HINT_AT EQUAL -1)
  message(FATAL_ERROR "stale notice's refresh hint does not name the directory: ${CLI_OUTPUT}")
endif()
if(CLI_OUTPUT MATCHES "using cache")
  message(FATAL_ERROR "rank used a stale cache: ${CLI_OUTPUT}")
endif()
run_cli(cache ${WORK}/ds)
run_cli(rank --data ${WORK}/ds --model ${WORK}/model.json)
if(NOT CLI_OUTPUT MATCHES "using cache")
  message(FATAL_ERROR "rank did not use the rebuilt cache: ${CLI_OUTPUT}")
endif()

# ---- Incremental cache refresh: one staleness reason per change kind. ----
run_cli(generate --out ${WORK}/inc --profile internal --scenes 3 --seed 11)
run_cli(learn --data ${WORK}/inc --model ${WORK}/inc_model.json)
run_cli(cache ${WORK}/inc)
if(NOT CLI_OUTPUT MATCHES "cache status: no cache yet")
  message(FATAL_ERROR "first cache run missing no-cache status: ${CLI_OUTPUT}")
endif()

# Fresh cache: repeated runs are no-ops.
run_cli(cache ${WORK}/inc)
if(NOT CLI_OUTPUT MATCHES "is fresh \\(3 scenes\\); nothing to do")
  message(FATAL_ERROR "fresh cache was not a no-op: ${CLI_OUTPUT}")
endif()

file(GLOB INC_SCENES ${WORK}/inc/*.fixy.json)
list(SORT INC_SCENES)
list(GET INC_SCENES 0 INC_A)
list(GET INC_SCENES 1 INC_B)
list(GET INC_SCENES 2 INC_C)

# mtime-only touch: reported as modified, but the checksum fallback
# proves the content unchanged and every section is reused.
file(TOUCH ${INC_A})
run_cli(cache ${WORK}/inc)
if(NOT CLI_OUTPUT MATCHES "was modified \\(mtime changed\\)")
  message(FATAL_ERROR "mtime touch not reported: ${CLI_OUTPUT}")
endif()
if(NOT CLI_OUTPUT MATCHES "3 reused, 0 re-encoded, 0 dropped")
  message(FATAL_ERROR "mtime-only touch should reuse all sections: ${CLI_OUTPUT}")
endif()

# Size change: only the grown scene re-encodes.
file(APPEND ${INC_B} "\n")
run_cli(cache ${WORK}/inc)
if(NOT CLI_OUTPUT MATCHES "changed size \\(")
  message(FATAL_ERROR "size change not reported: ${CLI_OUTPUT}")
endif()
if(NOT CLI_OUTPUT MATCHES "2 reused, 1 re-encoded, 0 dropped")
  message(FATAL_ERROR "size change should re-encode one section: ${CLI_OUTPUT}")
endif()

# Removal: drop the last scene from the manifest; its section is dropped.
get_filename_component(INC_C_NAME ${INC_C} NAME)
file(READ ${WORK}/inc/manifest.json INC_MANIFEST)
string(REPLACE ",\n    \"${INC_C_NAME}\"" "" INC_MANIFEST_2 "${INC_MANIFEST}")
if(INC_MANIFEST_2 STREQUAL INC_MANIFEST)
  message(FATAL_ERROR "test bug: could not remove ${INC_C_NAME} from manifest")
endif()
file(WRITE ${WORK}/inc/manifest.json "${INC_MANIFEST_2}")
run_cli(cache ${WORK}/inc)
if(NOT CLI_OUTPUT MATCHES "removed since the build: ${INC_C_NAME}")
  message(FATAL_ERROR "removal not reported: ${CLI_OUTPUT}")
endif()
if(NOT CLI_OUTPUT MATCHES "cached 2 scenes .*2 reused, 0 re-encoded, 1 dropped")
  message(FATAL_ERROR "removal should drop one section: ${CLI_OUTPUT}")
endif()

# Addition: restore the manifest; the scene file is still on disk, so it
# comes back as "added" and re-encodes.
file(WRITE ${WORK}/inc/manifest.json "${INC_MANIFEST}")
run_cli(cache ${WORK}/inc)
if(NOT CLI_OUTPUT MATCHES "added since the build: ${INC_C_NAME}")
  message(FATAL_ERROR "addition not reported: ${CLI_OUTPUT}")
endif()
if(NOT CLI_OUTPUT MATCHES "cached 3 scenes .*2 reused, 1 re-encoded, 0 dropped")
  message(FATAL_ERROR "addition should re-encode one section: ${CLI_OUTPUT}")
endif()

# The refreshed cache ranks byte-identically to the JSON path.
run_cli(rank --data ${WORK}/inc --model ${WORK}/inc_model.json --out ${WORK}/inc_fxb.json)
if(NOT CLI_OUTPUT MATCHES "using cache")
  message(FATAL_ERROR "rank did not use the refreshed cache: ${CLI_OUTPUT}")
endif()
run_cli(rank --data ${WORK}/inc --model ${WORK}/inc_model.json --no-cache
        --out ${WORK}/inc_json.json)
file(READ ${WORK}/inc_fxb.json INC_P_FXB)
file(READ ${WORK}/inc_json.json INC_P_JSON)
if(NOT INC_P_FXB STREQUAL INC_P_JSON)
  message(FATAL_ERROR "refreshed-cache proposals differ from JSON path")
endif()

# The stat pass's blind spot: a same-size rewrite with a restored mtime
# looks fresh to `cache`, but `cache --verify` checksums every source,
# reports the lie, and re-encodes only that scene, byte-identically to a
# from-scratch build. Needs POSIX cp/touch to backdate.
find_program(TOUCH_EXE touch)
find_program(CP_EXE cp)
if(TOUCH_EXE AND CP_EXE)
  execute_process(COMMAND ${CP_EXE} -p ${INC_A} ${WORK}/inc_a.ref
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cp -p failed")
  endif()
  # Flip one digit of a box coordinate in place: same size, new bytes.
  file(READ ${INC_A} INC_A_TEXT)
  string(REGEX REPLACE "(\"cx\":[0-9]+\\.[0-9]*)3" "\\14" INC_A_LIED
         "${INC_A_TEXT}")
  if(INC_A_LIED STREQUAL INC_A_TEXT)
    string(REGEX REPLACE "(\"cx\":[0-9]+\\.[0-9]*)1" "\\12" INC_A_LIED
           "${INC_A_TEXT}")
  endif()
  if(INC_A_LIED STREQUAL INC_A_TEXT)
    message(FATAL_ERROR "test bug: no digit to flip in ${INC_A}")
  endif()
  file(WRITE ${INC_A} "${INC_A_LIED}")
  execute_process(COMMAND ${TOUCH_EXE} -r ${WORK}/inc_a.ref ${INC_A}
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "touch -r failed")
  endif()
  run_cli(cache ${WORK}/inc)
  if(NOT CLI_OUTPUT MATCHES "is fresh")
    message(FATAL_ERROR "stat-only cache should miss the backdated edit: ${CLI_OUTPUT}")
  endif()
  run_cli(cache ${WORK}/inc --verify)
  if(NOT CLI_OUTPUT MATCHES "different checksum")
    message(FATAL_ERROR "cache --verify missed the backdated edit: ${CLI_OUTPUT}")
  endif()
  if(NOT CLI_OUTPUT MATCHES "1 re-encoded")
    message(FATAL_ERROR "cache --verify did not re-encode the edited scene: ${CLI_OUTPUT}")
  endif()
  run_cli(cache ${WORK}/inc --verify)
  if(NOT CLI_OUTPUT MATCHES "is fresh")
    message(FATAL_ERROR "cache --verify update did not converge: ${CLI_OUTPUT}")
  endif()
  file(RENAME ${WORK}/inc/dataset.fxb ${WORK}/inc_verified.fxb)
  run_cli(cache ${WORK}/inc)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                  ${WORK}/inc/dataset.fxb ${WORK}/inc_verified.fxb
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cache --verify update differs from a from-scratch build")
  endif()
endif()

# ---- watch: bounded smoke run over a quiet dataset. ----
run_cli(watch --data ${WORK}/inc --model ${WORK}/inc_model.json
        --interval-ms 0 --max-cycles 2 --metrics-json ${WORK}/watch_metrics.json)
if(NOT CLI_OUTPUT MATCHES "watch: stopped after 2 cycles")
  message(FATAL_ERROR "watch did not stop after --max-cycles: ${CLI_OUTPUT}")
endif()
file(READ ${WORK}/watch_metrics.json WATCH_METRICS)
if(NOT WATCH_METRICS MATCHES "watch\\.cycles")
  message(FATAL_ERROR "watch metrics missing watch.cycles: ${WATCH_METRICS}")
endif()

# ---- A cache rejected at open falls back to JSON, like a stale one. ----
# Junk longer than the 40-byte header fails the magic check; rank says why
# it is not using the cache and ranks the JSON files, as fixyd does.
run_cli(generate --out ${WORK}/bad_magic --profile internal --scenes 2 --seed 5)
string(REPEAT "not an fxb file " 16 BAD_MAGIC_JUNK)
file(WRITE ${WORK}/bad_magic/dataset.fxb "${BAD_MAGIC_JUNK}")
run_cli(rank --data ${WORK}/bad_magic --model ${WORK}/model.json
        --out ${WORK}/bad_magic_rank.json)
if(NOT CLI_OUTPUT MATCHES "stale \\([^)]*bad magic")
  message(FATAL_ERROR "rank on a bad-magic cache missing the stale notice: ${CLI_OUTPUT}")
endif()
if(CLI_OUTPUT MATCHES "using cache")
  message(FATAL_ERROR "rank used a bad-magic cache: ${CLI_OUTPUT}")
endif()
run_cli(rank --data ${WORK}/bad_magic --model ${WORK}/model.json --no-cache
        --out ${WORK}/bad_magic_json.json)
if(CLI_OUTPUT MATCHES "stale")
  message(FATAL_ERROR "--no-cache still inspected the cache: ${CLI_OUTPUT}")
endif()
file(READ ${WORK}/bad_magic_rank.json BAD_MAGIC_RANK)
file(READ ${WORK}/bad_magic_json.json BAD_MAGIC_JSON)
if(NOT BAD_MAGIC_RANK STREQUAL BAD_MAGIC_JSON)
  message(FATAL_ERROR "bad-magic fallback proposals differ from --no-cache")
endif()

# ---- Distinct, clearly-worded errors for bad dataset directories. ----
execute_process(COMMAND ${CLI} rank --data ${WORK}/does_not_exist --model ${WORK}/model.json
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "rank on a missing directory should fail")
endif()
if(NOT "${out}${err}" MATCHES "does not exist")
  message(FATAL_ERROR "missing-directory error not distinct: ${out}${err}")
endif()

file(MAKE_DIRECTORY ${WORK}/empty_dir)
execute_process(COMMAND ${CLI} rank --data ${WORK}/empty_dir --model ${WORK}/model.json
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "rank on a non-dataset directory should fail")
endif()
if(NOT "${out}${err}" MATCHES "no manifest.json")
  message(FATAL_ERROR "non-dataset-directory error not distinct: ${out}${err}")
endif()

file(MAKE_DIRECTORY ${WORK}/zero_scenes)
file(WRITE ${WORK}/zero_scenes/manifest.json
     "{\"format\": \"fixy-dataset\", \"version\": 1, \"name\": \"zero\", \"scenes\": []}")
execute_process(COMMAND ${CLI} rank --data ${WORK}/zero_scenes --model ${WORK}/model.json
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "rank on a zero-scene dataset should fail")
endif()
if(NOT "${out}${err}" MATCHES "contains no scenes")
  message(FATAL_ERROR "zero-scene error not distinct: ${out}${err}")
endif()

# cache itself gets the same distinct errors.
execute_process(COMMAND ${CLI} cache ${WORK}/does_not_exist
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "cache on a missing directory should fail")
endif()
if(NOT "${out}${err}" MATCHES "does not exist")
  message(FATAL_ERROR "cache missing-directory error not distinct: ${out}${err}")
endif()

# ---- Scenario-driven sim: presets, spec files, legacy parity. ----
run_cli(sim --list-presets)
foreach(preset lyft-like internal-like parking-lot night-low-recall)
  if(NOT CLI_OUTPUT MATCHES "${preset}")
    message(FATAL_ERROR "sim --list-presets missing ${preset}: ${CLI_OUTPUT}")
  endif()
endforeach()

run_cli(sim --out ${WORK}/sim_ds --preset internal-like --scenes 2 --seed 5 --fxb)
if(NOT CLI_OUTPUT MATCHES "wrote 2 scenes")
  message(FATAL_ERROR "sim output missing scene count: ${CLI_OUTPUT}")
endif()
foreach(artifact dataset.fxb gt_ledger.json scenario.lock.json manifest.json)
  if(NOT EXISTS ${WORK}/sim_ds/${artifact})
    message(FATAL_ERROR "sim --fxb did not write ${artifact}")
  endif()
endforeach()

# The preset-driven dataset must be byte-identical to the legacy
# hard-coded profile for the same seed (fresh generate: the ${WORK}/ds
# fixture had a scene mutated by the staleness test above).
run_cli(generate --out ${WORK}/legacy_ds --profile internal --scenes 2 --seed 5)
file(GLOB SIM_SCENES RELATIVE ${WORK}/sim_ds ${WORK}/sim_ds/*.fixy.json)
list(LENGTH SIM_SCENES SIM_SCENE_COUNT)
if(NOT SIM_SCENE_COUNT EQUAL 2)
  message(FATAL_ERROR "sim wrote ${SIM_SCENE_COUNT} scene files, expected 2")
endif()
foreach(scene ${SIM_SCENES})
  file(READ ${WORK}/sim_ds/${scene} SIM_SCENE)
  file(READ ${WORK}/legacy_ds/${scene} LEGACY_SCENE)
  if(NOT SIM_SCENE STREQUAL LEGACY_SCENE)
    message(FATAL_ERROR "sim --preset internal-like ${scene} differs from legacy generate")
  endif()
endforeach()

# The sim dataset ranks end-to-end through its direct-built FXB cache.
run_cli(rank --data ${WORK}/sim_ds --model ${WORK}/model.json --top 3)
if(NOT CLI_OUTPUT MATCHES "using cache")
  message(FATAL_ERROR "rank did not use sim's direct-built cache: ${CLI_OUTPUT}")
endif()

# A scenario spec file drives sim too; a malformed one fails naming the
# offending path, and --preset/--scenario are mutually exclusive.
file(WRITE ${WORK}/custom.scenario.json
     "{\"name\": \"custom\", \"scenes\": 1, \"world\": {\"duration_seconds\": 6.0, \"mean_object_count\": 10.0}}")
run_cli(sim --out ${WORK}/custom_ds --scenario ${WORK}/custom.scenario.json)
if(NOT CLI_OUTPUT MATCHES "wrote 1 scenes .*custom")
  message(FATAL_ERROR "sim --scenario output unexpected: ${CLI_OUTPUT}")
endif()
file(WRITE ${WORK}/bad.scenario.json "{\"name\": \"bad\", \"world\": {\"duration_seconds\": -1}}")
execute_process(COMMAND ${CLI} sim --out ${WORK}/bad_ds --scenario ${WORK}/bad.scenario.json
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "sim on a malformed scenario should fail")
endif()
if(NOT "${out}${err}" MATCHES "scenario.world.duration_seconds")
  message(FATAL_ERROR "scenario validation error missing field path: ${out}${err}")
endif()
execute_process(COMMAND ${CLI} sim --out ${WORK}/x --preset lyft-like
                --scenario ${WORK}/custom.scenario.json
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "sim with both --preset and --scenario should fail")
endif()

# sim numeric flags are checked like rank's.
foreach(bad_flags
        "sim;--out;${WORK}/x;--preset;lyft-like;--scenes;abc"
        "sim;--out;${WORK}/x;--preset;lyft-like;--seed;1.5"
        "sim;--out;${WORK}/x;--preset;lyft-like;--scenes;-3")
  execute_process(COMMAND ${CLI} ${bad_flags}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(rc EQUAL 0)
    message(FATAL_ERROR "expected failure for: ${bad_flags}")
  endif()
endforeach()

# ---- Sweep: small grid, cached re-run parity, metrics-diff. ----
run_cli(sweep --report ${WORK}/sweep_a.json --presets internal-like
        --apps missing-tracks,model-errors --scenes 2 --top 5
        --cache-dir ${WORK}/sweep_cache)
if(NOT CLI_OUTPUT MATCHES "wrote sweep report \\(2 cells\\)")
  message(FATAL_ERROR "sweep summary missing cell count: ${CLI_OUTPUT}")
endif()
if(NOT CLI_OUTPUT MATCHES "p@5")
  message(FATAL_ERROR "sweep table missing precision column: ${CLI_OUTPUT}")
endif()
file(READ ${WORK}/sweep_a.json SWEEP_A)
if(NOT SWEEP_A MATCHES "fixy-sweep")
  message(FATAL_ERROR "sweep report missing format marker: ${SWEEP_A}")
endif()

# Re-running the same grid (reusing the cache) is byte-identical, and the
# diff against the first report is clean; --diff-only compares two saved
# reports without running.
run_cli(sweep --report ${WORK}/sweep_b.json --presets internal-like
        --apps missing-tracks,model-errors --scenes 2 --top 5
        --cache-dir ${WORK}/sweep_cache --baseline ${WORK}/sweep_a.json
        --fail-on-regression)
if(NOT CLI_OUTPUT MATCHES "no differences \\(2 cells compared\\)")
  message(FATAL_ERROR "repeat sweep diff not clean: ${CLI_OUTPUT}")
endif()
file(READ ${WORK}/sweep_b.json SWEEP_B)
if(NOT SWEEP_A STREQUAL SWEEP_B)
  message(FATAL_ERROR "cached sweep re-run is not byte-identical")
endif()
run_cli(sweep --diff-only --baseline ${WORK}/sweep_a.json --report ${WORK}/sweep_b.json)
if(NOT CLI_OUTPUT MATCHES "no differences")
  message(FATAL_ERROR "sweep --diff-only unexpected output: ${CLI_OUTPUT}")
endif()

# A doctored baseline (more hits than reality) must trip
# --fail-on-regression in --diff-only mode.
string(REGEX REPLACE "\"hits\": [0-9]+" "\"hits\": 999"
       SWEEP_DOCTORED "${SWEEP_A}")
file(WRITE ${WORK}/sweep_doctored.json "${SWEEP_DOCTORED}")
execute_process(COMMAND ${CLI} sweep --diff-only
                --baseline ${WORK}/sweep_doctored.json
                --report ${WORK}/sweep_b.json --fail-on-regression
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "sweep --fail-on-regression should fail on a doctored baseline")
endif()
if(NOT "${out}${err}" MATCHES "REGRESSED")
  message(FATAL_ERROR "regression diff missing REGRESSED marker: ${out}${err}")
endif()

# sweep numeric and selection flags are checked.
foreach(bad_flags
        "sweep;--report;${WORK}/x.json;--presets;internal-like;--top;abc"
        "sweep;--report;${WORK}/x.json;--presets;internal-like;--threads;-2"
        "sweep;--report;${WORK}/x.json;--presets;frobnicate"
        "sweep;--report;${WORK}/x.json;--presets;internal-like;--estimator;magic")
  execute_process(COMMAND ${CLI} ${bad_flags}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(rc EQUAL 0)
    message(FATAL_ERROR "expected failure for: ${bad_flags}")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK})
