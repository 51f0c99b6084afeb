# End-to-end check of the fleet-telemetry CLI surfaces (ctest -P script).
#
# Drives `extractocol` over two healthy corpus apps plus a poisoned input
# and asserts:
#
#   * --run-manifest writes the JSON ledger: schema tag, one record per
#     input (the poisoned one as an "error" outcome), fleet aggregates;
#   * --metrics-prom writes Prometheus text exposition with sanitized
#     (dot-free) names;
#   * --progress reports on stderr only — stdout is byte-identical with and
#     without it;
#   * --memtrack at --jobs 1 attributes a non-zero per-app peak_bytes
#     (skipped with a warning on libcs without malloc_usable_size);
#   * --profile --run-manifest puts every site and method row in the
#     manifest's "profile" block, and the --profile table of a budget-cut
#     run is the same at --jobs 1 and 4;
#   * a warm --cache-dir --progress batch counts hits as done and ends on
#     N/N apps;
#   * --metrics over two inputs prints one section per app and the process
#     registry once.
#
# Expected definitions: EXTRACTOCOL, MAKE_CORPUS, WORK_DIR.

foreach(var EXTRACTOCOL MAKE_CORPUS WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
  COMMAND "${MAKE_CORPUS}" "${WORK_DIR}/corpus"
  RESULT_VARIABLE corpus_rc
  OUTPUT_QUIET)
if(NOT corpus_rc EQUAL 0)
  message(FATAL_ERROR "make_corpus failed: ${corpus_rc}")
endif()

set(healthy_a "${WORK_DIR}/corpus/blippex.xapk")
set(healthy_b "${WORK_DIR}/corpus/ifixit.xapk")
file(WRITE "${WORK_DIR}/poisoned.xapk" "not an xapk at all\n")
set(inputs "${healthy_a}" "${WORK_DIR}/poisoned.xapk" "${healthy_b}")

set(manifest "${WORK_DIR}/manifest.json")
set(prom "${WORK_DIR}/metrics.prom")

execute_process(
  COMMAND "${EXTRACTOCOL}" --jobs 2 --progress
          --run-manifest "${manifest}" --metrics-prom "${prom}" ${inputs}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE with_progress_out
  ERROR_VARIABLE with_progress_err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "batch with a poisoned input must exit 1, got ${rc}")
endif()

# --- run manifest ----------------------------------------------------------
if(NOT EXISTS "${manifest}")
  message(FATAL_ERROR "--run-manifest did not write ${manifest}")
endif()
file(READ "${manifest}" manifest_text)
# Schema v1-or-v2 compat: consumers of this ledger key off the prefix; v2
# only adds optional "accuracy" blocks.
if(NOT manifest_text MATCHES "extractocol\\.run_manifest/v[12]")
  message(FATAL_ERROR "run manifest missing schema tag:\n${manifest_text}")
endif()
foreach(needle
    "\"fleet\""
    "\"apps_per_second\""
    "\"latency_ms\""
    "\"outcome\": \"error\""
    "poisoned.xapk"
    "blippex.xapk"
    "ifixit.xapk")
  string(FIND "${manifest_text}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "run manifest missing ${needle}:\n${manifest_text}")
  endif()
endforeach()

# --- prometheus export -----------------------------------------------------
if(NOT EXISTS "${prom}")
  message(FATAL_ERROR "--metrics-prom did not write ${prom}")
endif()
file(READ "${prom}" prom_text)
string(FIND "${prom_text}" "# TYPE" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "prometheus export has no TYPE lines:\n${prom_text}")
endif()
# The poisoned input guarantees this counter; its name must be sanitized.
string(FIND "${prom_text}" "isolation_contained_errors 1" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "expected sanitized counter sample:\n${prom_text}")
endif()
string(FIND "${prom_text}" "isolation.contained_errors" pos)
if(NOT pos EQUAL -1)
  message(FATAL_ERROR "dotted name leaked into the prometheus export")
endif()

# --- --progress: stderr only, stdout untouched -----------------------------
string(FIND "${with_progress_err}" "apps, ETA" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "--progress must report on stderr:\n${with_progress_err}")
endif()
execute_process(
  COMMAND "${EXTRACTOCOL}" --jobs 2 ${inputs}
  RESULT_VARIABLE rc_plain
  OUTPUT_VARIABLE plain_out
  ERROR_QUIET)
if(NOT rc_plain EQUAL 1)
  message(FATAL_ERROR "plain batch exit code diverged: ${rc_plain}")
endif()
if(NOT plain_out STREQUAL with_progress_out)
  message(FATAL_ERROR "--progress changed stdout")
endif()

# --- --memtrack: per-app peak attribution at --jobs 1 ----------------------
execute_process(
  COMMAND "${EXTRACTOCOL}" --jobs 1 --memtrack
          --run-manifest "${WORK_DIR}/manifest_mem.json" ${inputs}
  RESULT_VARIABLE rc_mem
  OUTPUT_QUIET
  ERROR_VARIABLE mem_err)
if(NOT rc_mem EQUAL 1)
  message(FATAL_ERROR "--memtrack batch exit code diverged: ${rc_mem}")
endif()
string(FIND "${mem_err}" "--memtrack unavailable" pos)
if(NOT pos EQUAL -1)
  message(STATUS "cli telemetry: memtrack unavailable here, peak check skipped")
else()
  file(READ "${WORK_DIR}/manifest_mem.json" mem_manifest)
  if(NOT mem_manifest MATCHES "\"peak_bytes\": [1-9]")
    message(FATAL_ERROR "expected a non-zero peak_bytes record:\n${mem_manifest}")
  endif()
endif()

# --- --eval: schema v2 accuracy blocks in the manifest ---------------------
set(manifest_eval "${WORK_DIR}/manifest_eval.json")
set(eval_sidecar "${WORK_DIR}/eval.json")
execute_process(
  COMMAND "${EXTRACTOCOL}" --jobs 2 --eval --eval-out "${eval_sidecar}"
          --run-manifest "${manifest_eval}" ${inputs}
  RESULT_VARIABLE rc_eval
  OUTPUT_QUIET
  ERROR_VARIABLE eval_err)
if(NOT rc_eval EQUAL 1)
  message(FATAL_ERROR "--eval batch exit code diverged: ${rc_eval}")
endif()
string(FIND "${eval_err}" "Accuracy observatory" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "--eval must print the accuracy table on stderr:\n${eval_err}")
endif()
file(READ "${manifest_eval}" eval_manifest)
if(NOT eval_manifest MATCHES "extractocol\\.run_manifest/v2")
  message(FATAL_ERROR "--eval manifest must carry schema v2:\n${eval_manifest}")
endif()
foreach(needle
    "\"accuracy\""
    "\"recall\""
    "\"uri_exactness\""
    "\"gt_endpoints\"")
  string(FIND "${eval_manifest}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "--eval manifest missing ${needle}:\n${eval_manifest}")
  endif()
endforeach()
# The poisoned input resolves to no corpus app, so it rides as unscored.
string(FIND "${eval_manifest}" "\"scored\": false" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "poisoned input must appear unscored:\n${eval_manifest}")
endif()
if(NOT EXISTS "${eval_sidecar}")
  message(FATAL_ERROR "--eval-out did not write ${eval_sidecar}")
endif()
file(READ "${eval_sidecar}" eval_text)
foreach(needle "extractocol.eval/v1" "\"fleet\"" "\"triage\"" "\"counts\"")
  string(FIND "${eval_text}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "eval sidecar missing ${needle}:\n${eval_text}")
  endif()
endforeach()

# --- --profile: every row in the manifest, stable under a budget cut -------
set(manifest_profile "${WORK_DIR}/manifest_profile.json")
execute_process(
  COMMAND "${EXTRACTOCOL}" --jobs 2 --profile --run-manifest "${manifest_profile}"
          "${healthy_a}" "${healthy_b}"
  RESULT_VARIABLE rc_profile
  OUTPUT_QUIET
  ERROR_VARIABLE profile_err)
if(NOT rc_profile EQUAL 0)
  message(FATAL_ERROR "--profile batch must exit 0, got ${rc_profile}:\n${profile_err}")
endif()
string(FIND "${profile_err}" "profile: hot DP sites" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "--profile must print the hot table on stderr:\n${profile_err}")
endif()
file(READ "${manifest_profile}" profile_manifest)
foreach(rows sites methods)
  string(JSON row_count ERROR_VARIABLE json_err LENGTH "${profile_manifest}" profile ${rows})
  if(json_err OR row_count EQUAL 0)
    message(FATAL_ERROR "manifest profile block has no ${rows} rows (${json_err}):\n"
                        "${profile_manifest}")
  endif()
endforeach()

set(kayak "${WORK_DIR}/corpus/kayak.xapk")
foreach(jobs 1 4)
  execute_process(
    COMMAND "${EXTRACTOCOL}" --profile --max-steps 800 --jobs ${jobs} "${kayak}"
    RESULT_VARIABLE rc_budget
    OUTPUT_QUIET
    ERROR_VARIABLE budget_err_${jobs})
  if(NOT rc_budget EQUAL 0)
    message(FATAL_ERROR "budget-cut --profile run must exit 0, got ${rc_budget}")
  endif()
endforeach()
string(FIND "${budget_err_1}" "profile: hot DP sites" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "budget-cut run printed no profile table:\n${budget_err_1}")
endif()
if(NOT budget_err_1 STREQUAL budget_err_4)
  message(FATAL_ERROR "budget-cut --profile stderr differs between --jobs 1 and 4:\n"
                      "${budget_err_1}\n--- vs ---\n${budget_err_4}")
endif()

# --- --progress over a warm cache: hits count as done ----------------------
set(progress_cache "${WORK_DIR}/progress_cache")
execute_process(
  COMMAND "${EXTRACTOCOL}" --jobs 2 --cache-dir "${progress_cache}" ${inputs}
  RESULT_VARIABLE rc_prime
  OUTPUT_QUIET
  ERROR_QUIET)
if(NOT rc_prime EQUAL 1)
  message(FATAL_ERROR "cache-priming batch exit code diverged: ${rc_prime}")
endif()
# Two hits plus the poisoned input, which is never cached and re-analyzes.
execute_process(
  COMMAND "${EXTRACTOCOL}" --jobs 2 --cache-dir "${progress_cache}" --progress ${inputs}
  RESULT_VARIABLE rc_warm
  OUTPUT_QUIET
  ERROR_VARIABLE warm_err)
if(NOT rc_warm EQUAL 1)
  message(FATAL_ERROR "warm batch exit code diverged: ${rc_warm}")
endif()
string(REGEX MATCHALL "[0-9]+/[0-9]+ apps" progress_counts "${warm_err}")
if(NOT progress_counts)
  message(FATAL_ERROR "warm --progress drew no count:\n${warm_err}")
endif()
list(GET progress_counts -1 last_count)
if(NOT last_count STREQUAL "3/3 apps")
  message(FATAL_ERROR "warm --progress must end on 3/3 apps, ended on '${last_count}':\n"
                      "${warm_err}")
endif()

# --- --metrics: per-app sections, one registry table -----------------------
execute_process(
  COMMAND "${EXTRACTOCOL}" --metrics "${healthy_a}" "${healthy_b}"
  RESULT_VARIABLE rc_metrics
  OUTPUT_QUIET
  ERROR_VARIABLE metrics_err)
if(NOT rc_metrics EQUAL 0)
  message(FATAL_ERROR "--metrics batch must exit 0, got ${rc_metrics}")
endif()
string(REGEX MATCHALL "-- phases --" phase_sections "${metrics_err}")
string(REGEX MATCHALL "-- registry --" registry_tables "${metrics_err}")
list(LENGTH phase_sections phase_count)
list(LENGTH registry_tables registry_count)
if(NOT phase_count EQUAL 2 OR NOT registry_count EQUAL 1)
  message(FATAL_ERROR "--metrics over two apps must print 2 phase sections and 1 "
                      "registry table, got ${phase_count} and ${registry_count}")
endif()

message(STATUS "cli telemetry: all checks passed")
