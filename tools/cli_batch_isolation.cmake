# End-to-end check of the CLI's per-app fault isolation (ctest -P script).
#
# Drives `extractocol` in batch mode over two healthy corpus apps with one
# poisoned .xapk in the middle and asserts the contract from DESIGN.md §10:
#
#   * the process exits non-zero (a batch with any failed input fails);
#   * the failed input becomes a per-file error entry — `error:` line in the
#     text report, `"error"` member in the --json array — while both healthy
#     apps still get complete reports;
#   * text and --json stdout are byte-identical at --jobs 1/2/8 (error
#     entries included);
#   * --fail-fast truncates the output after the first failed input;
#   * an app's --audit "Top unmodeled APIs" table is the same alone, in a
#     batch, and cold or warm through --cache-dir, and a warm batch's
#     "(all inputs)" aggregate equals the cold one.
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
foreach(f IN LISTS healthy_a healthy_b)
  if(NOT EXISTS "${f}")
    message(FATAL_ERROR "expected corpus file missing: ${f}")
  endif()
endforeach()

# Numeric overflow in a method header: exercises the guarded u32 parse that
# used to escape as a std::stoul exception.
file(WRITE "${WORK_DIR}/poisoned.xapk"
  "xapk 1\napp \"poisoned\"\nclass com.p.C\n"
  "method go 1 99999999999999999999999 void\n")

set(inputs "${healthy_a}" "${WORK_DIR}/poisoned.xapk" "${healthy_b}")

# --- text mode: exit 1, per-file error entry, healthy reports intact -------
execute_process(
  COMMAND "${EXTRACTOCOL}" --jobs 1 ${inputs}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE text_out
  ERROR_VARIABLE text_err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "batch with a poisoned input must exit 1, got ${rc}")
endif()
foreach(needle "== ${healthy_a} ==" "== ${healthy_b} ==" "== ${WORK_DIR}/poisoned.xapk ==")
  string(FIND "${text_out}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "text output missing section: ${needle}")
  endif()
endforeach()
string(FIND "${text_out}" "error: xapk line 4: bad method param count" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "text output missing the per-file error entry:\n${text_out}")
endif()
string(FIND "${text_err}" "poisoned.xapk" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "stderr must name the failed file:\n${text_err}")
endif()

# Healthy reports are intact: each single-app run's report appears verbatim.
foreach(f IN LISTS healthy_a healthy_b)
  execute_process(
    COMMAND "${EXTRACTOCOL}" "${f}"
    RESULT_VARIABLE solo_rc
    OUTPUT_VARIABLE solo_out)
  if(NOT solo_rc EQUAL 0)
    message(FATAL_ERROR "healthy app ${f} failed solo: ${solo_rc}")
  endif()
  string(FIND "${text_out}" "${solo_out}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "batch output does not contain the solo report of ${f}")
  endif()
endforeach()

# --- determinism: stdout byte-identical at --jobs 1/2/8 --------------------
# Text and --json alike: a report renders its content only.
execute_process(
  COMMAND "${EXTRACTOCOL}" --json --jobs 1 ${inputs}
  RESULT_VARIABLE rc_json_1
  OUTPUT_VARIABLE json_out_1)
if(NOT rc_json_1 EQUAL 1)
  message(FATAL_ERROR "--json --jobs 1 batch must exit 1, got ${rc_json_1}")
endif()
foreach(jobs 2 8)
  execute_process(
    COMMAND "${EXTRACTOCOL}" --jobs ${jobs} ${inputs}
    RESULT_VARIABLE rc_j
    OUTPUT_VARIABLE out_j)
  if(NOT rc_j EQUAL 1)
    message(FATAL_ERROR "--jobs ${jobs} exit code diverged: ${rc_j}")
  endif()
  if(NOT out_j STREQUAL text_out)
    message(FATAL_ERROR "--jobs ${jobs} stdout diverged from --jobs 1")
  endif()
  execute_process(
    COMMAND "${EXTRACTOCOL}" --json --jobs ${jobs} ${inputs}
    RESULT_VARIABLE rc_j
    OUTPUT_VARIABLE json_j)
  if(NOT rc_j EQUAL 1)
    message(FATAL_ERROR "--json --jobs ${jobs} exit code diverged: ${rc_j}")
  endif()
  if(NOT json_j STREQUAL json_out_1)
    message(FATAL_ERROR "--json --jobs ${jobs} stdout diverged from --jobs 1")
  endif()
endforeach()

# --- JSON mode: error member present, array still covers every input -------
foreach(needle "\"error\"" "bad method param count" "poisoned.xapk")
  string(FIND "${json_out_1}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "JSON output missing ${needle}:\n${json_out_1}")
  endif()
endforeach()

# --- --fail-fast: output stops after the first failed input ----------------
execute_process(
  COMMAND "${EXTRACTOCOL}" --fail-fast ${inputs}
  RESULT_VARIABLE rc_ff
  OUTPUT_VARIABLE ff_out)
if(NOT rc_ff EQUAL 1)
  message(FATAL_ERROR "--fail-fast must exit 1, got ${rc_ff}")
endif()
string(FIND "${ff_out}" "== ${healthy_b} ==" pos)
if(NOT pos EQUAL -1)
  message(FATAL_ERROR "--fail-fast must not emit inputs after the failure")
endif()
string(FIND "${ff_out}" "== ${healthy_a} ==" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "--fail-fast must keep inputs before the failure")
endif()

# --- per-app unmodeled tables are the same in every mode -------------------
set(linkedin "${WORK_DIR}/corpus/linkedin.xapk")

# Sets `out` to `text` from its first "Top unmodeled APIs:" line up to the next
# per-file header (or the end), i.e. the first app's unmodeled table.
function(unmodeled_section out text)
  string(FIND "${text}" "Top unmodeled APIs:" start)
  if(start EQUAL -1)
    message(FATAL_ERROR "no unmodeled-API section in:\n${text}")
  endif()
  string(SUBSTRING "${text}" ${start} -1 rest)
  string(FIND "${rest}" "\n== " stop)
  if(NOT stop EQUAL -1)
    math(EXPR stop "${stop} + 1")  # keep the table's own final newline
    string(SUBSTRING "${rest}" 0 ${stop} rest)
  endif()
  set(${out} "${rest}" PARENT_SCOPE)
endfunction()

# Sets `out` to the "(all inputs)" aggregate section of a batch --audit run.
function(aggregate_section out text)
  string(FIND "${text}" "Top unmodeled APIs (all inputs):" start)
  if(start EQUAL -1)
    message(FATAL_ERROR "no aggregate unmodeled-API section in:\n${text}")
  endif()
  string(SUBSTRING "${text}" ${start} -1 rest)
  set(${out} "${rest}" PARENT_SCOPE)
endfunction()

execute_process(
  COMMAND "${EXTRACTOCOL}" --audit "${linkedin}"
  RESULT_VARIABLE rc_solo
  OUTPUT_VARIABLE audit_solo)
if(NOT rc_solo EQUAL 0)
  message(FATAL_ERROR "linkedin --audit failed: ${rc_solo}")
endif()
unmodeled_section(expected "${audit_solo}")
string(FIND "${expected}" "android.content.Intent.getStringExtra  6" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "linkedin alone lost its unmodeled table:\n${expected}")
endif()

set(cache_dir "${WORK_DIR}/audit_cache")
# One mode per entry: a label, then the arguments, all '|'-separated.
set(modes
  "batch|--jobs|4|${linkedin}|${healthy_a}"
  "cold cache|--cache-dir|${cache_dir}|${linkedin}"
  "warm cache|--cache-dir|${cache_dir}|${linkedin}"
  "warm cache batch|--cache-dir|${cache_dir}|--jobs|4|${linkedin}|${healthy_a}")
foreach(mode IN LISTS modes)
  string(REPLACE "|" ";" parts "${mode}")
  list(GET parts 0 label)
  list(REMOVE_AT parts 0)
  execute_process(
    COMMAND "${EXTRACTOCOL}" --audit ${parts}
    RESULT_VARIABLE rc_mode
    OUTPUT_VARIABLE audit_mode)
  if(NOT rc_mode EQUAL 0)
    message(FATAL_ERROR "linkedin --audit (${label}) failed: ${rc_mode}")
  endif()
  unmodeled_section(actual "${audit_mode}")
  if(NOT actual STREQUAL expected)
    message(FATAL_ERROR
      "linkedin unmodeled table (${label}) differs from the solo run:\n"
      "${actual}\n--- solo ---\n${expected}")
  endif()
endforeach()

# The fleet aggregate of a warm batch equals the cold one.
set(aggregate_dir "${WORK_DIR}/aggregate_cache")
foreach(pass cold warm)
  execute_process(
    COMMAND "${EXTRACTOCOL}" --audit --cache-dir "${aggregate_dir}" --jobs 2
            "${linkedin}" "${healthy_a}" "${healthy_b}"
    RESULT_VARIABLE rc_agg
    OUTPUT_VARIABLE audit_agg)
  if(NOT rc_agg EQUAL 0)
    message(FATAL_ERROR "${pass} batch --audit failed: ${rc_agg}")
  endif()
  aggregate_section(aggregate_${pass} "${audit_agg}")
endforeach()
if(NOT aggregate_warm STREQUAL aggregate_cold)
  message(FATAL_ERROR "warm (all inputs) aggregate differs from the cold one:\n"
    "${aggregate_warm}\n--- cold ---\n${aggregate_cold}")
endif()
string(FIND "${aggregate_cold}" "android.content.Intent.getStringExtra  6" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "batch aggregate lost linkedin's unmodeled calls:\n${aggregate_cold}")
endif()

message(STATUS "cli batch isolation: all checks passed")
