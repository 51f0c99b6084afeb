# End-to-end admin-plane check (ctest -P script).
#
# Starts `extractocol --serve <socket>` with a cache directory, an access
# journal, and `--slow-ms 0` (log every request), drives one cold miss and
# one warm hit, then reads the daemon back through the admin plane:
#
#   * `--connect <sock> --status` prints a pretty JSON status document that
#     reflects the driven workload (served requests, one cache hit);
#   * `--connect <sock> --metrics-live` prints Prometheus text exposition
#     with TYPE headers and the daemon request counter;
#   * the `--journal` file exists and holds one JSONL record per request
#     with per-request ids and outcomes, and the hit's record carries its
#     own single cache.load phase;
#   * `--slow-ms 0` put a per-phase breakdown on the daemon's stderr;
#   * SIGTERM still shuts the instrumented daemon down cleanly (exit 0).
#
# Expected definitions: EXTRACTOCOL, MAKE_CORPUS, WORK_DIR.

foreach(var EXTRACTOCOL MAKE_CORPUS WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=...")
  endif()
endforeach()

find_program(SH_PROGRAM sh)
if(NOT SH_PROGRAM)
  message(STATUS "cli admin: no sh available, skipping admin plane test")
  return()
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
  COMMAND "${MAKE_CORPUS}" "${WORK_DIR}/corpus"
  RESULT_VARIABLE corpus_rc
  OUTPUT_QUIET)
if(NOT corpus_rc EQUAL 0)
  message(FATAL_ERROR "make_corpus failed: ${corpus_rc}")
endif()

set(app "${WORK_DIR}/corpus/blippex.xapk")
# Unix socket paths are capped near 108 bytes; keep the socket in /tmp.
string(RANDOM LENGTH 8 sock_tag)
set(sock "/tmp/xt_admin_${sock_tag}.sock")
file(REMOVE "${sock}")
set(daemon_log "${WORK_DIR}/daemon.log")
set(pid_file "${WORK_DIR}/daemon.pid")
set(status_file "${WORK_DIR}/daemon.status")
set(journal "${WORK_DIR}/access.jsonl")

execute_process(
  COMMAND "${SH_PROGRAM}" -c
    "('${EXTRACTOCOL}' --serve '${sock}' --cache-dir '${WORK_DIR}/cache' --journal '${journal}' --slow-ms 0 --jobs 2 > '${daemon_log}' 2>&1 & echo $! > '${pid_file}'; wait $!; echo $? > '${status_file}') > /dev/null 2>&1 &"
  RESULT_VARIABLE launch_rc)
if(NOT launch_rc EQUAL 0)
  message(FATAL_ERROR "failed to launch the daemon: ${launch_rc}")
endif()
set(waited 0)
while(NOT EXISTS "${pid_file}" AND waited LESS 50)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E sleep 0.1)
  math(EXPR waited "${waited} + 1")
endwhile()
if(NOT EXISTS "${pid_file}")
  message(FATAL_ERROR "daemon wrapper never wrote ${pid_file}")
endif()
file(READ "${pid_file}" daemon_pid)
string(STRIP "${daemon_pid}" daemon_pid)

# --- workload: one cold miss, one warm hit -----------------------------------
execute_process(
  COMMAND "${EXTRACTOCOL}" --connect "${sock}" "${app}"
  RESULT_VARIABLE rc1
  OUTPUT_VARIABLE out1
  ERROR_VARIABLE err1)
if(NOT rc1 EQUAL 0)
  message(FATAL_ERROR "cold --connect failed (${rc1}):\n${out1}\n${err1}")
endif()
string(FIND "${out1}" "\"cached\":false" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "first response must be a cache miss:\n${out1}")
endif()
execute_process(
  COMMAND "${EXTRACTOCOL}" --connect "${sock}" "${app}"
  RESULT_VARIABLE rc2
  OUTPUT_VARIABLE out2
  ERROR_QUIET)
if(NOT rc2 EQUAL 0)
  message(FATAL_ERROR "warm --connect failed (${rc2})")
endif()
string(FIND "${out2}" "\"cached\":true" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "second response must be a cache hit:\n${out2}")
endif()

# --- --status: live status document ------------------------------------------
execute_process(
  COMMAND "${EXTRACTOCOL}" --connect "${sock}" --status
  RESULT_VARIABLE status_rc
  OUTPUT_VARIABLE status_out
  ERROR_VARIABLE status_err)
if(NOT status_rc EQUAL 0)
  message(FATAL_ERROR "--status failed (${status_rc}):\n${status_out}\n${status_err}")
endif()
foreach(needle "\"served\": 2" "\"hits\": 1" "\"misses\": 1" "\"uptime_seconds\"" "\"latency_ms\"")
  string(FIND "${status_out}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "--status output missing ${needle}:\n${status_out}")
  endif()
endforeach()

# --- --metrics-live: Prometheus exposition -----------------------------------
execute_process(
  COMMAND "${EXTRACTOCOL}" --connect "${sock}" --metrics-live
  RESULT_VARIABLE metrics_rc
  OUTPUT_VARIABLE metrics_out
  ERROR_VARIABLE metrics_err)
if(NOT metrics_rc EQUAL 0)
  message(FATAL_ERROR "--metrics-live failed (${metrics_rc}):\n${metrics_err}")
endif()
foreach(needle "# TYPE" "daemon_requests" "daemon_cache_hits 1")
  string(FIND "${metrics_out}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "--metrics-live output missing ${needle}:\n${metrics_out}")
  endif()
endforeach()

# --- admin client flags reject bad combinations ------------------------------
execute_process(
  COMMAND "${EXTRACTOCOL}" --status
  RESULT_VARIABLE lone_rc
  OUTPUT_QUIET
  ERROR_VARIABLE lone_err)
if(NOT lone_rc EQUAL 2)
  message(FATAL_ERROR "--status without --connect must exit 2, got ${lone_rc}")
endif()
string(FIND "${lone_err}" "--connect" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "--status error must mention --connect:\n${lone_err}")
endif()

# --- SIGTERM: clean shutdown with instrumentation active ---------------------
execute_process(COMMAND "${SH_PROGRAM}" -c "kill -TERM ${daemon_pid}")
set(waited 0)
while(NOT EXISTS "${status_file}" AND waited LESS 100)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E sleep 0.1)
  math(EXPR waited "${waited} + 1")
endwhile()
if(NOT EXISTS "${status_file}")
  message(FATAL_ERROR "daemon did not exit within 10s of SIGTERM")
endif()
file(READ "${status_file}" daemon_status)
string(STRIP "${daemon_status}" daemon_status)
if(NOT daemon_status STREQUAL "0")
  file(READ "${daemon_log}" log_text)
  message(FATAL_ERROR "daemon exited ${daemon_status}, expected 0:\n${log_text}")
endif()

# --- journal: one JSONL record per request -----------------------------------
if(NOT EXISTS "${journal}")
  message(FATAL_ERROR "daemon never wrote the --journal file ${journal}")
endif()
file(STRINGS "${journal}" journal_lines)
list(LENGTH journal_lines journal_count)
# 2 analysis requests + status + metrics + the final status-op connections'
# requests are all journaled; at minimum the four driven requests are there.
if(journal_count LESS 4)
  message(FATAL_ERROR "journal has ${journal_count} records, expected >= 4:\n${journal_lines}")
endif()
file(READ "${journal}" journal_text)
foreach(needle "\"request\":1" "\"op\":\"file\"" "\"op\":\"status\"" "\"op\":\"metrics\"" "\"outcome\":\"ok\"" "\"cached\":true")
  string(FIND "${journal_text}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "journal missing ${needle}:\n${journal_text}")
  endif()
endforeach()
# The hit's record measures its own run: one cache.load phase, not the
# phases of the cold run that stored the entry.
if(NOT journal_text MATCHES "\"cached\":true,\"outcome\":\"ok\",\"wall_seconds\":[-+.eE0-9]+,\"phases\":\[{\"name\":\"cache.load\",\"seconds\":[-+.eE0-9]+}\]")
  message(FATAL_ERROR "the hit's journal record must carry one cache.load phase:\n${journal_text}")
endif()

# --- --slow-ms 0: per-phase breakdown on the daemon log ----------------------
file(READ "${daemon_log}" log_text)
string(FIND "${log_text}" "daemon: slow request" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "--slow-ms 0 must log every request:\n${log_text}")
endif()

message(STATUS "cli admin: all checks passed")
