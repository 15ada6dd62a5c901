# Runs `EXE FLAG --list` and fails unless the driver printed its usage line
# and exited with status 2. A driver that accepted FLAG would list the
# registry and exit 0; a crash reports a signal, not 2.
#
#   cmake -DEXE=<meshroute_bench> -DFLAG=--seed=7x -P expect_usage_error.cmake
execute_process(COMMAND "${EXE}" "${FLAG}" --list
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT status STREQUAL "2" OR NOT err MATCHES "usage: ")
  message(FATAL_ERROR
          "${FLAG}: exit status '${status}', expected 2 with the usage "
          "line; stderr:\n${err}")
endif()
