# An option conflict is a usage error in simulate, as in scenario_run:
# each case below must exit 2 (not 1, a runtime error) and name its
# cause on stderr. WILL_FAIL cannot tell 1 from 2, hence this script.
#
#   cmake -DSIMULATE=<path to simulate> -P simulate_usage_exit.cmake
if(NOT SIMULATE)
  message(FATAL_ERROR "pass -DSIMULATE=<path to the simulate binary>")
endif()

set(common --process capped --n 512 --lambda 0.875 --rounds 20)

function(expect_usage_error cause)
  execute_process(COMMAND "${SIMULATE}" ${common} ${ARGN}
                  ERROR_VARIABLE err OUTPUT_QUIET RESULT_VARIABLE rc)
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "simulate ${ARGN} exited ${rc}, want 2: ${err}")
  endif()
  if(NOT err MATCHES "${cause}")
    message(FATAL_ERROR "simulate ${ARGN}: stderr lacks '${cause}': ${err}")
  endif()
  message(STATUS "${ARGN}: exit 2")
endfunction()

expect_usage_error("scalar kernel cannot shard" --kernel scalar --shards 4)
expect_usage_error("require --checkpoint-out" --checkpoint-every 5)
