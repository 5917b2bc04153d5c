# Runs one command and checks its exit code and output together, which
# WILL_FAIL and PASS_REGULAR_EXPRESSION cannot: WILL_FAIL does not tell a
# usage error (2) from a runtime error (1), and a pass regex ignores the
# exit code.
#
#   cmake -DRC=<exit code> [-DSTDERR=<regex>] [-DSTDOUT=<regex>]
#         -P expect_exit.cmake -- <command> [args...]
if(NOT DEFINED RC)
  message(FATAL_ERROR "pass -DRC=<expected exit code>")
endif()

set(command)
set(seen_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(seen_dashes)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(seen_dashes TRUE)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "pass the command after --")
endif()

execute_process(COMMAND ${command} OUTPUT_VARIABLE out ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc STREQUAL "${RC}")
  message(FATAL_ERROR "${command} exited ${rc}, want ${RC}: ${err}")
endif()
if(DEFINED STDERR AND NOT err MATCHES "${STDERR}")
  message(FATAL_ERROR "${command}: stderr lacks '${STDERR}': ${err}")
endif()
if(DEFINED STDOUT AND NOT out MATCHES "${STDOUT}")
  message(FATAL_ERROR "${command}: stdout lacks '${STDOUT}': ${out}")
endif()
message(STATUS "exit ${rc}: ${command}")
