# A scenario_run stopped with --stop-after and resumed with --resume
# writes the same artifact bytes as the uninterrupted run.
#
#   cmake -DSCENARIO_RUN=<path to scenario_run> -DSCENARIO=<file.scn>
#         -DSTOP_AFTER=<round> -P scenario_run_resume_continues.cmake
#
# Files land in the working directory.
foreach(var SCENARIO_RUN SCENARIO STOP_AFTER)
  if(NOT ${var})
    message(FATAL_ERROR "pass -D${var}=...")
  endif()
endforeach()

set(prefix scenario_run_resume_continues)
set(ckpt ${prefix}.ckpt)

function(run_scenario)
  execute_process(COMMAND "${SCENARIO_RUN}" --scenario "${SCENARIO}" ${ARGN}
                  ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "scenario_run ${ARGN} exited ${rc}: ${err}")
  endif()
endfunction()

file(GLOB generations ${ckpt}.*)
if(generations)
  file(REMOVE ${generations})
endif()
run_scenario(--out ${prefix}.whole.artifact --force true)
run_scenario(--checkpoint-out ${ckpt} --stop-after ${STOP_AFTER})
run_scenario(--resume ${ckpt} --out ${prefix}.resumed.artifact --force true)

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${prefix}.whole.artifact ${prefix}.resumed.artifact
                RESULT_VARIABLE differ)
file(GLOB generations ${ckpt}.*)
file(REMOVE ${generations} ${prefix}.whole.artifact
     ${prefix}.resumed.artifact)
if(differ)
  message(FATAL_ERROR "the resumed artifact differs from the "
                      "uninterrupted run's")
endif()
message(STATUS "stop at ${STOP_AFTER}, resume: same artifact bytes")
