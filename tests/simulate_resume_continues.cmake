# Resumed simulate output continues the run: a fresh M + K round run and
# a fresh M round run followed by `--resume` for K rounds must print the
# same wait_mean, wait_max, wait_p99_upper and deletions.
#
#   cmake -DSIMULATE=<path to simulate> -P simulate_resume_continues.cmake
#
# Files land in the working directory.
if(NOT SIMULATE)
  message(FATAL_ERROR "pass -DSIMULATE=<path to the simulate binary>")
endif()

set(common --n 4096 --lambda 0.875 --seed 5 --json true)
set(ckpt simulate_resume_continues.ckpt)

function(run_simulate out)
  execute_process(COMMAND "${SIMULATE}" ${ARGN}
                  OUTPUT_VARIABLE json RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "simulate ${ARGN} exited ${rc}")
  endif()
  set(${out} "${json}" PARENT_SCOPE)
endfunction()

run_simulate(whole ${common} --rounds 900)
run_simulate(first ${common} --rounds 600 --checkpoint-out ${ckpt}
             --force true)
run_simulate(resumed --resume ${ckpt} --rounds 300 --json true)
file(REMOVE ${ckpt} ${ckpt}.progress)

# The printed text of one JSON field.
function(field_text out json field)
  if(NOT json MATCHES "\"${field}\":([^,}]+)")
    message(FATAL_ERROR "no ${field} in: ${json}")
  endif()
  set(${out} "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()

foreach(field wait_mean wait_max wait_p99_upper deletions)
  field_text(want "${whole}" ${field})
  field_text(got "${resumed}" ${field})
  if(NOT want STREQUAL got)
    message(FATAL_ERROR
            "resumed ${field} = ${got}, uninterrupted run has ${want}")
  endif()
  message(STATUS "${field} = ${got}")
endforeach()
