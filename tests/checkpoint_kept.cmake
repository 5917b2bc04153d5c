# A fresh run does not replace an existing checkpoint without --force
# true: scenario_run keeps another run's P and P.progress byte for byte
# and exits 2, and a resume from P keeps saving to P; dist_run keeps an
# existing B.manifest and exits 2 before any worker connects.
#
#   cmake -DSCENARIO_RUN=<scenario_run> -DDIST_RUN=<dist_run>
#         -DROOT=<repository root> -P checkpoint_kept.cmake
#
# Files land in the working directory.
foreach(var SCENARIO_RUN DIST_RUN ROOT)
  if(NOT ${var})
    message(FATAL_ERROR "pass -D${var}=...")
  endif()
endforeach()

set(prefix checkpoint_kept)
set(ckpt ${prefix}.ckpt)
set(base ${prefix}.dist)
set(steady ${ROOT}/scenarios/steady_baseline.scn)

# expect(<exit code> <stderr regex> <command...>)
function(expect want pattern)
  execute_process(COMMAND ${ARGN} ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc STREQUAL "${want}")
    message(FATAL_ERROR "${ARGN} exited ${rc}, want ${want}: ${err}")
  endif()
  if(NOT err MATCHES "${pattern}")
    message(FATAL_ERROR "${ARGN}: stderr lacks '${pattern}': ${err}")
  endif()
endfunction()

# same(<a> <b> <what>): fail unless the two files hold the same bytes.
function(same a b what)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${a} ${b}
                  RESULT_VARIABLE differ)
  if(differ)
    message(FATAL_ERROR "${what}")
  endif()
endfunction()

file(REMOVE ${ckpt} ${ckpt}.progress ${ckpt}.record ${base}.manifest)

# The first run's resume point.
expect(0 "" ${SCENARIO_RUN} --scenario ${steady} --checkpoint-out ${ckpt}
       --stop-after 100)
file(COPY_FILE ${ckpt} ${prefix}.first)
file(COPY_FILE ${ckpt}.progress ${prefix}.first.progress)

# Another scenario's fresh run may not replace it.
expect(2 "--checkpoint-out ${ckpt}: output exists" ${SCENARIO_RUN}
       --scenario ${ROOT}/scenarios/fault_recovery.scn
       --checkpoint-out ${ckpt} --stop-after 50)
same(${ckpt} ${prefix}.first "a refused run changed the checkpoint")
same(${ckpt}.progress ${prefix}.first.progress
     "a refused run changed the progress sidecar")

# A resume from the checkpoint saves to it again.
expect(0 "" ${SCENARIO_RUN} --scenario ${steady} --resume ${ckpt}
       --checkpoint-out ${ckpt} --stop-after 200)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${ckpt}
                        ${prefix}.first RESULT_VARIABLE differ)
if(NOT differ)
  message(FATAL_ERROR "the resume did not save to its own checkpoint")
endif()

# dist_run: an existing manifest stops the coordinator before it listens.
file(WRITE ${base}.manifest "another run's manifest\n")
expect(2 "--checkpoint-out ${base}.manifest: output exists" ${DIST_RUN}
       --role coordinator --listen 127.0.0.1:0 --workers 1
       --scenario ${ROOT}/scenarios/dist_bank.scn --checkpoint-out ${base})
file(READ ${base}.manifest kept)
if(NOT kept STREQUAL "another run's manifest\n")
  message(FATAL_ERROR "a refused dist_run changed ${base}.manifest")
endif()

file(REMOVE ${ckpt} ${ckpt}.progress ${prefix}.first ${prefix}.first.progress
     ${base}.manifest)
message(STATUS "existing checkpoints keep their bytes without --force")
