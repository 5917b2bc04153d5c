# A fresh run does not replace an existing checkpoint generation without
# --force true: scenario_run keeps another run's B.manifest and the
# generation it commits byte for byte and exits 2, and a resume from B
# keeps saving under B; dist_run keeps an existing B.manifest and exits 2
# before any worker connects.
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

file(GLOB stale ${prefix}.*)
if(stale)
  file(REMOVE ${stale})
endif()

# The first run's resume point: the generation at round 100.
set(generation manifest r100.coord r100.coord.progress)
expect(0 "" ${SCENARIO_RUN} --scenario ${steady} --checkpoint-out ${ckpt}
       --stop-after 100)
foreach(file ${generation})
  file(COPY_FILE ${ckpt}.${file} ${prefix}.first.${file})
endforeach()

# Another scenario's fresh run may not replace it.
expect(2 "--checkpoint-out ${ckpt}.manifest: output exists" ${SCENARIO_RUN}
       --scenario ${ROOT}/scenarios/fault_recovery.scn
       --checkpoint-out ${ckpt} --stop-after 50)
foreach(file ${generation})
  same(${ckpt}.${file} ${prefix}.first.${file}
       "a refused run changed ${ckpt}.${file}")
endforeach()

# A resume from the checkpoint saves under it again.
expect(0 "" ${SCENARIO_RUN} --scenario ${steady} --resume ${ckpt}
       --checkpoint-out ${ckpt} --stop-after 200)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${ckpt}.manifest
                        ${prefix}.first.manifest RESULT_VARIABLE differ)
if(NOT differ)
  message(FATAL_ERROR "the resume did not save under its own checkpoint")
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

file(GLOB stale ${prefix}.*)
file(REMOVE ${stale})
message(STATUS "existing checkpoints keep their bytes without --force")
