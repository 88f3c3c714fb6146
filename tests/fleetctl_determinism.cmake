# Runs `syndog_fleetctl gen` twice and requires the two syndog-tsf/1
# files to be byte-identical, then runs the summary, alarms, and
# mitigation rollups twice each and requires byte-identical text. Guards
# the determinism contract of the telemetry layer: a campaign and its
# rollups are a pure function of the seed (docs/OBSERVABILITY.md).
#
# Usage: cmake -DFLEETCTL=<path-to-syndog_fleetctl> -DWORK=<dir>
#              -P fleetctl_determinism.cmake
if(NOT FLEETCTL OR NOT WORK)
  message(FATAL_ERROR "fleetctl_determinism.cmake needs -DFLEETCTL= and -DWORK=")
endif()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

foreach(run a b)
  execute_process(
    COMMAND ${FLEETCTL} gen "${WORK}/${run}.tsf"
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE out)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "gen ${run} failed (${status}):\n${out}")
  endif()
endforeach()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files "${WORK}/a.tsf" "${WORK}/b.tsf"
  RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR "gen runs a and b wrote different tsf bytes")
endif()

foreach(cmd summary alarms mitigation)
  set(texts "")
  foreach(run 1 2)
    execute_process(
      COMMAND ${FLEETCTL} ${cmd} "${WORK}/a.tsf"
      RESULT_VARIABLE status
      OUTPUT_VARIABLE out
      ERROR_VARIABLE err)
    if(NOT status EQUAL 0)
      message(FATAL_ERROR "${cmd} run ${run} failed (${status}):\n${err}")
    endif()
    list(APPEND texts "${out}")
  endforeach()
  list(GET texts 0 first)
  list(GET texts 1 second)
  if(NOT first STREQUAL second)
    message(FATAL_ERROR "${cmd} output differs between identical runs:\n"
                        "--- run 1 ---\n${first}\n--- run 2 ---\n${second}")
  endif()
endforeach()
