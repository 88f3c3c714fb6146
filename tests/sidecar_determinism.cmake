# Runs a bench binary with --deterministic twice into separate sidecar
# directories and requires the BENCH_<NAME>.json exports to be
# byte-identical (wall-derived scalars are suppressed by the flag, so the
# export must be a pure function of the bench's seeds). Generic sibling
# of replay_determinism.cmake; EXTRA_COMPARE may list additional
# file names (relative to the sidecar dir) that must also match, e.g. the
# tsf file bench_fleet_telemetry writes.
#
# Usage: cmake -DBENCH=<path> -DNAME=<bench name> -DWORK=<dir>
#              [-DEXTRA_COMPARE=f1,f2] -P sidecar_determinism.cmake
if(NOT BENCH OR NOT NAME OR NOT WORK)
  message(FATAL_ERROR
          "sidecar_determinism.cmake needs -DBENCH=, -DNAME= and -DWORK=")
endif()

foreach(run a b)
  file(REMOVE_RECURSE "${WORK}/${run}")
  file(MAKE_DIRECTORY "${WORK}/${run}")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env SYNDOG_BENCH_DIR=${WORK}/${run}
            ${BENCH} --deterministic
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE out)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "run ${run} failed (${status}):\n${out}")
  endif()
endforeach()

set(compare "BENCH_${NAME}.json")
if(EXTRA_COMPARE)
  string(REPLACE "," ";" extra "${EXTRA_COMPARE}")
  list(APPEND compare ${extra})
endif()

foreach(file ${compare})
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${WORK}/a/${file}" "${WORK}/b/${file}"
    RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    message(FATAL_ERROR
            "deterministic runs of ${NAME} wrote different ${file}")
  endif()
endforeach()
