# Runs `syndog_tool <SUBCMD> <CAPTURE>` and requires exit status STATUS
# and output matching MATCH. A plain add_test cannot express this for
# analyze, which exits 2 when it finds a flood.
#
# Usage: cmake -DTOOL=<syndog_tool> -DSUBCMD=<analyze|calibrate>
#              -DCAPTURE=<file> -DSTATUS=<n> -DMATCH=<regex>
#              -P tool_capture.cmake
if(NOT TOOL OR NOT SUBCMD OR NOT CAPTURE OR NOT DEFINED STATUS OR NOT MATCH)
  message(FATAL_ERROR
          "tool_capture.cmake needs -DTOOL= -DSUBCMD= -DCAPTURE= -DSTATUS= "
          "and -DMATCH=")
endif()

execute_process(
  COMMAND ${TOOL} ${SUBCMD} ${CAPTURE}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE out)
if(NOT status EQUAL STATUS)
  message(FATAL_ERROR
          "${SUBCMD} exited ${status}, expected ${STATUS}:\n${out}")
endif()
if(NOT out MATCHES "${MATCH}")
  message(FATAL_ERROR "${SUBCMD} output does not match '${MATCH}':\n${out}")
endif()
