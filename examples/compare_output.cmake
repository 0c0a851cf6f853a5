# Runs PROGRAM and fails unless its stdout equals the EXPECTED file byte
# for byte.
#
#   cmake -DPROGRAM=<binary> -DEXPECTED=<file> -P compare_output.cmake
execute_process(COMMAND ${PROGRAM} OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with ${status}")
endif()
file(READ ${EXPECTED} expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "${PROGRAM} output differs from ${EXPECTED}:\n"
                      "--- expected\n${expected}--- actual\n${actual}")
endif()
