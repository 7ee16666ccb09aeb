# Runs COMMAND (a ;-list) and fails unless it exits with EXIT_CODE, writes
# nothing to stdout, and writes a stderr matching STDERR_REGEX.
#
#   cmake -DCOMMAND=prog -DEXIT_CODE=2 -DSTDERR_REGEX=msg -P expect_exit.cmake
execute_process(COMMAND ${COMMAND} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL EXIT_CODE OR NOT out STREQUAL "" OR
   NOT err MATCHES "${STDERR_REGEX}")
  message(FATAL_ERROR "${COMMAND}: exit ${rc} (expected ${EXIT_CODE})\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
