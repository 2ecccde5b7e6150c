# Runs one command and checks that it exits 0, that its stdout is
# byte-identical to a checked-in file and, if EXPECT_STDERR is given,
# that its stderr matches that regex. Relative paths in CMD resolve
# against DIR, so the output names the same paths on every machine:
#
#   cmake -DCMD="<exe>;<arg>;..." -DDIR=<dir> -DEXPECT_FILE=<file>
#         [-DEXPECT_STDERR=<regex>] -P ExpectOutput.cmake
execute_process(COMMAND ${CMD}
                WORKING_DIRECTORY ${DIR}
                RESULT_VARIABLE RC
                OUTPUT_VARIABLE OUT
                ERROR_VARIABLE ERR)
if(NOT RC STREQUAL "0")
  message(FATAL_ERROR "exit code ${RC}, expected 0; stderr:\n${ERR}")
endif()
file(READ ${EXPECT_FILE} WANT)
if(NOT OUT STREQUAL WANT)
  message(FATAL_ERROR "stdout differs from ${EXPECT_FILE}; got:\n${OUT}")
endif()
if(DEFINED EXPECT_STDERR AND NOT ERR MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}':\n${ERR}")
endif()
