# Runs one command and checks that it fails with a given exit code and
# a stderr line matching a regex. ctest's PASS_REGULAR_EXPRESSION
# ignores the exit code, so usage-error tests go through this script:
#
#   cmake -DCMD="<exe>;<arg>;..." -DEXPECT_RC=1 -DEXPECT_STDERR=<regex>
#         [-DREJECT_STDERR=<regex>] -P ExpectFailure.cmake
execute_process(COMMAND ${CMD}
                RESULT_VARIABLE RC
                OUTPUT_QUIET
                ERROR_VARIABLE ERR)
if(NOT RC STREQUAL EXPECT_RC)
  message(FATAL_ERROR "exit code ${RC}, expected ${EXPECT_RC}; stderr:\n${ERR}")
endif()
if(NOT ERR MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}':\n${ERR}")
endif()
if(DEFINED REJECT_STDERR AND ERR MATCHES "${REJECT_STDERR}")
  message(FATAL_ERROR "stderr matches '${REJECT_STDERR}':\n${ERR}")
endif()
