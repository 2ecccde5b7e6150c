# Runs one command that writes a trace to TRACE and checks that it
# exits 0 and that the trace holds exactly EXPECT_COUNT complete spans
# named SPAN:
#
#   cmake -DCMD="<exe>;<arg>;..." -DTRACE=<file> -DSPAN=<name>
#         -DEXPECT_COUNT=<n> -P ExpectTraceSpans.cmake
file(REMOVE ${TRACE})
execute_process(COMMAND ${CMD}
                RESULT_VARIABLE RC
                OUTPUT_QUIET
                ERROR_VARIABLE ERR)
if(NOT RC STREQUAL "0")
  message(FATAL_ERROR "exit code ${RC}, expected 0; stderr:\n${ERR}")
endif()
file(READ ${TRACE} JSON)
string(REPLACE "." "\\." SPAN_RE "${SPAN}")
string(REGEX MATCHALL "\"name\":\"${SPAN_RE}\",\"ph\":\"X\"" SPANS "${JSON}")
list(LENGTH SPANS N)
if(NOT N EQUAL EXPECT_COUNT)
  message(FATAL_ERROR "${N} '${SPAN}' spans in ${TRACE}, expected ${EXPECT_COUNT}")
endif()
