# Runs a command and checks its exit code and stderr. The CLI tests use it
# to assert that a bad invocation fails with a given code and names the
# culprit, which WILL_FAIL alone cannot express.
#
#   cmake -DPROGRAM=<exe> -DARGS="arg1|arg2|..." -DEXPECT_CODE=<n>
#         -DEXPECT_STDERR=<regex> -P expect_exit.cmake
#
# ARGS is '|'-separated so that it survives add_test's list splitting.
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
                RESULT_VARIABLE code
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXPECT_CODE}")
  message(FATAL_ERROR "expected exit ${EXPECT_CODE}, got ${code}; stderr:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}':\n${err}")
endif()
