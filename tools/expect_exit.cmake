# Runs a command and checks its exit code and stderr. The CLI tests use it
# to assert that a bad invocation fails with a given code and names the
# culprit, which WILL_FAIL alone cannot express.
#
#   cmake -DPROGRAM=<exe> -DARGS="arg1|arg2|..." -DEXPECT_CODE=<n>
#         -DEXPECT_STDERR=<regex> -P expect_exit.cmake
#
# ARGS is '|'-separated so that it survives add_test's list splitting; an
# empty field is an empty argument. Optional:
#   -DENV="VAR=value|..."   adds to the command's environment;
#   -DOUTPUT=<file> -DEXPECT_OUTPUT=<regex>
#                           checks a file the command writes (removed
#                           first, so a stale copy cannot pass);
#   -DARGS_B=... -DENV_B=...
#                           runs a second command, held to the same exit
#                           code and stderr, whose OUTPUT file (or, without
#                           OUTPUT, stdout) must equal the first one's.
function(run_checked args env)
  set(command "")
  if(NOT env STREQUAL "")
    string(REPLACE "|" ";" settings "${env}")
    set(command "[==[${CMAKE_COMMAND}]==] -E env")
    foreach(setting IN LISTS settings)
      string(APPEND command " [==[${setting}]==]")
    endforeach()
  endif()
  string(APPEND command " [==[${PROGRAM}]==]")
  string(REPLACE "|" ";" arguments "${args}")
  foreach(argument IN LISTS arguments)
    # Bracket-quoted, so an empty argument is passed rather than dropped.
    string(APPEND command " [==[${argument}]==]")
  endforeach()
  if(OUTPUT)
    file(REMOVE "${OUTPUT}")
  endif()
  cmake_language(EVAL CODE "execute_process(COMMAND ${command}
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)")
  if(NOT code STREQUAL "${EXPECT_CODE}")
    message(FATAL_ERROR "expected exit ${EXPECT_CODE}, got ${code}; stderr:\n${err}")
  endif()
  if(NOT err MATCHES "${EXPECT_STDERR}")
    message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}':\n${err}")
  endif()
  if(OUTPUT)
    if(NOT EXISTS "${OUTPUT}")
      message(FATAL_ERROR "${OUTPUT} was not written")
    endif()
    file(READ "${OUTPUT}" out)
    if(NOT out MATCHES "${EXPECT_OUTPUT}")
      message(FATAL_ERROR "${OUTPUT} does not match '${EXPECT_OUTPUT}'")
    endif()
  endif()
  set(out "${out}" PARENT_SCOPE)
endfunction()

run_checked("${ARGS}" "${ENV}")
if(DEFINED ARGS_B)
  set(first "${out}")
  run_checked("${ARGS_B}" "${ENV_B}")
  if(NOT out STREQUAL first)
    message(FATAL_ERROR "the two runs differ:\n${first}\n---\n${out}")
  endif()
endif()
