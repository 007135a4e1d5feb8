# Passes only when `CLI ARGS...` exits with code 2 and its stderr matches
# PATTERN (a CMake regex). Registered by examples/CMakeLists.txt as
#   cmake -DCLI=<lcert_cli> "-DARGS=<space-separated args>" "-DPATTERN=<regex>"
#         -P expect_cli_error.cmake
separate_arguments(cli_args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CLI}" ${cli_args}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "lcert_cli ${ARGS}: exit code ${rc}, expected 2; stderr: ${err}")
endif()
if(NOT err MATCHES "${PATTERN}")
  message(FATAL_ERROR "lcert_cli ${ARGS}: stderr does not match '${PATTERN}': ${err}")
endif()
