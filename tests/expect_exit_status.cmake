# Runs PROG with the space-separated ARGS and fails unless it exits with
# status EXPECT:
#
#   cmake -DPROG=path -DARGS="--tenants abc" -DEXPECT=2 -P expect_exit_status.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROG}" ${args} RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${PROG} ${ARGS}: exit status ${rc}, expected ${EXPECT}")
endif()
