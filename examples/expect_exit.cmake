# Runs the command that follows the script path and fails unless it exits
# with code EXPECT.
#   cmake -DEXPECT=<code> -P expect_exit.cmake <program> [args...]
set(cmd)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 0 ${last})
  if(found_script)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" MATCHES "expect_exit\\.cmake$")
    set(found_script TRUE)
  endif()
endforeach()
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "expected exit code ${EXPECT}, got '${rc}' from: ${cmd}")
endif()
