# Compares `sim_explore --seed N` summary lines against a checked-in golden
# file: seeds 1-50, each in the default configuration and with --durable.
# A change meant to keep behaviour must keep every line byte-identical.
#   cmake -DSIM_EXPLORE=<binary> -DGOLDEN=<file> -P check_sim_summaries.cmake
# With -DREGENERATE=ON the script rewrites GOLDEN instead of comparing; use
# it only for a deliberate behaviour change, and say so in the change.
set(header [=[
# sim_explore --seed N summary lines: seeds 1-50, each in the default
# configuration and then with --durable. Checked by the ctest
# sim_explore_summaries_match_golden (examples/check_sim_summaries.cmake).
# After a deliberate behaviour change, regenerate from the repository root:
#   cmake -DSIM_EXPLORE=build/examples/sim_explore \
#         -DGOLDEN=tests/golden/sim_summaries.txt -DREGENERATE=ON \
#         -P examples/check_sim_summaries.cmake
]=])

set(actual "")
foreach(seed RANGE 1 50)
  foreach(mode "" "--durable")
    execute_process(COMMAND ${SIM_EXPLORE} --seed ${seed} ${mode}
                    OUTPUT_VARIABLE line RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "sim_explore --seed ${seed} ${mode} exited ${rc}: ${line}")
    endif()
    string(APPEND actual "${line}")
  endforeach()
endforeach()

if(REGENERATE)
  file(WRITE "${GOLDEN}" "${header}${actual}")
  message(STATUS "wrote ${GOLDEN}")
  return()
endif()

file(STRINGS "${GOLDEN}" expected REGEX "^seed=")
string(REGEX REPLACE "\n$" "" actual "${actual}")
string(REPLACE "\n" ";" actual "${actual}")
list(LENGTH expected n_expected)
list(LENGTH actual n_actual)
if(NOT n_expected EQUAL n_actual)
  message(FATAL_ERROR "expected ${n_expected} summary lines, got ${n_actual}")
endif()
math(EXPR last "${n_expected} - 1")
foreach(i RANGE 0 ${last})
  list(GET expected ${i} want)
  list(GET actual ${i} got)
  if(NOT want STREQUAL got)
    message(FATAL_ERROR "summary line ${i} differs from ${GOLDEN}\n  want: ${want}\n  got:  ${got}")
  endif()
endforeach()
