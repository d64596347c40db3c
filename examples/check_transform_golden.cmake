# Compares `inspect_transform --source` output (every subject app's transform
# report, developer consultations and generated replica source) against a
# checked-in golden file. A change meant to keep behaviour must keep the
# FuzzReports and ExtractionPlans behind it, and so this text, byte-identical.
#   cmake -DINSPECT_TRANSFORM=<binary> -DGOLDEN=<file> -P check_transform_golden.cmake
# With -DREGENERATE=ON the script rewrites GOLDEN instead of comparing; use
# it only for a deliberate behaviour change, and say so in the change.
set(header [=[
# inspect_transform --source output: the transform report, consultations
# and generated replica source of every subject app. Checked by the ctest
# inspect_transform_matches_golden (examples/check_transform_golden.cmake).
# After a deliberate behaviour change, regenerate from the repository root:
#   cmake -DINSPECT_TRANSFORM=build/examples/inspect_transform \
#         -DGOLDEN=tests/golden/transform_reports.txt -DREGENERATE=ON \
#         -P examples/check_transform_golden.cmake
]=])

execute_process(COMMAND ${INSPECT_TRANSFORM} --source
                OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "inspect_transform --source exited ${rc}")
endif()

if(REGENERATE)
  file(WRITE "${GOLDEN}" "${header}${actual}")
  message(STATUS "wrote ${GOLDEN}")
  return()
endif()

file(READ "${GOLDEN}" golden)
string(LENGTH "${header}" header_len)
string(SUBSTRING "${golden}" 0 ${header_len} golden_header)
if(NOT golden_header STREQUAL header)
  message(FATAL_ERROR "${GOLDEN} does not start with the expected header")
endif()
string(SUBSTRING "${golden}" ${header_len} -1 expected)
if(NOT expected STREQUAL actual)
  get_filename_component(name "${GOLDEN}" NAME)
  set(actual_file "${CMAKE_CURRENT_BINARY_DIR}/${name}.actual")
  file(WRITE "${actual_file}" "${header}${actual}")
  message(FATAL_ERROR "inspect_transform --source output differs from ${GOLDEN}\n"
                      "  actual output: ${actual_file}\n"
                      "  compare with:  diff ${GOLDEN} ${actual_file}")
endif()
