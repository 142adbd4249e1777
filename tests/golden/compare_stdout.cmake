# Runs one program and compares its stdout byte for byte with the
# checked-in golden file.
#
#   cmake -DPROGRAM=<executable> [-DARGS=<arg;...>] -DGOLDEN=<file>
#         -DOUT=<scratch file> -P compare_stdout.cmake
#
# A nonzero exit or any byte difference fails.
foreach(var PROGRAM GOLDEN OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compare_stdout.cmake: -D${var}=... is required")
  endif()
endforeach()

# A stale output from an earlier run must never pass for this one.
file(REMOVE "${OUT}")
get_filename_component(out_dir "${OUT}" DIRECTORY)
file(MAKE_DIRECTORY "${out_dir}")
execute_process(COMMAND "${PROGRAM}" ${ARGS} OUTPUT_FILE "${OUT}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with ${rc}")
endif()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${OUT}"
  RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR
          "${PROGRAM} stdout differs from ${GOLDEN}; "
          "compare with: diff ${GOLDEN} ${OUT}")
endif()
