# Re-runs one golden report and compares it byte for byte with the
# checked-in corpus file.
#
#   cmake -DSWEEP=<mango_sweep> "-DARGS=<sweep flags>" -DGOLDEN=<file>
#         -DOUT=<scratch file> -P compare.cmake
#
# ARGS is a space-separated flag list; the script appends
# --jobs 1 --stable --quiet --out OUT. A nonzero mango_sweep exit or
# any byte difference fails.
foreach(var SWEEP ARGS GOLDEN OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compare.cmake: -D${var}=... is required")
  endif()
endforeach()

separate_arguments(sweep_args UNIX_COMMAND "${ARGS}")
# A stale report from an earlier run must never pass for this one.
file(REMOVE "${OUT}")
get_filename_component(out_dir "${OUT}" DIRECTORY)
file(MAKE_DIRECTORY "${out_dir}")
execute_process(
  COMMAND "${SWEEP}" ${sweep_args} --jobs 1 --stable --quiet --out "${OUT}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "mango_sweep ${ARGS} exited with ${rc}")
endif()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${OUT}"
  RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR
          "mango_sweep ${ARGS} differs from ${GOLDEN}; "
          "compare with: diff ${GOLDEN} ${OUT}")
endif()
