# A fleet run repeats exactly: `rocqr_cli serve` run three times on one job
# list writes byte-identical fleet reports, last_device and per-device
# totals included (docs/SERVING.md "Simulated-time event ordering").
# Driven by ctest; patterned on check_cli_faults.cmake.

set(first "${WORK_DIR}/cli_serve_repeat_1.json")
foreach(run 1 2 3)
  set(report "${WORK_DIR}/cli_serve_repeat_${run}.json")
  file(REMOVE ${report})
  execute_process(
    COMMAND ${ROCQR_CLI} serve --jobs ${JOBS} --devices 4 --max-fused 4
            --report ${report}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "serve run ${run}: expected exit 0, got '${rc}':\n"
                        "${out}${err}")
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${first} ${report}
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "serve run ${run} wrote a report that differs from "
                        "run 1: ${report} vs ${first}")
  endif()
endforeach()
foreach(run 1 2 3)
  file(REMOVE "${WORK_DIR}/cli_serve_repeat_${run}.json")
endforeach()
