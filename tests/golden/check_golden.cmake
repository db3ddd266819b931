# Golden-output check for the paper's figure, table and ablation benches.
#
# Runs every binary named in GOLDEN_BENCHES from BIN_DIR, writes its stdout
# to OUT_DIR/<bench>.out, and byte-compares it with GOLDEN_DIR/<bench>.out.
# The benches print simulated time only, so their output is deterministic:
# any difference is a behaviour change.  Do not regenerate a golden file to
# absorb a shift without explaining the shift.
#
#   cmake -DBIN_DIR=build -DGOLDEN_DIR=tests/golden -DOUT_DIR=build/golden \
#         -P tests/golden/check_golden.cmake
#
# Regenerating (only for an intended change):
#   for b in <benches>; do build/$b > tests/golden/$b.out; done

set(GOLDEN_BENCHES
    bench_fig1_models
    bench_fig2_grev
    bench_fig3_cle
    bench_fig4_5_hierarchy
    bench_fig6_system
    bench_fig7_grev_protocol
    bench_fig8_locking
    bench_table1_design_space
    bench_table2_coercion
    bench_table3_overhead
    bench_ablation_cache
    bench_ablation_calls
    bench_ablation_chain
    bench_ablation_condensed
    bench_ablation_fairness
    bench_ablation_modern
    bench_ablation_payload
    bench_ablation_wan)

foreach(var BIN_DIR GOLDEN_DIR OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_golden.cmake: -D${var}=... is required")
  endif()
endforeach()

file(MAKE_DIRECTORY "${OUT_DIR}")
set(failed "")
foreach(bench IN LISTS GOLDEN_BENCHES)
  set(actual "${OUT_DIR}/${bench}.out")
  set(golden "${GOLDEN_DIR}/${bench}.out")
  execute_process(COMMAND "${BIN_DIR}/${bench}"
                  OUTPUT_FILE "${actual}"
                  RESULT_VARIABLE exit_code)
  if(NOT exit_code EQUAL 0)
    message(SEND_ERROR "${bench}: exited with '${exit_code}'")
    list(APPEND failed ${bench})
    continue()
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${golden}" "${actual}"
                  RESULT_VARIABLE differs)
  if(differs)
    message(SEND_ERROR "${bench}: stdout differs from ${golden}\n"
                       "  compare with: diff ${golden} ${actual}")
    list(APPEND failed ${bench})
  endif()
endforeach()

list(LENGTH GOLDEN_BENCHES total)
if(failed)
  list(LENGTH failed n_failed)
  message(FATAL_ERROR "${n_failed} of ${total} golden outputs changed: "
                      "${failed}")
endif()
message(STATUS "all ${total} golden outputs match")
