# Live-metrics smoke test: cenn_run with --metrics-out must stream a
# valid cenn.metrics.v1 JSONL file — several interval samples plus the
# start/exit bookends, monotone counters with matching deltas, and the
# instrumentation families this PR promises (runtime.shard*,
# kernels.traffic.*, lut.interp.*) present in the exit snapshot.
# Validation is cenn_metrics_check, the same checker the batch fault
# smoke reuses on per-job streams.
#
# Invoked by ctest as:
#   cmake -DCENN_RUN=<exe> -DCENN_METRICS_CHECK=<exe> -DWORK_DIR=<dir>
#         -P cenn_metrics_smoke.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
    COMMAND "${CENN_RUN}" --model=reaction_diffusion --rows=128 --cols=128
            --steps=400 --exec=soa
            --metrics-out=${WORK_DIR}/run.metrics.jsonl
            --metrics-interval-ms=10
            --stats-out=${WORK_DIR}/run.stats.txt
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out_run
    ERROR_VARIABLE err_run)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "cenn_run failed (${rc}):\n${out_run}\n${err_run}")
endif()

# start + exit + at least three interval samples; the run takes a few
# hundred ms at this size so a 10 ms period leaves ample margin.
execute_process(
    COMMAND "${CENN_METRICS_CHECK}" ${WORK_DIR}/run.metrics.jsonl
            --min-samples=5
            --require=runtime.shard,kernels.traffic.,lut.interp.
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out_chk
    ERROR_VARIABLE err_chk)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "metrics check failed (${rc}):\n${out_chk}\n${err_chk}")
endif()

# The live stream and the end-of-run stats dump come from the same
# registry: every family in the exit snapshot must be in the dump too.
file(READ "${WORK_DIR}/run.stats.txt" stats_txt)
foreach(stat runtime.shard0.step_ns kernels.traffic.bytes_read
        lut.interp.accesses)
  if(NOT stats_txt MATCHES "${stat}")
    message(FATAL_ERROR "stat '${stat}' missing from run.stats.txt:\n"
            "${stats_txt}")
  endif()
endforeach()

message(STATUS "SMOKE_PASS: ${out_chk}")
