# Fault-tolerance smoke test for cenn_batch: a fault-free reference
# run records per-job checksums, then the same manifest is run with
# injected faults (a simulated crash at step 20 and a state-bit flip
# at step 40, in every job) under --guard --max-retries=2. The batch
# must exit 0 with every job recovered/retried to the reference
# checksum — corrupt state must never survive into a final state or a
# checkpoint.
#
# The faulted run also streams per-job live metrics; each stream must
# validate under cenn_metrics_check (each retry attempt truncates and
# restarts its job's stream, so the surviving file is the last
# attempt's complete start..exit record).
#
# Invoked by ctest as:
#   cmake -DCENN_BATCH=<exe> -DCENN_METRICS_CHECK=<exe> -DWORK_DIR=<dir>
#         -P cenn_batch_faults_smoke.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

file(WRITE "${WORK_DIR}/manifest.txt"
"# fault-tolerance smoke manifest
model=heat
name=ft_heat
rows=12
cols=12
steps=60

model=reaction_diffusion
name=ft_rd
rows=12
cols=12
steps=60
exec=functional:double
")

execute_process(
    COMMAND "${CENN_BATCH}" --manifest=${WORK_DIR}/manifest.txt
            --out=${WORK_DIR}/ref --threads=2
            --csv=${WORK_DIR}/ref.csv
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out_ref
    ERROR_VARIABLE err_ref)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "reference run failed (${rc}):\n${out_ref}\n${err_ref}")
endif()

execute_process(
    COMMAND "${CENN_BATCH}" --manifest=${WORK_DIR}/manifest.txt
            --out=${WORK_DIR}/ft --threads=2
            --checkpoint-every=10 --guard --guard-check-every=1
            --max-retries=2 --retry-backoff-ms=1
            --fault-inject=crash@20,flip@40
            --metrics-out=${WORK_DIR}/ft/metrics --metrics-interval-ms=5
            --csv=${WORK_DIR}/ft.csv
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out_ft
    ERROR_VARIABLE err_ft)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "faulted run failed (${rc}):\n${out_ft}\n${err_ft}")
endif()

file(READ "${WORK_DIR}/ref.csv" ref_csv)
file(READ "${WORK_DIR}/ft.csv" ft_csv)

foreach(job ft_heat ft_rd)
  # CSV row: name,model,engine,status,attempts,steps_done,
  #          steps_executed,checksum,...
  string(REGEX MATCH
         "${job},[^,]+,[^,]+,([a-z]+),([0-9]+),([0-9]+),[0-9]+,([0-9]+),"
         ref_row "${ref_csv}")
  if(NOT ref_row)
    message(FATAL_ERROR "no reference row for ${job}:\n${ref_csv}")
  endif()
  set(ref_checksum "${CMAKE_MATCH_4}")

  string(REGEX MATCH
         "${job},[^,]+,[^,]+,([a-z]+),([0-9]+),([0-9]+),[0-9]+,([0-9]+),"
         ft_row "${ft_csv}")
  if(NOT ft_row)
    message(FATAL_ERROR "no faulted row for ${job}:\n${ft_csv}")
  endif()
  set(ft_status "${CMAKE_MATCH_1}")
  set(ft_attempts "${CMAKE_MATCH_2}")
  set(ft_checksum "${CMAKE_MATCH_4}")

  if(NOT ft_status MATCHES "^(recovered|retried)$")
    message(FATAL_ERROR
            "${job}: expected recovered/retried, got '${ft_status}':\n${ft_csv}")
  endif()
  if(ft_attempts LESS 2)
    message(FATAL_ERROR "${job}: expected >= 2 attempts, got ${ft_attempts}")
  endif()
  if(NOT ft_checksum STREQUAL ref_checksum)
    message(FATAL_ERROR
            "${job}: checksum ${ft_checksum} != fault-free ${ref_checksum}")
  endif()
  message(STATUS
          "${job}: ${ft_status} after ${ft_attempts} attempts, "
          "checksum matches fault-free run")
endforeach()

# Per-job metrics streams from the faulted run: tiny jobs may yield
# only the start/exit bookends, so just require a well-formed stream
# carrying the phase-timing and LUT families (these exist for every
# engine; kernels.traffic.* is soa-only and the manifest runs the
# functional engines).
foreach(job ft_heat ft_rd)
  execute_process(
      COMMAND "${CENN_METRICS_CHECK}"
              ${WORK_DIR}/ft/metrics/${job}.metrics.jsonl
              --require=shard0.,lut.interp.,health.
      RESULT_VARIABLE rc
      OUTPUT_VARIABLE out_chk
      ERROR_VARIABLE err_chk)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "metrics check failed for ${job} (${rc}):\n${out_chk}\n${err_chk}")
  endif()
endforeach()

message(STATUS "SMOKE_PASS: faulted batch recovered to fault-free checksums")
