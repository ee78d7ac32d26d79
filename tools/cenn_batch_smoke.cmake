# Smoke test for cenn_batch: run a two-job manifest, then resume into
# the same directory and require both jobs to be served from their
# done markers (no recomputation).
#
# Invoked by ctest as:
#   cmake -DCENN_BATCH=<exe> -DWORK_DIR=<dir> -P cenn_batch_smoke.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

file(WRITE "${WORK_DIR}/manifest.txt"
"# smoke manifest
model=heat
name=smoke_heat
rows=12
cols=12
steps=25

model=reaction_diffusion
name=smoke_rd
rows=12
cols=12
steps=20
exec=functional:double:shards=2
")

execute_process(
    COMMAND "${CENN_BATCH}" --manifest=${WORK_DIR}/manifest.txt
            --out=${WORK_DIR}/out --threads=2
            --csv=${WORK_DIR}/results.csv
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out_fresh
    ERROR_VARIABLE err_fresh)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fresh run failed (${rc}):\n${out_fresh}\n${err_fresh}")
endif()

foreach(artifact out/smoke_heat.done out/smoke_rd.done
        out/smoke_heat.stats.txt results.csv)
  if(NOT EXISTS "${WORK_DIR}/${artifact}")
    message(FATAL_ERROR "missing artifact ${artifact} after fresh run")
  endif()
endforeach()

execute_process(
    COMMAND "${CENN_BATCH}" --manifest=${WORK_DIR}/manifest.txt
            --out=${WORK_DIR}/out --resume-from=${WORK_DIR}/out
            --csv=${WORK_DIR}/results_resume.csv
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out_resume
    ERROR_VARIABLE err_resume)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "resume run failed (${rc}):\n${out_resume}\n${err_resume}")
endif()

file(READ "${WORK_DIR}/results_resume.csv" resume_csv)
string(REGEX MATCHALL "cached" cached_rows "${resume_csv}")
list(LENGTH cached_rows num_cached)
if(NOT num_cached EQUAL 2)
  message(FATAL_ERROR
          "expected 2 cached jobs on resume, got ${num_cached}:\n${resume_csv}")
endif()
