# CLI smoke test: drives trajsearch_cli end to end on a tiny corpus and fails
# on any non-zero exit. Run as
#   cmake -DCLI=<path to trajsearch_cli> -DWORK=<scratch dir> -P cli_smoke.cmake
# (ctest registers it as `cli_smoke` when examples are built).

if(NOT CLI OR NOT WORK)
  message(FATAL_ERROR "usage: cmake -DCLI=<trajsearch_cli> -DWORK=<dir> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# Runs the CLI with the given arguments inside WORK; stores stdout in OUT.
function(run_cli)
  list(JOIN ARGN " " command)
  execute_process(COMMAND "${CLI}" ${ARGN}
    WORKING_DIRECTORY "${WORK}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  message(STATUS "trajsearch_cli ${command}\n${out}${err}")
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "trajsearch_cli ${command} exited with ${rc}")
  endif()
  set(OUT "${out}" PARENT_SCOPE)
endfunction()

# Fails unless the last run's stdout contains `needle`.
function(expect_output needle)
  string(FIND "${OUT}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "expected \"${needle}\" in the output above")
  endif()
endfunction()

run_cli(generate --profile=porto --count=40 --seed=3 --out=corpus.csv)
run_cli(generate --count=6 --seed=5 --out=queries.csv)

run_cli(snapshot --in=corpus.csv --out=pooled.snap)
run_cli(snapshot --in=corpus.csv --out=packed.snap --compress)
run_cli(stats --data=pooled.snap)
expect_output("snapshot:     v4")
expect_output("corpus:       40 trajectories")
run_cli(stats --data=packed.snap)
expect_output("tier:         compressed columns")

run_cli(search --data=pooled.snap --query-id=3 --from=2 --to=10 --dist=dtw
        --k=2 --gbp=false)
run_cli(search --data=packed.snap --query-file=queries.csv --dist=erp --k=2)
run_cli(batch --data=pooled.snap --queries=queries.csv --shards=2 --repeat=2)

# A live service saves one flattened snapshot: base ids, then the delta.
run_cli(ingest --data=pooled.snap --add=queries.csv --out=live.snap)
run_cli(stats --data=live.snap)
expect_output("corpus:       46 trajectories")
run_cli(snapshot --in=live.snap --out=live.csv)
