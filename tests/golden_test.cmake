# Golden-report check, run by ctest (see ltrf_golden_test() in the
# top-level CMakeLists.txt):
#
#   cmake -DEXE=<binary> -DDIR=<scratch dir> -DGOLDEN=<report>
#         -DARGS="<flags>" [-DSETUP="<flags>"] [-DRUNS=<n>]
#         -P golden_test.cmake
#
# Flags are space-separated, and "@DIR@" in them expands to DIR. The
# checked run must write its report to @DIR@/out.json, which has to
# be byte-identical to GOLDEN. SETUP runs once before it (a first
# shard to resume from); RUNS > 1 repeats the checked run in the same
# DIR, comparing every repetition (a cold, then a warm --cache-dir).

cmake_minimum_required(VERSION 3.16)

file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")

function(run_exe flags)
    string(REPLACE "@DIR@" "${DIR}" flags "${flags}")
    separate_arguments(argv UNIX_COMMAND "${flags}")
    execute_process(COMMAND "${EXE}" ${argv} RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${EXE} ${flags} exited with ${rc}")
    endif()
endfunction()

if(SETUP)
    run_exe("${SETUP}")
endif()
if(NOT RUNS)
    set(RUNS 1)
endif()
foreach(i RANGE 1 ${RUNS})
    run_exe("${ARGS}")
    execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                            "${DIR}/out.json" "${GOLDEN}"
                    RESULT_VARIABLE differs)
    if(differs)
        message(FATAL_ERROR
                "run ${i}: ${DIR}/out.json differs from ${GOLDEN}")
    endif()
endforeach()
