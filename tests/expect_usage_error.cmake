# Runs one bench command line and passes only when it exits with
# status 2 and names FLAG on stderr: the contract for a malformed
# command-line flag.
#
#   cmake -DFLAG=--workers "-DCMD=<binary>|--workers|abc" \
#         -P expect_usage_error.cmake
#
# CMD separates its arguments with '|' so it survives as one -D value.

string(REPLACE "|" ";" cmd "${CMD}")
execute_process(COMMAND ${cmd}
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR "expected exit status 2, got '${rc}'\n${err}")
endif()
string(FIND "${err}" "${FLAG}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "stderr does not name ${FLAG}:\n${err}")
endif()
