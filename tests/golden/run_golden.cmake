# Runs one row of tests/golden/digests.txt and compares its stdout with the
# row's expected file:
#
#   cmake -DEXPECTED=<file.out> -DWORKDIR=<repo root> -P run_golden.cmake \
#         -- <tool> [args...]
#
# Passes iff the command exits 0 and its stdout equals EXPECTED byte for
# byte. On a mismatch both outputs are printed.
cmake_minimum_required(VERSION 3.16)

set(command "")
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "run_golden.cmake: no command after --")
endif()

execute_process(COMMAND ${command}
                WORKING_DIRECTORY "${WORKDIR}"
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE exit_code)
file(READ "${EXPECTED}" expected)

# message(NOTICE) prints verbatim; FATAL_ERROR would reflow the outputs.
list(JOIN command " " shown)
if(NOT exit_code STREQUAL "0")
  message(NOTICE "---- stdout ----\n${actual}")
  message(FATAL_ERROR "golden: `${shown}` exited with ${exit_code}")
endif()
if(NOT actual STREQUAL expected)
  message(NOTICE "---- expected (${EXPECTED}) ----\n${expected}"
                 "---- actual ----\n${actual}")
  message(FATAL_ERROR "golden: stdout of `${shown}` differs from ${EXPECTED}")
endif()
