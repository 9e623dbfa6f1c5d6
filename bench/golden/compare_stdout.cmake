# Run BENCH and fail unless its stdout equals the file GOLDEN byte for byte.
#   cmake -DBENCH=<binary> -DGOLDEN=<file> -P compare_stdout.cmake
execute_process(COMMAND ${BENCH} OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
    get_filename_component(name ${GOLDEN} NAME)
    file(WRITE ${name}.actual "${actual}")
    message(FATAL_ERROR "stdout of ${BENCH} differs from ${GOLDEN}; "
                        "it is saved as ${name}.actual in the test directory")
endif()
