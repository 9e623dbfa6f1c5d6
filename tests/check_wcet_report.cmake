# Certify every bundled firmware image and fail on any certificate with an
# unbounded per-activation WCET, an unbounded stack or an unproven
# text-segment write separation.
#   cmake -DCLI=<rosebud_cli> -DREPORT=<file> -P check_wcet_report.cmake
execute_process(COMMAND ${CLI} verify --wcet --json ${REPORT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${CLI} verify --wcet exited with ${rc}")
endif()
file(READ ${REPORT} report)
foreach(bad [["wcet":{"bounded":false]] [["stack":{"bounded":false]]
            [["text_write_separation":false]])
    string(FIND "${report}" "${bad}" at)
    if(NOT at EQUAL -1)
        message(FATAL_ERROR "${REPORT} contains ${bad}")
    endif()
endforeach()
