# Pins one figure bench's output: runs `<BENCH> 0.05 42 --json <report>`
# and compares
#   - its stdout (minus the "wrote JSON report" line) with
#     <GOLDEN_DIR>/<NAME>.txt, and
#   - the SHA-256 of its JSON report, with every "telemetry" object
#     (wall-clock, thread count) removed, with <GOLDEN_DIR>/<NAME>.json.sha256.
#
#   cmake -DBENCH=<binary> -DNAME=<bench name> -DGOLDEN_DIR=<dir>
#         -DOUT_DIR=<scratch dir> [-DUPDATE=1] -P figure_golden.cmake
#
# On a mismatch the actual stdout and stripped report are left in OUT_DIR
# for diffing. UPDATE=1 rewrites the goldens instead of comparing.

file(MAKE_DIRECTORY ${OUT_DIR})
set(report ${OUT_DIR}/${NAME}.json)
execute_process(COMMAND ${BENCH} 0.05 42 --json ${report}
    OUTPUT_VARIABLE stdout RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${NAME} exited with ${rc}")
endif()
string(REGEX REPLACE "wrote JSON report: [^\n]*\n" "" stdout "${stdout}")

file(READ ${report} json)
string(REGEX REPLACE ",\"telemetry\":{[^}]*}" "" json "${json}")
string(SHA256 digest "${json}")

if(UPDATE)
    file(WRITE ${GOLDEN_DIR}/${NAME}.txt "${stdout}")
    file(WRITE ${GOLDEN_DIR}/${NAME}.json.sha256 "${digest}\n")
    return()
endif()

file(READ ${GOLDEN_DIR}/${NAME}.txt expected_stdout)
if(NOT stdout STREQUAL expected_stdout)
    file(WRITE ${OUT_DIR}/${NAME}.txt "${stdout}")
    message(FATAL_ERROR "${NAME}: stdout differs from the golden; compare "
        "${OUT_DIR}/${NAME}.txt with ${GOLDEN_DIR}/${NAME}.txt")
endif()
file(READ ${GOLDEN_DIR}/${NAME}.json.sha256 expected_digest)
string(STRIP "${expected_digest}" expected_digest)
if(NOT digest STREQUAL expected_digest)
    file(WRITE ${OUT_DIR}/${NAME}.stripped.json "${json}")
    message(FATAL_ERROR "${NAME}: JSON report differs from the golden "
        "digest; the stripped report is ${OUT_DIR}/${NAME}.stripped.json")
endif()
