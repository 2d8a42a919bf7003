# tools/check_digests.py on two fixture run directories against one
# reference: the run that reproduces every digest and count must exit 0, the
# run with one flipped count must exit 1 and name the count.
#
#   cmake -DPYTHON=<python3> -DSCRIPT=<check_digests.py> -DFIXTURES=<dir>
#         -P check_digests.cmake
execute_process(
  COMMAND ${PYTHON} ${SCRIPT} ${FIXTURES}/equal ${FIXTURES}/reference
  OUTPUT_VARIABLE equal_out ERROR_VARIABLE equal_err
  RESULT_VARIABLE equal_rc)
execute_process(
  COMMAND ${PYTHON} ${SCRIPT} ${FIXTURES}/flipped ${FIXTURES}/reference
  OUTPUT_VARIABLE flipped_out ERROR_VARIABLE flipped_err
  RESULT_VARIABLE flipped_rc)

string(FIND "${flipped_err}" "counts.messages" named)
if(NOT equal_rc EQUAL 0 OR NOT flipped_rc EQUAL 1 OR named EQUAL -1)
  message(FATAL_ERROR "check_digests.py gave the wrong verdicts\n"
    "equal run (exit ${equal_rc}, want 0):\n${equal_out}${equal_err}\n"
    "flipped run (exit ${flipped_rc}, want 1):\n${flipped_out}${flipped_err}")
endif()
