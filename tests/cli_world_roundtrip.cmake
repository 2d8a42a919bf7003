# Round trip through p2paqp_cli's world-file flags: build a world, save it
# and answer one query; then load the file and answer the same query. Both
# runs query the same world, so their exact (oracle) answers must match.
#
#   cmake -DCLI=<p2paqp_cli> -DWORLD=<file> -P cli_world_roundtrip.cmake
set(query "SELECT COUNT(*) FROM T WHERE A BETWEEN 1 AND 30")
execute_process(
  COMMAND ${CLI} --peers=2000 --edges=8000 "--save-world=${WORLD}"
          "--query=${query}"
  OUTPUT_VARIABLE saved_out RESULT_VARIABLE saved_rc)
execute_process(
  COMMAND ${CLI} "--load-world=${WORLD}" "--query=${query}"
  OUTPUT_VARIABLE loaded_out RESULT_VARIABLE loaded_rc)
file(REMOVE ${WORLD})

string(REGEX MATCH "oracle +: [0-9.]+" saved "${saved_out}")
string(REGEX MATCH "oracle +: [0-9.]+" loaded "${loaded_out}")
if(NOT saved_rc EQUAL 0 OR NOT loaded_rc EQUAL 0 OR saved STREQUAL ""
   OR NOT saved STREQUAL loaded)
  message(FATAL_ERROR "world round trip diverged\n"
    "save run (exit ${saved_rc}):\n${saved_out}\n"
    "load run (exit ${loaded_rc}):\n${loaded_out}")
endif()
message(STATUS "save run ${saved}; load run ${loaded}")
