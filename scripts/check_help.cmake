# Golden test for `serep <subcommand> --help` (and the bare overview).
#
# Usage: cmake -DSEREP_BIN=... -DGOLDEN_DIR=.../tests/golden -P check_help.cmake
#
# Regenerating after an intentional help change:
#   for s in "" run plan fleet report version; do
#     build/serep $s --help > tests/golden/help_${s:-overview}.txt
#   done
# (the empty subcommand writes help_overview.txt)
if(NOT SEREP_BIN OR NOT GOLDEN_DIR)
  message(FATAL_ERROR "check_help.cmake needs -DSEREP_BIN and -DGOLDEN_DIR")
endif()

set(failed "")
foreach(sub overview run plan fleet report version)
  if(sub STREQUAL "overview")
    execute_process(COMMAND ${SEREP_BIN} --help
                    OUTPUT_VARIABLE got RESULT_VARIABLE rc)
  else()
    execute_process(COMMAND ${SEREP_BIN} ${sub} --help
                    OUTPUT_VARIABLE got RESULT_VARIABLE rc)
  endif()
  if(NOT rc EQUAL 0)
    list(APPEND failed "${sub}: --help exited ${rc} (must be 0)")
    continue()
  endif()
  set(golden_file ${GOLDEN_DIR}/help_${sub}.txt)
  if(NOT EXISTS ${golden_file})
    list(APPEND failed "${sub}: missing golden ${golden_file}")
    continue()
  endif()
  file(READ ${golden_file} want)
  if(NOT got STREQUAL want)
    list(APPEND failed "${sub}: help text drifted from ${golden_file}")
  endif()
endforeach()

if(failed)
  string(JOIN "\n  " msg ${failed})
  message(FATAL_ERROR
          "help goldens out of date:\n  ${msg}\n"
          "regenerate with the loop in scripts/check_help.cmake's header "
          "after reviewing the change")
endif()
message(STATUS "help goldens match")
