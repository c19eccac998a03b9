# Usage-text contract of every command-line tool: a usage error exits 2
# with its diagnostic and the option list on stderr and nothing on stdout
# (stdout may be a --metrics-json=- or --profile=- document), and --help
# prints the option list to stdout and exits 0.
#
# Invoked via `cmake -DTOOLS=<dir> -DPROG=<vecadd.tcf> -DASM=<.s> -P`.

foreach(var TOOLS PROG ASM)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_cli_usage: -D${var}=... is required")
  endif()
endforeach()

# expect_usage_error(<label> <command...>): exit 2, empty stdout, stderr set.
function(expect_usage_error label)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${label}: expected exit 2, got ${rc}\n${out}${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "${label}: usage error wrote to stdout:\n${out}")
  endif()
  if(err STREQUAL "")
    message(FATAL_ERROR "${label}: usage error left stderr empty")
  endif()
endfunction()

# expect_help(<label> <command...>): exit 0 with the usage on stdout.
function(expect_help label)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${label}: expected exit 0, got ${rc}\n${out}${err}")
  endif()
  if(NOT out MATCHES "usage: ")
    message(FATAL_ERROR "${label}: --help printed no usage to stdout:\n${out}")
  endif()
endfunction()

expect_usage_error("tcfrun unknown flag"
  "${TOOLS}/tcfrun" "${PROG}" "--bogus" "--metrics-json=-")
expect_usage_error("tcfrun no arguments" "${TOOLS}/tcfrun")
expect_usage_error("tcfasm unknown flag"
  "${TOOLS}/tcfasm" "${ASM}" "--bogus" "--metrics-json=-")
expect_usage_error("tcfprof unknown flag"
  "${TOOLS}/tcfprof" "${PROG}" "--bogus" "--report=json")
expect_usage_error("tcfprof unknown flag before --help"
  "${TOOLS}/tcfprof" "${PROG}" "--bogus" "--help")
expect_usage_error("tcfdbg unknown flag" "${TOOLS}/tcfdbg" "${PROG}" "--bogus")
expect_usage_error("tcffuzz unknown flag" "${TOOLS}/tcffuzz" "--bogus")
expect_usage_error("tcfmon unknown flag" "${TOOLS}/tcfmon" "--bogus")
expect_usage_error("tcfmon no source" "${TOOLS}/tcfmon")
expect_usage_error("tcfmon non-numeric refresh"
  "${TOOLS}/tcfmon" "--refresh=abc" "--once" "${PROG}")
expect_usage_error("tcfmon zero refresh"
  "${TOOLS}/tcfmon" "--refresh=0" "--once" "${PROG}")
expect_usage_error("tcfmon overflowing refresh"
  "${TOOLS}/tcfmon" "--refresh=99999999999999999999" "--once" "${PROG}")
expect_usage_error("tcfpaper unknown flag" "${TOOLS}/tcfpaper" "--bogus")
expect_usage_error("tcfpaper unknown artefact" "${TOOLS}/tcfpaper" "F5")

expect_help("tcfrun --help" "${TOOLS}/tcfrun" "--help")
expect_help("tcfasm --help" "${TOOLS}/tcfasm" "--help")
expect_help("tcfprof --help" "${TOOLS}/tcfprof" "--help")
expect_help("tcfdbg --help" "${TOOLS}/tcfdbg" "--help")
expect_help("tcffuzz --help" "${TOOLS}/tcffuzz" "--help")
expect_help("tcfmon --help" "${TOOLS}/tcfmon" "--help")
expect_help("tcfpaper --help" "${TOOLS}/tcfpaper" "--help")

message(STATUS "check_cli_usage: all assertions passed")
