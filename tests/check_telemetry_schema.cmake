# Telemetry schema contract: every document tcfrun exports passes
# tools/validate_metrics.py, the consumer-side schema check.
#
# Invoked via `cmake -DTCFRUN=<path> -DPYTHON=<python3> -DVALIDATOR=<path>
# -DPROG=<scan.tcf> -DFAULT_PROG=<fault_div.tcf> -DOUT=<dir> -P`.
# One run of PROG writes the metrics, trace, profile and stream documents;
# a faulting run of FAULT_PROG writes a post-mortem. The validator flags are
# the ones the CI telemetry, streaming and debugger smokes use.

foreach(var TCFRUN PYTHON VALIDATOR PROG FAULT_PROG OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_telemetry_schema: -D${var}=... is required")
  endif()
endforeach()
file(MAKE_DIRECTORY "${OUT}")

function(run_checked expected_rc)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL expected_rc)
    message(FATAL_ERROR
            "expected exit ${expected_rc}, got ${rc}: ${ARGN}\n${out}${err}")
  endif()
endfunction()

# 1. A completed run with every exporter on.
run_checked(0 "${TCFRUN}" "${PROG}" --host-threads=2 --sample-every=8
            "--metrics-json=${OUT}/metrics.json"
            "--trace-json=${OUT}/trace.json"
            "--profile=${OUT}/profile.json"
            "--stream=${OUT}/run.stream" --stream-every=8)
run_checked(0 "${PYTHON}" "${VALIDATOR}"
            --metrics "${OUT}/metrics.json"
            --trace "${OUT}/trace.json"
            --profile "${OUT}/profile.json")
run_checked(0 "${PYTHON}" "${VALIDATOR}"
            --stream "${OUT}/run.stream" --metrics "${OUT}/metrics.json")

# 2. A faulting run's post-mortem.
run_checked(1 "${TCFRUN}" "${FAULT_PROG}"
            "--post-mortem=${OUT}/fault.postmortem.json")
run_checked(0 "${PYTHON}" "${VALIDATOR}"
            --postmortem "${OUT}/fault.postmortem.json")
