# Runs `mvcom fabric --metrics-dir` into a fresh directory, with no
# coordinator registry, and checks that each of the two workers exported a
# Prometheus file that counts the DES events of its lanes.
#
# Usage: cmake -DMVCOM=<path to mvcom> -DDIR=<scratch directory>
#              -P fabric_metrics_dir_check.cmake
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
execute_process(
  COMMAND "${MVCOM}" fabric --epochs 4 --workers 2 --seed 1
          --metrics-dir "${DIR}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
message("${out}${err}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "mvcom fabric --metrics-dir exited ${rc}")
endif()
if(NOT out MATCHES "verify: identical")
  message(FATAL_ERROR "mvcom fabric --metrics-dir did not verify")
endif()
foreach(worker 0 1)
  set(file "${DIR}/fabric-worker-${worker}.prom")
  if(NOT EXISTS "${file}")
    message(FATAL_ERROR "${file} was not written")
  endif()
  file(READ "${file}" text)
  if(NOT text MATCHES "mvcom_sim_events_total{stage=\"executed\"} [1-9]")
    message(FATAL_ERROR "${file} counts no executed DES events:\n${text}")
  endif()
endforeach()
