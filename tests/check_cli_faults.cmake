# Exit-code and fault-tolerance contract of rocqr_cli (docs/FAULTS.md):
# distinct exit codes per failure class, checkpoint files written and
# resumable. Driven by ctest; patterned on check_trace_json.cmake.

function(expect_exit code what)
  execute_process(
    COMMAND ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL ${code})
    message(FATAL_ERROR
            "${what}: expected exit ${code}, got '${rc}':\n${out}${err}")
  endif()
  set(last_output "${out}" PARENT_SCOPE)
endfunction()

# 3: configuration error (rejected by QrOptions::validate).
expect_exit(3 "config error"
  ${ROCQR_CLI} qr --algo blocking --m 1024 --n 1024 --blocksize 0)

# 3: malformed fault spec (rejected by FaultPlan::parse).
expect_exit(3 "bad fault spec"
  ${ROCQR_CLI} qr --algo blocking --m 1024 --n 1024 --blocksize 256
  --faults not-a-spec)

# 5: every H2D transfer fails and the bounded retries run out.
expect_exit(5 "fault budget exhausted"
  ${ROCQR_CLI} qr --algo blocking --m 4096 --n 4096 --blocksize 1024
  --faults h2d:transient:p=1)

# 4: a 16384-wide fp32 panel cannot fit a 1 GiB device; the driver-level
# allocation does not degrade, so the OOM surfaces with its own exit code.
expect_exit(4 "device out of memory"
  ${ROCQR_CLI} qr --algo blocking --m 131072 --n 131072 --blocksize 16384
  --capacity-gib 1)

# 0: benign run writes panel checkpoints, and the file restarts cleanly.
set(ckpt "${WORK_DIR}/cli_faults.ckpt")
file(REMOVE ${ckpt})
expect_exit(0 "checkpoint run"
  ${ROCQR_CLI} qr --algo blocking --m 8192 --n 8192 --blocksize 2048
  --checkpoint ${ckpt})
if(NOT EXISTS ${ckpt})
  message(FATAL_ERROR "checkpoint file was not written: ${ckpt}")
endif()
expect_exit(0 "resume run"
  ${ROCQR_CLI} qr --algo blocking --m 8192 --n 8192 --blocksize 2048
  --resume ${ckpt})
file(REMOVE ${ckpt})

# 0: a mid-run checkpoint (unit 3, --checkpoint-every 3) of each other
# single-device algorithm round-trips through the file and resumes through
# qr::resume's dispatch. Both runs take the same shape options: the unit
# numbering depends on them.
function(round_trip algo)
  set(ckpt_file "${WORK_DIR}/cli_faults_${algo}.ckpt")
  file(REMOVE ${ckpt_file})
  expect_exit(0 "${algo} checkpoint run"
    ${ROCQR_CLI} qr --algo ${algo} ${ARGN} --checkpoint-every 3
    --checkpoint ${ckpt_file})
  expect_exit(0 "${algo} resume run"
    ${ROCQR_CLI} qr --algo ${algo} ${ARGN} --resume ${ckpt_file})
  string(FIND "${last_output}" "resuming ${algo} QR from unit 3" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
            "${algo} resume run did not resume from unit 3:\n${last_output}")
  endif()
  file(REMOVE ${ckpt_file})
endfunction()

round_trip(left --m 8192 --n 4096 --blocksize 1024)
round_trip(tiled --m 8192 --n 4096 --blocksize 1024)
round_trip(recursive --m 16384 --n 8192 --blocksize 512 --capacity-gib 1)
