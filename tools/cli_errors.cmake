# Exercises the CLI failure paths hardened by the durable-data-dir,
# config-parse and numeric-flag audits: missing/empty/invalid
# directories, malformed configs and out-of-range numeric flags must
# exit nonzero with a message naming the problem — no abort, no silent
# success, no side effects (a missing --dir must not be created as an
# empty data directory).
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

function(run_expect expected_rc out_var)
    execute_process(COMMAND ${ARGN}
                    WORKING_DIRECTORY ${WORK_DIR}
                    RESULT_VARIABLE rc
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(NOT rc EQUAL ${expected_rc})
        message(FATAL_ERROR
            "${ARGN} exited ${rc}, expected ${expected_rc}: ${out}${err}")
    endif()
    set(${out_var} "${out}${err}" PARENT_SCOPE)
endfunction()

# --- sleuth wal: data-directory validation. ---

# A missing directory is an error and must NOT be created on the side.
run_expect(1 out ${SLEUTH_BIN} wal --dir ${WORK_DIR}/no-such-dir --verify)
if(NOT out MATCHES "does not exist")
    message(FATAL_ERROR "missing-dir error absent: ${out}")
endif()
if(EXISTS ${WORK_DIR}/no-such-dir)
    message(FATAL_ERROR "wal --verify created the missing data dir")
endif()

# A regular file where the directory should be.
file(WRITE ${WORK_DIR}/a-file "not a directory")
run_expect(1 out ${SLEUTH_BIN} wal --dir ${WORK_DIR}/a-file)
if(NOT out MATCHES "not a directory")
    message(FATAL_ERROR "file-as-dir error absent: ${out}")
endif()

# No --dir at all.
run_expect(1 out ${SLEUTH_BIN} wal)
if(NOT out MATCHES "requires --dir")
    message(FATAL_ERROR "missing --dir error absent: ${out}")
endif()

# An existing empty directory is a valid (trivial) store, not an error.
file(MAKE_DIRECTORY ${WORK_DIR}/empty-store)
run_expect(0 out ${SLEUTH_BIN} wal --dir ${WORK_DIR}/empty-store --verify)
if(NOT out MATCHES "empty data directory")
    message(FATAL_ERROR "empty-store summary absent: ${out}")
endif()

# --- sleuth infer: input validation. ---

run_expect(1 out ${SLEUTH_BIN} infer --traces ${WORK_DIR}/missing.json
           --out ${WORK_DIR}/m.json)
if(NOT out MATCHES "cannot read")
    message(FATAL_ERROR "missing-traces error absent: ${out}")
endif()

run_expect(1 out ${SLEUTH_BIN} infer --store ${WORK_DIR}/no-such-dir
           --out ${WORK_DIR}/m.json)
if(NOT out MATCHES "does not exist")
    message(FATAL_ERROR "missing-store error absent: ${out}")
endif()

run_expect(1 out ${SLEUTH_BIN} infer --store ${WORK_DIR}/empty-store
           --out ${WORK_DIR}/m.json)
if(NOT out MATCHES "no recoverable state")
    message(FATAL_ERROR "empty-store infer error absent: ${out}")
endif()

# --- JSON input: nesting far past the parser's depth limit is a clean
# parse error, not a stack overflow. ---

string(REPEAT "[" 100000 deep)
file(WRITE ${WORK_DIR}/deep.json "${deep}")
run_expect(1 out ${SLEUTH_BIN} ingest --traces ${WORK_DIR}/deep.json)
if(NOT out MATCHES "nesting too deep at offset 256")
    message(FATAL_ERROR "deep-nesting error absent: ${out}")
endif()

# --- Config parsing: a malformed enum is a recoverable per-field
# error naming the offending path, not an opaque abort. ---

run_expect(0 out ${SLEUTH_BIN} generate --rpcs 12 --seed 3 --out ${WORK_DIR}/app)
file(READ ${WORK_DIR}/app/config.json config)
string(REGEX REPLACE "\"tier\": \"frontend\"" "\"tier\": \"edge\""
       config "${config}")
file(WRITE ${WORK_DIR}/bad-tier.json "${config}")
run_expect(1 out ${SLEUTH_BIN} simulate --config ${WORK_DIR}/bad-tier.json
           --count 5 --out ${WORK_DIR}/t.json)
if(NOT out MATCHES "tier: unknown tier 'edge'")
    message(FATAL_ERROR "bad-tier error did not name the field: ${out}")
endif()

# --- Numeric flags: the whole value must parse and fall inside the
# flag's range. Each case used to abort on an uncaught std::stoll /
# std::stod exception, wrap a negative through a size_t cast, or accept
# a trailing-garbage prefix; each must now exit 1 naming the flag. ---

run_expect(0 out ${SLEUTH_BIN} simulate --config ${WORK_DIR}/app/config.json
           --count 20 --out ${WORK_DIR}/t.json)
run_expect(0 out ${SLEUTH_BIN} train --traces ${WORK_DIR}/t.json
           --out ${WORK_DIR}/model.json --epochs 1)

function(expect_flag_error flag)
    run_expect(1 out ${ARGN})
    if(NOT out MATCHES "fatal: ${flag} wants ")
        message(FATAL_ERROR "${ARGN}: no range error naming ${flag}: ${out}")
    endif()
endfunction()

set(sim ${SLEUTH_BIN} simulate --config ${WORK_DIR}/app/config.json
    --out ${WORK_DIR}/x.json)
expect_flag_error(--count ${sim} --count -1)
expect_flag_error(--count ${sim} --count 99999999999999999999)
expect_flag_error(--chaos ${sim} --chaos abc)
expect_flag_error(--rpcs ${SLEUTH_BIN} generate --rpcs abc --out ${WORK_DIR}/g)
expect_flag_error(--rpcs ${SLEUTH_BIN} generate --rpcs 0 --out ${WORK_DIR}/g)
expect_flag_error(--threads ${SLEUTH_BIN} analyze --model ${WORK_DIR}/model.json
                  --traces ${WORK_DIR}/t.json --threads -1)
expect_flag_error(--slo ${SLEUTH_BIN} ingest --traces ${WORK_DIR}/t.json --slo 5x)
expect_flag_error(--epochs ${SLEUTH_BIN} train --traces ${WORK_DIR}/t.json
                  --out ${WORK_DIR}/m2.json --epochs -3)
expect_flag_error(--rpcs ${SERVICED_BIN} --rpcs abc)
expect_flag_error(--requests ${SERVICED_BIN} --requests -5)

# More faults than the generated cluster has containers.
run_expect(1 out ${SERVICED_BIN} --faults 999)
if(NOT out MATCHES "--faults 999 exceeds the")
    message(FATAL_ERROR "serviced --faults error absent: ${out}")
endif()

# --- sleuth_serviced --data-dir: an uncreatable path fails up front,
# before the expensive warmup/training phases. ---

run_expect(1 out ${SERVICED_BIN} --data-dir /dev/null/sub)
if(NOT out MATCHES "cannot create data directory")
    message(FATAL_ERROR "serviced data-dir error absent: ${out}")
endif()
