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

# --- Valid JSON that breaks the trace schema (each case used to abort,
# overflow int64 or store a garbage time). `ingest` rejects the payload
# as one malformed unit and exits 0; `train`, `infer`, `metrics` and
# records-format `ingest` exit 1 naming the field. ---

function(expect_payload_rejected protocol payload defect)
    file(WRITE ${WORK_DIR}/payload.json "${payload}")
    run_expect(0 out ${SLEUTH_BIN} ingest --traces ${WORK_DIR}/payload.json
               --protocol ${protocol})
    if(NOT out MATCHES "rejecting ${protocol} payload: ${defect}"
       OR NOT out MATCHES "malformed=1 ")
        message(FATAL_ERROR
                "${payload}: no malformed drop naming ${defect}: ${out}")
    endif()
endfunction()

expect_payload_rejected(zipkin [=[[{"id":"a","timestamp":1,"duration":2}]]=]
                        "\\[0\\]\\.traceId: missing field")
expect_payload_rejected(zipkin
    [=[[{"traceId":"t","id":"a","timestamp":"x","duration":2}]]=]
    "\\[0\\]\\.timestamp: expected a number")
expect_payload_rejected(zipkin
    [=[[{"traceId":"t","id":"a","timestamp":9e18,"duration":9e18}]]=]
    "\\[0\\]\\.timestamp: integer out of range")
expect_payload_rejected(zipkin
    [=[[{"traceId":"t","id":"a","timestamp":1e300,"duration":1}]]=]
    "\\[0\\]\\.timestamp: integer out of range")
expect_payload_rejected(jaeger
    [=[{"data":[{"traceID":"t","processes":{},"spans":[{"spanID":"a",
       "operationName":"o","startTime":1,"duration":2,"processID":"p",
       "tags":[{"key":"span.kind","value":7}]}]}]}]=]
    "data\\[0\\]\\.spans\\[0\\]\\.tags\\[0\\]\\.value: expected a string")
expect_payload_rejected(otel [=[[[]]]=] "\\[0\\]: expected an object")
expect_payload_rejected(otel
    [=[[{"traceId":"t","spans":[{"spanId":"a","service":"s","name":"n",
        "kind":"server","startUs":0,"endUs":5,"status":"ok"}]}]]=]
    "\\[0\\]\\.spans\\[0\\]\\.parentSpanId: missing field")
expect_payload_rejected(otel
    [=[[{"traceId":"t","spans":[{"spanId":"a","parentSpanId":"",
        "service":"s","name":"n","kind":"SERVER","startUs":0,"endUs":5,
        "status":"ok"}]}]]=]
    "\\[0\\]\\.spans\\[0\\]\\.kind: unknown span kind 'SERVER'")

function(expect_traces_rejected cmd file contents defect)
    file(WRITE ${WORK_DIR}/${file} "${contents}")
    run_expect(1 out ${SLEUTH_BIN} ${cmd} --traces ${WORK_DIR}/${file}
               --out ${WORK_DIR}/unused.json)
    if(NOT out MATCHES "fatal: .*${file}: ${defect}")
        message(FATAL_ERROR "${cmd} did not name ${defect}: ${out}")
    endif()
endfunction()
foreach(cmd train infer metrics)
    expect_traces_rejected(${cmd} object.json [=[{"a":1}]=]
                           "document: expected an array")
endforeach()
foreach(cmd ingest train)
    expect_traces_rejected(${cmd} bad-slo.json
        [=[[{"slo":"x","trace":{"traceId":"t","spans":[]}}]]=]
        "\\[0\\]\\.slo: expected a number")
endforeach()

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
# campaign_run: each value used to abort (exit 134) or wrap and be
# accepted; a trailing --list would exit 0 on acceptance.
expect_flag_error(--scenarios ${CAMPAIGN_RUN_BIN} --scenarios abc --list)
expect_flag_error(--scenarios ${CAMPAIGN_RUN_BIN} --scenarios -1 --list)
expect_flag_error(--seed ${CAMPAIGN_RUN_BIN} --seed xyz --list)
expect_flag_error(--seed ${CAMPAIGN_RUN_BIN} --seed -5 --list)
expect_flag_error(--shrink-runs ${CAMPAIGN_RUN_BIN}
                  --shrink-runs 99999999999999999999999 --list)
expect_flag_error(--shrink-runs ${CAMPAIGN_RUN_BIN} --shrink-runs -3 --list)

# --- analyze / metrics: a malformed normal-profile trace is skipped
# and counted, not fatal. Each run used to exit 1 with "fatal:
# malformed trace 'orphan-normal'" and no verdicts. ---

# A two-span trace record; parent is the child's parentSpanId.
function(trace_record var id end_us parent)
    set(${var} "{\"slo\": 500, \"trace\": {\"traceId\": \"${id}\", \"spans\": [\
{\"spanId\": \"r\", \"parentSpanId\": \"\", \"service\": \"frontend\", \
\"name\": \"Handle\", \"kind\": \"server\", \"startUs\": 0, \
\"endUs\": ${end_us}, \"status\": \"ok\"}, \
{\"spanId\": \"c\", \"parentSpanId\": \"${parent}\", \"service\": \"backend\", \
\"name\": \"Get\", \"kind\": \"server\", \"startUs\": 20, \
\"endUs\": ${end_us}, \"status\": \"ok\"}]}}" PARENT_SCOPE)
endfunction()
trace_record(slow slow-1 2000 r)
trace_record(fast fast-1 200 r)
trace_record(orphan orphan-normal 200 nosuchspan)
file(WRITE ${WORK_DIR}/records.json "[${slow}, ${fast}, ${orphan}]")
file(WRITE ${WORK_DIR}/normal.json "[${fast}, ${orphan}]")

function(expect_profile_skip)
    run_expect(0 out ${ARGN})
    if(NOT out MATCHES "normal profile: skipped 1 malformed trace")
        message(FATAL_ERROR "${ARGN}: profile skip not reported: ${out}")
    endif()
    set(out "${out}" PARENT_SCOPE)
endfunction()

set(analyze ${SLEUTH_BIN} analyze --model ${WORK_DIR}/model.json
    --traces ${WORK_DIR}/records.json)
expect_profile_skip(${analyze})
if(NOT out MATCHES "slow-1 \\(2000 us / SLO 500 us\\): [a-z]")
    message(FATAL_ERROR "analyze gave no verdict for slow-1: ${out}")
endif()
expect_profile_skip(${analyze} --normal ${WORK_DIR}/normal.json)
if(NOT out MATCHES "analyzed 1 anomalous traces of 3")
    message(FATAL_ERROR "analyze --normal summary absent: ${out}")
endif()
expect_profile_skip(${SLEUTH_BIN} metrics --model ${WORK_DIR}/model.json
                    --traces ${WORK_DIR}/records.json)
if(NOT out MATCHES "sleuth_pipeline_batches_total 1")
    message(FATAL_ERROR "metrics did not analyze the batch: ${out}")
endif()

# --- Model files: a malformed model is a recoverable error naming the
# field, checked before anything is sized by it. Each edit used to
# abort analyze and metrics (exit 134: json accessors, std::bad_alloc
# for the huge hidden width) or, for the unknown aggregator, load
# silently as GIN. ---

file(READ ${WORK_DIR}/model.json model)
function(expect_model_rejected name from to defect)
    string(REGEX REPLACE "${from}" "${to}" edited "${model}")
    if(edited STREQUAL model)
        message(FATAL_ERROR "${name}: the edit changed nothing")
    endif()
    file(WRITE ${WORK_DIR}/${name}.json "${edited}")
    foreach(cmd analyze metrics)
        run_expect(1 out ${SLEUTH_BIN} ${cmd} --model ${WORK_DIR}/${name}.json
                   --traces ${WORK_DIR}/records.json)
        if(NOT out MATCHES "fatal: .*${name}\\.json: ${defect}")
            message(FATAL_ERROR "${cmd} --model ${name}: no ${defect}: ${out}")
        endif()
    endforeach()
endfunction()
expect_model_rejected(model-embed-string "\"embedDim\":[0-9]+"
    "\"embedDim\":\"x\"" "config\\.embedDim: expected a number")
expect_model_rejected(model-no-config "\"config\":{[^}]*},?" ""
    "config: missing field")
expect_model_rejected(model-weight-string "\"data\":\\[[^],]+"
    "\"data\":[\"x\"" "parameters\\[0\\]\\.data\\[0\\]: expected a number")
expect_model_rejected(model-huge-hidden "\"hidden\":[0-9]+"
    "\"hidden\":1e9"
    "config\\.hidden: expected an integer in \\[1, 4096\\], got 1000000000")
expect_model_rejected(model-sage "\"aggregator\":\"gin\""
    "\"aggregator\":\"sage\""
    "config\\.aggregator: unknown aggregator 'sage'")

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
