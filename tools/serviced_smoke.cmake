# Drives sleuth_serviced end to end over durable data directories: the
# same stream at 1 and 4 producer threads must commit the same, pinned,
# serving fingerprint with a balanced span ledger and an analyzed
# incident, a restart must recover its directory and refuse every
# redelivered span as late, and `sleuth wal --verify` must replay the
# directory. Shed and evicting streams, which reorder, drop and evict
# what the default stream keeps, pin fingerprints of their own. The
# report is one line of compact JSON; fields are read with regexes
# because string(JSON) needs CMake 3.19.
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

# Run sleuth_serviced at `threads` producers on data directory `dir`,
# passing any further arguments as flags; fail unless it exits 0, and
# set `out_var` to its stdout.
function(serve dir threads out_var)
    execute_process(COMMAND ${SERVICED_BIN} --requests 2000
                            --threads ${threads} --data-dir ${dir}
                            ${ARGN}
                    WORKING_DIRECTORY ${WORK_DIR}
                    RESULT_VARIABLE rc
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "sleuth_serviced --threads ${threads} "
                "--data-dir ${dir} ${ARGN} failed (${rc}): ${out}${err}")
    endif()
    set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# Set `var` to report field `key` (a number or a hex string).
function(field report key var)
    if(NOT report MATCHES "\"${key}\":\"?([0-9a-f]+)")
        message(FATAL_ERROR "report has no ${key}: ${report}")
    endif()
    set(${var} "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()

# Every offered span is accepted, rejected or still buffered.
function(check_ledger report label)
    field("${report}" spansIngested ingested)
    field("${report}" spansAccepted accepted)
    field("${report}" spansRejected rejected)
    field("${report}" backlogSpans backlog)
    math(EXPR sum "${accepted} + ${rejected} + ${backlog}")
    if(NOT sum EQUAL ingested)
        message(FATAL_ERROR "${label}: spansIngested ${ingested} != "
                "accepted ${accepted} + rejected ${rejected} + "
                "backlog ${backlog}")
    endif()
endfunction()

foreach(threads 1 4)
    serve(${WORK_DIR}/data-t${threads} ${threads} out)
    check_ledger("${out}" "--threads ${threads}")
    field("${out}" servingFingerprint fp_${threads})
    field("${out}" incidentsAnalyzed analyzed)
    if(analyzed LESS 1)
        message(FATAL_ERROR "--threads ${threads}: no incident analyzed")
    endif()
endforeach()
if(NOT fp_1 STREQUAL fp_4)
    message(FATAL_ERROR "servingFingerprint differs: ${fp_1} at 1 "
            "thread, ${fp_4} at 4 threads")
endif()
# The fingerprint hashes every incident's verdicts, so a change in any
# served verdict fails here even when both runs agree. A change meant
# to alter verdicts (model, features, RCA) updates this value.
set(expected_fp 166a9349e5e9174e)
if(NOT fp_1 STREQUAL expected_fp)
    message(FATAL_ERROR "servingFingerprint ${fp_1}, expected "
            "${expected_fp}: the served verdicts changed")
endif()

# Restart on the 4-thread directory: the recovered watermark is past
# every span of the redelivered stream.
serve(${WORK_DIR}/data-t4 4 out)
if(NOT out MATCHES "recovered ")
    message(FATAL_ERROR "restart did not recover: ${out}")
endif()
check_ledger("${out}" "restart")
field("${out}" spansIngested ingested)
field("${out}" spansAccepted accepted)
field("${out}" lateAfterEviction late)
if(NOT accepted EQUAL 0 OR NOT late EQUAL ingested)
    message(FATAL_ERROR "restart: ${accepted} spans accepted and ${late} "
            "late of ${ingested} redelivered (want 0 and all)")
endif()

# Run one more stream at `threads` producers, passing any further
# arguments as flags; fail unless its ledger balances and it commits
# servingFingerprint `expected`. Its report is left in `report`.
function(expect_fingerprint label threads expected)
    serve(${WORK_DIR}/${label}-t${threads} ${threads} out ${ARGN})
    check_ledger("${out}" "${label} --threads ${threads}")
    field("${out}" servingFingerprint fp)
    if(NOT fp STREQUAL expected)
        message(FATAL_ERROR "${label} --threads ${threads}: "
                "servingFingerprint ${fp}, expected ${expected}")
    endif()
    set(report "${out}" PARENT_SCOPE)
endfunction()

# Poll-side shedding to 300 spans per poll. `sample` keeps a pure
# function of the span multiset, so 1 and 4 producers agree.
foreach(threads 1 4)
    expect_fingerprint(sample ${threads} 1f891006638e5fea
                       --shed-budget 300 --shed-policy sample)
endforeach()
expect_fingerprint(drop-oldest 1 585fc160bbbe07a1
                   --shed-budget 300 --shed-policy drop-oldest)
# Retention at 5,000 spans evicts records throughout the stream.
expect_fingerprint(evict 4 b1d5b1b68be40365 --max-spans 5000)
field("${report}" evictedRecords evicted)
if(evicted LESS 1)
    message(FATAL_ERROR "--max-spans 5000: no record evicted")
endif()

execute_process(COMMAND ${SLEUTH_BIN} wal --dir ${WORK_DIR}/data-t4
                        --verify
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "sleuth wal --verify failed (${rc}): ${out}${err}")
endif()
