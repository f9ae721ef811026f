# Exercises campaign_replay's malformed-input handling: an unknown
# invariant or mutation name must be a clean per-file error listing the
# valid names (nonzero exit, no abort), while a valid corpus case keeps
# replaying to exit 0.
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

# A structurally valid case body whose names we corrupt per leg.
set(scenario "{\"seed\": 84036590, \"numRpcs\": 12, \"clusterNodes\": 8, \"trainTraces\": 48, \"trainEpochs\": 2, \"faultCount\": 2, \"faultScope\": \"container\", \"numQueries\": 4, \"clustering\": true, \"algorithm\": \"hdbscan\", \"minClusterSize\": 4, \"minSamples\": 2, \"clusterSelectionEpsilon\": 0, \"dbscanEps\": 0.4, \"dbscanMinPts\": 3, \"maxRepresentativeDistance\": 0.6, \"keptTraces\": [3], \"droppedFaults\": [0]}")

function(run_expect expected_rc out_var)
    execute_process(COMMAND ${REPLAY_BIN} ${ARGN}
                    WORKING_DIRECTORY ${WORK_DIR}
                    RESULT_VARIABLE rc
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(NOT rc EQUAL ${expected_rc})
        message(FATAL_ERROR
            "campaign_replay ${ARGN} exited ${rc}, expected "
            "${expected_rc}: ${out}${err}")
    endif()
    set(${out_var} "${out}${err}" PARENT_SCOPE)
endfunction()

# Unknown invariant: clean error naming the known registry.
file(WRITE ${WORK_DIR}/bad-invariant.json
    "{\"version\": 1, \"invariant\": \"no-such-check\", \"expect\": \"pass\", \"scenario\": ${scenario}}")
run_expect(1 out ${WORK_DIR}/bad-invariant.json)
if(NOT out MATCHES "unknown invariant 'no-such-check'")
    message(FATAL_ERROR "missing unknown-invariant error: ${out}")
endif()
if(NOT out MATCHES "determinism-threads" OR NOT out MATCHES "crash-recovery"
   OR NOT out MATCHES "incremental-repoll")
    message(FATAL_ERROR "error did not list the known invariants: ${out}")
endif()

# Unknown mutation: same shape, listing the known mutations.
file(WRITE ${WORK_DIR}/bad-mutation.json
    "{\"version\": 1, \"invariant\": \"skipped-accounting\", \"mutation\": \"no-such-mutation\", \"expect\": \"fail\", \"scenario\": ${scenario}}")
run_expect(1 out ${WORK_DIR}/bad-mutation.json)
if(NOT out MATCHES "unknown mutation 'no-such-mutation'")
    message(FATAL_ERROR "missing unknown-mutation error: ${out}")
endif()
if(NOT out MATCHES "miscount-skipped" OR NOT out MATCHES "skip-eviction-replay")
    message(FATAL_ERROR "error did not list the known mutations: ${out}")
endif()

# Missing invariant field: still a clean per-file error.
file(WRITE ${WORK_DIR}/no-invariant.json
    "{\"version\": 1, \"expect\": \"pass\", \"scenario\": ${scenario}}")
run_expect(1 out ${WORK_DIR}/no-invariant.json)
if(NOT out MATCHES "missing 'invariant' field")
    message(FATAL_ERROR "missing-field error absent: ${out}")
endif()

# A bad file must not poison the batch: the valid curated case after it
# still replays, and the exit stays nonzero for the bad one.
run_expect(1 out ${WORK_DIR}/bad-invariant.json
    ${CORPUS_DIR}/mutation-miscount-skipped.json)
if(NOT out MATCHES "ok .*mutation-miscount-skipped")
    message(FATAL_ERROR "valid case after a bad file did not replay: ${out}")
endif()

# And a purely valid invocation exits 0.
run_expect(0 out ${CORPUS_DIR}/mutation-miscount-skipped.json)
