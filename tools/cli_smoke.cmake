# Drives the sleuth CLI through a full generate/simulate/train/analyze
# cycle, then `ingest` through each collector protocol, and fails on
# any non-zero exit or unexpected import count.
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

function(run)
    execute_process(COMMAND ${SLEUTH_BIN} ${ARGN}
                    WORKING_DIRECTORY ${WORK_DIR}
                    RESULT_VARIABLE rc
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "sleuth ${ARGN} failed (${rc}): ${out}${err}")
    endif()
endfunction()

run(generate --rpcs 16 --seed 4 --name smoke --out ./smoke)
run(simulate --config smoke/config.json --count 150 --out normal.json --seed 9)
run(simulate --config smoke/config.json --count 60 --out incident.json --seed 10 --chaos 2)
run(train --traces normal.json --out model.json --epochs 4)
run(analyze --model model.json --traces incident.json --normal normal.json)

# Profile-and-clone: infer an app model from the observed traces and
# replay the clone through the unmodified simulator.
run(infer --traces normal.json --out clone.json --name smoke-clone)
run(simulate --config clone.json --count 30 --out clone-traces.json --seed 11)

# Import: the simulated records file, then one inline payload of each
# foreign protocol, with exact accepted and rejected counts.
function(expect_ingest pattern)
    execute_process(COMMAND ${SLEUTH_BIN} ingest ${ARGN}
                    WORKING_DIRECTORY ${WORK_DIR}
                    RESULT_VARIABLE rc
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(NOT rc EQUAL 0 OR NOT out MATCHES "${pattern}")
        message(FATAL_ERROR
            "sleuth ingest ${ARGN} (${rc}) did not print ${pattern}: ${out}${err}")
    endif()
endfunction()

expect_ingest("60 traces accepted \\([0-9]+ spans\\), 0 rejected \\(0 spans\\)"
              --traces incident.json)

# Two interleaved traces and one whose parent never arrives.
file(WRITE ${WORK_DIR}/zipkin.json [=[[
  {"traceId": "t2", "id": "x", "name": "GET /cart", "kind": "SERVER",
   "timestamp": 9000, "duration": 120,
   "localEndpoint": {"serviceName": "front-end"}},
  {"traceId": "t1", "id": "a", "name": "GET /orders", "kind": "SERVER",
   "timestamp": 1000, "duration": 500,
   "localEndpoint": {"serviceName": "front-end"}},
  {"traceId": "t1", "id": "b", "parentId": "a", "name": "CreateOrder",
   "kind": "CLIENT", "timestamp": 1100, "duration": 300,
   "localEndpoint": {"serviceName": "front-end"},
   "tags": {"error": "timeout"}},
  {"traceId": "t3", "id": "c", "parentId": "ghost", "name": "op",
   "timestamp": 0, "duration": 5}
]]=])
expect_ingest("2 traces accepted \\(3 spans\\), 1 rejected \\(1 spans\\)"
              --traces zipkin.json --protocol zipkin)

# The processes member follows the spans that name them.
file(WRITE ${WORK_DIR}/jaeger.json [=[{"data": [{
  "traceID": "jt1",
  "spans": [
    {"spanID": "s1", "operationName": "POST /compose", "startTime": 5000,
     "duration": 900, "processID": "p1",
     "tags": [{"key": "span.kind", "value": "server"}]},
    {"spanID": "s2", "operationName": "ComposePost", "startTime": 5100,
     "duration": 700, "processID": "p2",
     "references": [{"refType": "CHILD_OF", "spanID": "s1"}],
     "tags": [{"key": "span.kind", "value": "server"},
              {"key": "error", "value": true}]}],
  "processes": {"p1": {"serviceName": "nginx"},
                "p2": {"serviceName": "compose-post"}}
}]}]=])
expect_ingest("1 traces accepted \\(2 spans\\), 0 rejected \\(0 spans\\)"
              --traces jaeger.json --protocol jaeger)
