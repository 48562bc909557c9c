# Golden and bad-input tests of the mmgen front end. Included from
# tools/CMakeLists.txt before its cli_cache loop, which gives every
# test here its own MMGEN_CACHE_DIR. The expected stdout of test <t> is
# <t>.stdout in this directory, and <t>.sha256 pins the files it
# writes; all but cli_stats were captured from the CLI before its flags
# moved into one table.
set(cli_runner ${CMAKE_CURRENT_SOURCE_DIR}/cli_test.cmake)

# cli_golden(<test> <args> [WRITES]): exit 0 and the expected stdout;
# with WRITES, the written files must match <test>.sha256.
function(cli_golden name args)
    set(files "")
    if(ARGN)
        set(files -DFILES=${CMAKE_CURRENT_LIST_DIR}/${name}.sha256)
    endif()
    add_test(NAME ${name} COMMAND ${CMAKE_COMMAND}
        -DMMGEN=$<TARGET_FILE:mmgen>
        -DWORK_DIR=${CMAKE_CURRENT_BINARY_DIR}/cli_work/${name}
        "-DARGS=${args}" -DSTDOUT=${CMAKE_CURRENT_LIST_DIR}/${name}.stdout
        ${files} -P ${cli_runner})
endfunction()

# cli_error(<test> <args> <regex>): exit code exactly 1 (an abort is not
# a pass) and an `error:` on stderr that matches <regex>.
function(cli_error name args regex)
    add_test(NAME ${name} COMMAND ${CMAKE_COMMAND}
        -DMMGEN=$<TARGET_FILE:mmgen>
        -DWORK_DIR=${CMAKE_CURRENT_BINARY_DIR}/cli_work/${name}
        "-DARGS=${args}" -DRC=1 "-DSTDERR=^error: .*${regex}"
        -P ${cli_runner})
endfunction()

cli_golden(cli_list "list")
cli_golden(cli_profile "profile Muse --backend flash_decode --gpu v100")
cli_golden(cli_profile_schedule "profile StableDiffusion --streams 2 \
--stream-weights --launch-depth 8 --graph-launch")
cli_golden(cli_profile_trace "profile Muse --trace muse_trace.json" WRITES)
cli_golden(cli_hotspots "hotspots LLaMA --backend baseline")
cli_golden(cli_suite "suite")
cli_golden(cli_taxonomy_v100 "taxonomy --gpu v100")
cli_golden(cli_footprint "footprint")
cli_golden(cli_trace "trace Muse cli_trace_smoke.json" WRITES)
cli_golden(cli_serve "serve StableDiffusion --rate 8 --gpus 4 \
--horizon 120 --mtbf 300 --mttr 60 --retries 2 --deadline 10 \
--max-queue 32 --degrade-threshold 8 --degrade-steps 0.5")
cli_golden(cli_serve_continuous
    "serve Muse --rate 2 --horizon 60 --mix production --continuous")
cli_golden(cli_serve_cluster "serve Muse --replicas 3 --chaos kill-replica \
--hedge-quantile 0.9 --rate 2 --horizon 60 --metrics-out metrics.jsonl \
--trace-out trace.json --sample-interval 5" WRITES)
# Every counter `stats` prints is schedule-independent at any --jobs.
cli_golden(cli_stats "stats --jobs 2")
cli_golden(cli_lint_rules "lint --rules")
cli_golden(cli_lint_json "lint --model Phenaki --json")
cli_golden(cli_analyze_memory "analyze --all --memory --json")

cli_error(cli_unknown_model "profile NoSuchModel" "unknown model")
cli_error(cli_unknown_option "profile Muse --frobnicate"
    "unknown option --frobnicate")
cli_error(cli_list_rejects_rate "list --rate 3"
    "list does not take --rate")
cli_error(cli_suite_rejects_backend "suite --backend baseline"
    "suite does not take --backend")
cli_error(cli_serve_rejects_streams "serve Muse --streams 2"
    "serve does not take --streams")
cli_error(cli_profile_rejects_rate "profile Muse --rate abc"
    "profile does not take --rate")
cli_error(cli_profile_rejects_rate_without_value "profile Muse --rate"
    "profile does not take --rate")
cli_error(cli_bad_number "serve Muse --rate abc"
    "--rate needs a number, got 'abc'")
cli_error(cli_missing_value "serve Muse --rate" "--rate needs a value")

# Every flag the parser knows is listed once in the usage text, under
# the commands that accept it.
add_test(NAME cli_usage_matches_parser COMMAND ${CMAKE_COMMAND}
    -DMMGEN=$<TARGET_FILE:mmgen>
    -DSOURCE=${CMAKE_CURRENT_SOURCE_DIR}/mmgen_cli.cc
    -P ${CMAKE_CURRENT_SOURCE_DIR}/cli_flags_test.cmake)
