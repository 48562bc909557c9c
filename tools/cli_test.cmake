# Run one mmgen command in a fresh working directory and check what it
# produced. Usage:
#   cmake -DMMGEN=<mmgen binary> -DWORK_DIR=<dir> -DARGS="<args>"
#         [-DRC=<exit code>] [-DSTDOUT=<file>] [-DFILES=<manifest>]
#         [-DSTDERR=<regex>] -P cli_test.cmake
# ARGS is split like a shell command line. The exit code must equal RC
# (default 0), stdout must equal the STDOUT file byte for byte, and
# stderr must match STDERR. FILES is a `sha256sum` manifest
# ("<sha256>  <name>" lines) of the files the command must write under
# WORK_DIR; they are pinned by hash because the traces are 0.6-0.7 MB.
cmake_minimum_required(VERSION 3.21)

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
separate_arguments(args UNIX_COMMAND "${ARGS}")
if(NOT DEFINED RC)
    set(RC 0)
endif()

execute_process(COMMAND ${MMGEN} ${args}
    WORKING_DIRECTORY ${WORK_DIR}
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT "${rc}" STREQUAL "${RC}")
    message(FATAL_ERROR
        "mmgen ${ARGS}: exit code ${rc}, expected ${RC}\n${err}")
endif()
if(DEFINED STDERR AND NOT "${err}" MATCHES "${STDERR}")
    message(FATAL_ERROR
        "mmgen ${ARGS}: stderr does not match '${STDERR}':\n${err}")
endif()
if(DEFINED STDOUT)
    file(READ ${STDOUT} expected)
    if(NOT "${out}" STREQUAL "${expected}")
        file(WRITE ${WORK_DIR}/stdout "${out}")
        message(FATAL_ERROR "mmgen ${ARGS}: stdout differs from "
            "${STDOUT}; it is saved as ${WORK_DIR}/stdout")
    endif()
endif()
if(DEFINED FILES)
    file(STRINGS ${FILES} manifest)
    foreach(line IN LISTS manifest)
        if(NOT line MATCHES "^([0-9a-f]+)  (.+)$")
            message(FATAL_ERROR "bad line in ${FILES}: ${line}")
        endif()
        set(want ${CMAKE_MATCH_1})
        set(path ${WORK_DIR}/${CMAKE_MATCH_2})
        if(NOT EXISTS ${path})
            message(FATAL_ERROR "mmgen ${ARGS}: did not write ${path}")
        endif()
        file(SHA256 ${path} got)
        if(NOT got STREQUAL want)
            message(FATAL_ERROR
                "mmgen ${ARGS}: ${path} differs from ${FILES}")
        endif()
    endforeach()
endif()
