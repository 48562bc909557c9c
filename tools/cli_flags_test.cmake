# Check that mmgen's usage text and its parser agree. Usage:
#   cmake -DMMGEN=<mmgen binary> -DSOURCE=<mmgen_cli.cc>
#         -P cli_flags_test.cmake
# Every flag the parser knows (each "--flag" string literal in SOURCE)
# must appear exactly once in the usage text, and no other flag may.
# Each flag is listed under an "options of <commands>:" heading; the
# parser must accept it for exactly those commands and reject it, with
# an error naming the command and the flag, for every other one.
cmake_minimum_required(VERSION 3.21)

file(READ ${SOURCE} source)
string(REGEX MATCHALL "\"--[a-z0-9-]+\"" known "${source}")
string(REPLACE "\"" "" known "${known}")
list(REMOVE_DUPLICATES known)

execute_process(COMMAND ${MMGEN} ERROR_VARIABLE usage RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR "mmgen without arguments exited ${rc}, not 2")
endif()
string(REGEX MATCHALL "--[a-z0-9-]+" listed "${usage}")
foreach(flag IN LISTS known)
    set(hits ${listed})
    list(FILTER hits INCLUDE REGEX "^${flag}$")
    list(LENGTH hits n)
    if(NOT n EQUAL 1)
        message(FATAL_ERROR "${flag} appears ${n} times in the usage text")
    endif()
endforeach()
foreach(flag IN LISTS listed)
    if(NOT flag IN_LIST known)
        message(FATAL_ERROR "usage lists ${flag}, which the parser lacks")
    endif()
endforeach()

# Walk the usage text: command names, then flags under their headings.
string(REPLACE "\n" ";" lines "${usage}")
set(commands "")
set(section "")
set(owners "")
set(checked 0)
foreach(line IN LISTS lines)
    if(line STREQUAL "commands:")
        set(section commands)
    elseif(line MATCHES "^options of (.+):$")
        set(section options)
        string(REPLACE " " ";" owners "${CMAKE_MATCH_1}")
        foreach(cmd IN LISTS owners)
            if(NOT cmd IN_LIST commands)
                message(FATAL_ERROR "heading names unknown command ${cmd}")
            endif()
        endforeach()
    elseif(section STREQUAL "commands" AND line MATCHES "^  ([a-z]+)")
        list(APPEND commands ${CMAKE_MATCH_1})
    elseif(section STREQUAL "options" AND line MATCHES "^  (--[a-z0-9-]+)")
        set(flag ${CMAKE_MATCH_1})
        math(EXPR checked "${checked} + 1")
        # Four extra arguments exceed every command's arity, so no
        # command runs: an accepted flag fails later, on its value or
        # on the arity.
        foreach(cmd IN LISTS commands)
            execute_process(COMMAND ${MMGEN} ${cmd} ${flag} x x x x
                OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
            if(NOT rc EQUAL 1 OR NOT err MATCHES "^error: ")
                message(FATAL_ERROR "mmgen ${cmd} ${flag} x x x x: "
                    "exit ${rc}, expected 1 and an error:\n${err}")
            endif()
            set(rejected FALSE)
            if(err MATCHES "${cmd} does not take ${flag} ")
                set(rejected TRUE)
            endif()
            if(cmd IN_LIST owners AND rejected)
                message(FATAL_ERROR "${cmd} rejects ${flag}, which its "
                    "usage heading lists:\n${err}")
            elseif(NOT cmd IN_LIST owners AND NOT rejected)
                message(FATAL_ERROR "${cmd} accepts ${flag}, which its "
                    "usage heading does not list:\n${err}")
            endif()
        endforeach()
    endif()
endforeach()
list(LENGTH known n)
if(NOT checked EQUAL n)
    message(FATAL_ERROR "checked ${checked} flag lines, expected ${n}")
endif()
