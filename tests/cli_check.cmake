# Runs one command line and checks its exit status and output:
#
#   cmake -DEXIT=<status> -DOUTPUT=<regex> -P cli_check.cmake <command> [args]
#
# OUTPUT is matched against stdout and stderr together. Used by the bwcopt
# command-line tests in tests/CMakeLists.txt.
set(command)
set(collect FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(collect)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} MATCHES "cli_check\\.cmake$")
    set(collect TRUE)
  endif()
endforeach()

execute_process(COMMAND ${command}
  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT status STREQUAL EXIT)
  message(FATAL_ERROR "exit status ${status}, want ${EXIT}; output:\n${out}")
endif()
if(NOT out MATCHES "${OUTPUT}")
  message(FATAL_ERROR "output does not match \"${OUTPUT}\":\n${out}")
endif()
