# Build file of the benchmark harness. The harness links the repo's own
# libraries, so it is built inside the root project with exactly the flags
# the shipped binaries get: run.py configures the root CMakeLists.txt with
#
#   -DCMAKE_PROJECT_esm_INCLUDE=<checkout>/perfbench/build.cmake
#
# which runs this file at the end of the root's project() call. The target
# definitions are deferred until the root file has been fully processed,
# so every esm_* library, the C++ standard and the warning set exist.
set(PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(perfbench_add_targets)
  set(dir "${PERFBENCH_DIR}/harness")
  add_library(perfbench_core STATIC
    ${dir}/util.cpp
    ${dir}/trace.cpp
    ${dir}/proc.cpp
    ${dir}/fleet.cpp
    ${dir}/load.cpp
    ${dir}/workloads.cpp
    ${dir}/layers.cpp)
  target_include_directories(perfbench_core PUBLIC ${dir})
  target_link_libraries(perfbench_core PUBLIC
    esm_core esm_nas esm_serve esm_surrogate esm_encoding esm_ml esm_hwsim
    esm_nets esm_nn esm_linalg esm_common PRIVATE esm_warnings)

  add_executable(perfbench_harness ${dir}/main.cpp)
  target_link_libraries(perfbench_harness PRIVATE perfbench_core esm_warnings)

  # The harness's own arithmetic checks (percentiles, span self time, the
  # wire permutation); run.py runs it before every measurement.
  add_executable(perfbench_selftest ${dir}/selftest.cpp)
  target_link_libraries(perfbench_selftest PRIVATE perfbench_core esm_warnings)

  set_target_properties(perfbench_harness perfbench_selftest PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/perfbench)
endfunction()

cmake_language(DEFER CALL perfbench_add_targets)
