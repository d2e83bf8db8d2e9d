# Benchmark harness: one executable per paper table/figure plus ablations.
# Binaries land in build/bench/.

add_library(esm_benchutil STATIC bench/bench_util.cpp)
target_include_directories(esm_benchutil PUBLIC ${CMAKE_SOURCE_DIR}/src ${CMAKE_SOURCE_DIR}/bench)
target_link_libraries(esm_benchutil PUBLIC
  esm_core esm_nas esm_surrogate esm_encoding esm_ml esm_hwsim esm_nets
  esm_nn esm_linalg esm_common)

function(esm_bench name)
  add_executable(${name} bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE esm_benchutil esm_warnings)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

esm_bench(table1_arch_spaces)
esm_bench(fig2_pareto_impact)
esm_bench(fig3_motivation)
esm_bench(fig4_cost_analysis)
esm_bench(fig6_reference_qc)
esm_bench(fig8_encoding_scatter)
esm_bench(fig9_encoding_accuracy)
esm_bench(fig10_device_sweep)
esm_bench(fig11_sampling_convergence)
esm_bench(ablation_encodings)
esm_bench(ablation_models)
esm_bench(ablation_measurement)

esm_bench(serve_throughput)
target_link_libraries(serve_throughput PRIVATE esm_serve)

esm_bench(extension_energy)
esm_bench(extension_transfer)
esm_bench(extension_active_sampling)
