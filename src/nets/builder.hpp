// Lowering from architecture configurations to layer graphs.
//
// Each builder expands one ArchConfig into the full execution trace of the
// concrete network (stem, every block's primitive layers, transitions, and
// the classification head), with exact activation shapes. The hardware
// simulator and lookup-table profiler both consume these graphs. Readers
// that need only the FLOPs total use graph_flops(), which runs the same
// lowering into an accumulator instead of a graph.
#pragma once

#include "nets/arch.hpp"
#include "nets/supernet.hpp"
#include "nn/graph.hpp"

namespace esm {

/// Lowers a ResNet-space configuration (bottleneck residual blocks).
LayerGraph build_resnet(const SupernetSpec& spec, const ArchConfig& arch);

/// Lowers a MobileNetV3-space configuration (inverted residual blocks with
/// squeeze-and-excitation and hard-swish).
LayerGraph build_mobilenet_v3(const SupernetSpec& spec,
                              const ArchConfig& arch);

/// Lowers a DenseNet-space configuration (dense blocks with channel
/// concatenation and compressive transitions).
LayerGraph build_densenet(const SupernetSpec& spec, const ArchConfig& arch);

/// Validates `arch` against `spec` and dispatches to the right builder.
LayerGraph build_graph(const SupernetSpec& spec, const ArchConfig& arch);

/// build_graph(spec, arch).total_flops(), bit for bit, without building the
/// graph: validates `arch` and runs every per-layer check the same way, so
/// it throws the same esm::ConfigError.
double graph_flops(const SupernetSpec& spec, const ArchConfig& arch);

}  // namespace esm
