// No-op stand-in for the retired thread pool. Every path in the project
// runs serially; this header exists only because perfbench's harness still
// includes it and calls set_thread_count(). The next benchmark change
// deletes that caller and this header together. Nothing under src/, tests/,
// bench/ or examples/ may include it.
#pragma once

namespace esm {

inline void set_thread_count(int /*n*/) {}

}  // namespace esm
