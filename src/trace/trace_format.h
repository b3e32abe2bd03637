// Text-trace frontend: define a CPU-produce / GPU-consume workload in a
// small line-oriented DSL instead of C++, and run it through the same
// Workload/Runner machinery as the built-in Table II models.
//
// Format (see examples/traces/*.trace and the tests):
//
//   # comment
//   name my_workload
//   shared-memory yes                 # Table II "Shared" flag (optional)
//
//   array A  200000            shared produced   # same bytes for both sizes
//   array B  200000 800000     shared produced   # small / big bytes
//   array C  200000            shared             # GPU-written output
//   array P  4096              private            # CPU-private
//
//   cpu:
//     produce A                       # store producedValue over the array
//     store  A 16 4 123               # array offset size value
//     loadc  A 16 4 123               # checked load
//     compute 500
//     fence
//   end
//
//   kernel vadd blocks 196 tpb 256
//     ldc A ($gid * 4) 4              # checked load of produced data
//     ld  B ($gid * 4) 4
//     compute 2
//     st  C ($gid * 4) 4 ($gid + 1)   # store value expression
//     when ($tid % 2 == 0) smem_ld    # predicated ops
//   end
//
// Expressions may use $gid, $bid, $tid, $nthreads, $ntpb, $nblocks, integer
// literals, + - * / % << >> ( ), and comparisons inside `when (...)`.
// Arithmetic is signed 64-bit: an overflow, a division by zero or a shift
// count outside [0, 63] is an error, not a wrapped value.
// Kernels execute their statement list once per thread; `when` predicates
// are evaluated per thread (off lanes emit nops, preserving SIMT lockstep).
//
// Accesses are 1, 2, 4 or 8 bytes, inside their array, and naturally
// aligned (CUDA's rule): the offset must be a multiple of the size, so an
// access never crosses a cache line. CPU statements are checked when the
// trace is parsed; kernel offsets, being per-thread expressions, when a
// thread's ops are built.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "workloads/workload.h"

namespace dscoh::trace {

/// Syntax or semantic error in a trace file; message carries the line.
class TraceError : public std::runtime_error {
public:
    TraceError(std::size_t line, const std::string& what)
        : std::runtime_error("trace:" + std::to_string(line) + ": " + what),
          line_(line)
    {
    }
    std::size_t line() const { return line_; }

private:
    std::size_t line_;
};

/// Parses @p text into a Workload usable with runWorkload/compareModes.
/// Throws TraceError on malformed input.
std::unique_ptr<Workload> parseTrace(const std::string& text);

/// Convenience: parse a trace from a file on disk.
std::unique_ptr<Workload> loadTraceFile(const std::string& path);

} // namespace dscoh::trace
