/**
 * @file
 * Execution traces: ordered operator instances from one forward pass.
 */

#ifndef MMGEN_GRAPH_TRACE_HH
#define MMGEN_GRAPH_TRACE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "graph/op.hh"

namespace mmgen::graph {

/**
 * An ordered list of executed operators.
 *
 * The trace is what the profiler costs and what the analytics modules
 * mine (e.g. the per-attention-call sequence-length series of Fig. 7
 * follows trace order).
 *
 * clear() keeps the Op objects and only resets the live count, so a
 * trace reused step after step (a decode loop) fills its old slots in
 * place: a slot's scope string keeps its heap buffer, so tracing a
 * step whose scopes fit the previous one's allocates no scopes.
 */
class Trace
{
  public:
    Trace() = default;
    Trace(const Trace&) = default;
    Trace& operator=(const Trace&) = default;
    /** Moves leave `other` empty, its live count included. */
    Trace(Trace&& other) noexcept;
    Trace& operator=(Trace&& other) noexcept;

    /** Append one operator instance, moved into the next slot. */
    void append(Op op);

    /**
     * The next slot, made live: a default Op when the trace never held
     * this many ops, else whatever op last lived there. The caller
     * assigns every field.
     */
    Op& appendSlot();

    /** All operators in execution order. */
    std::span<const Op> ops() const { return {ops_.data(), size_}; }

    /** Number of operator instances (repeat counts not expanded). */
    std::size_t size() const { return size_; }

    bool empty() const { return size_ == 0; }

    /**
     * Total trainable parameters across the trace. Each op instance
     * contributes its own weights; callers must trace each weight-owning
     * module exactly once (see Pipeline::totalParams).
     */
    std::int64_t totalParams() const;

    /** Remove all ops, keeping their slots for reuse. */
    void clear() { size_ = 0; }

  private:
    /** Slots; the first size_ are live. */
    std::vector<Op> ops_;
    std::size_t size_ = 0;
};

} // namespace mmgen::graph

#endif // MMGEN_GRAPH_TRACE_HH
