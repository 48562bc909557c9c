#include "trace.hh"

#include <utility>

namespace mmgen::graph {

Trace::Trace(Trace&& other) noexcept
    : ops_(std::move(other.ops_)), size_(std::exchange(other.size_, 0))
{}

Trace&
Trace::operator=(Trace&& other) noexcept
{
    if (this != &other) {
        ops_ = std::move(other.ops_);
        size_ = std::exchange(other.size_, 0);
        other.ops_.clear();
    }
    return *this;
}

Op&
Trace::appendSlot()
{
    if (size_ == ops_.size())
        ops_.emplace_back();
    return ops_[size_++];
}

void
Trace::append(Op op)
{
    appendSlot() = std::move(op);
}

std::int64_t
Trace::totalParams() const
{
    std::int64_t total = 0;
    for (const auto& op : ops())
        total += opParamCount(op);
    return total;
}

} // namespace mmgen::graph
