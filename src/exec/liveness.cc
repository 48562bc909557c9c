#include "liveness.hh"

#include <algorithm>

#include "util/logging.hh"

namespace mmgen::exec {

std::string
bufferKindName(BufferKind kind)
{
    switch (kind) {
      case BufferKind::Activation:
        return "activation";
      case BufferKind::OperandWindow:
        return "operand_window";
      case BufferKind::Workspace:
        return "workspace";
      case BufferKind::WeightStage:
        return "weight_stage";
    }
    MMGEN_ASSERT(false, "unknown buffer kind");
}

Liveness
deriveLiveness(const ExecutionPlan& plan)
{
    Liveness lv;
    lv.weightBytes = static_cast<double>(plan.totalParams) *
                     static_cast<double>(dtypeBytes(plan.dtype));
    lv.buffers.reserve(plan.ops.size() * 2);

    for (std::size_t oi = 0; oi < plan.ops.size(); ++oi) {
        const PlanOp& row = plan.ops[oi];
        const OpInfo& op = plan.opInfo(row);
        MMGEN_CHECK(op.nodeCount >= 1,
                    "op " << plan.str(op.scope)
                          << " lowered to no kernels");
        const std::size_t first = row.firstNode;
        const std::size_t last = row.firstNode + op.nodeCount - 1;

        // Operands beyond the predecessor's output (residual streams,
        // encoder K/V, second elementwise inputs) are modeled as a
        // window materialized across this op only — the chain buffer
        // itself is accounted once, below, by its producer.
        const double prev_out =
            oi > 0 ? plan.opInfo(oi - 1).outputBytes : 0.0;
        const double window =
            std::max(0.0, op.inputBytes - prev_out);
        if (window > 0.0)
            lv.buffers.push_back({BufferKind::OperandWindow, oi,
                                  window, first, last});

        if (op.workspaceBytes > 0.0)
            lv.buffers.push_back({BufferKind::Workspace, oi,
                                  op.workspaceBytes, first, last});

        // The output is allocated when the op starts and freed after
        // its program-order consumer finishes reading it.
        if (op.outputBytes > 0.0) {
            std::size_t last_use = last;
            if (oi + 1 < plan.ops.size()) {
                const PlanOp& next = plan.ops[oi + 1];
                last_use =
                    next.firstNode + plan.opInfo(next).nodeCount - 1;
            }
            lv.buffers.push_back({BufferKind::Activation, oi,
                                  op.outputBytes, first, last_use});
        }

        // Weight-stream staging lives from the prefetch copy until the
        // op's last compute kernel retires; under a multi-stream
        // schedule the copy starts early, widening the lifetime.
        for (std::size_t n = first; n <= last; ++n) {
            const KernelInfo& kernel = plan.kernel(n);
            if (kernel.weightStream && kernel.hbmBytes > 0.0)
                lv.buffers.push_back({BufferKind::WeightStage, oi,
                                      kernel.hbmBytes, n, last});
        }
    }
    return lv;
}

} // namespace mmgen::exec
