#include "memory.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace mmgen::verify {

namespace {

/** Relative slack for floating-point bound comparisons. */
constexpr double kRelTol = 1e-6;

/** a <= b up to relative rounding slack on either magnitude. */
bool
atMost(double a, double b)
{
    return a <= b + kRelTol * std::max({std::fabs(a), std::fabs(b), 1.0});
}

std::string
gib(double bytes)
{
    std::ostringstream oss;
    oss.precision(3);
    oss << std::fixed << bytes / (1024.0 * 1024.0 * 1024.0) << " GiB";
    return oss.str();
}

void
addFinding(DiagnosticReport& report, Severity sev, const char* rule,
           const PhysicsContext& ctx, const std::string& scope,
           std::string msg, std::string hint = "")
{
    report.add(Diagnostic{sev, rule, ctx.model, ctx.stage, scope,
                          std::move(msg), std::move(hint)});
}

/** P011: a byte quantity of the memory model must be sane. */
bool
finiteBytes(DiagnosticReport& report, const PhysicsContext& ctx,
            const std::string& scope, const char* what, double value)
{
    if (std::isfinite(value) && value >= 0.0)
        return true;
    std::ostringstream oss;
    oss << what << " = " << value << " is not finite and non-negative";
    addFinding(report, Severity::Error, rules::MemoryConservation, ctx,
               scope, oss.str());
    return false;
}

} // namespace

void
checkPlanDataflow(const exec::ExecutionPlan& plan,
                  const PhysicsContext& ctx, DiagnosticReport& report)
{
    // ---- rows must point at existing shared records -----------------
    for (std::size_t oi = 0; oi < plan.ops.size(); ++oi) {
        if (plan.ops[oi].info >= plan.opInfos.size()) {
            std::ostringstream oss;
            oss << "op " << oi << " points at op record "
                << plan.ops[oi].info << " of " << plan.opInfos.size();
            addFinding(report, Severity::Error, rules::DanglingDefUse,
                       ctx, "plan", oss.str());
            return; // rows unusable; later checks would cascade
        }
    }
    for (std::size_t n = 0; n < plan.nodes.size(); ++n) {
        if (plan.nodes[n].kernel >= plan.kernelInfos.size() ||
            plan.nodes[n].opIndex >= plan.ops.size()) {
            std::ostringstream oss;
            oss << "node " << n << " points at kernel record "
                << plan.nodes[n].kernel << " of "
                << plan.kernelInfos.size() << " and op "
                << plan.nodes[n].opIndex << " of " << plan.ops.size();
            addFinding(report, Severity::Error, rules::DanglingDefUse,
                       ctx, "plan", oss.str());
            return;
        }
    }

    // ---- op ranges must tile the node list contiguously --------------
    std::size_t expect_first = 0;
    for (std::size_t oi = 0; oi < plan.ops.size(); ++oi) {
        const exec::PlanOp& row = plan.ops[oi];
        const exec::OpInfo& op = plan.opInfo(row);
        const std::string op_scope(plan.str(op.scope));
        if (op.nodeCount == 0) {
            addFinding(report, Severity::Error, rules::DanglingDefUse,
                       ctx, op_scope, "op lowered to zero kernels",
                       "every traced op must own at least one node");
            continue;
        }
        if (row.firstNode != expect_first ||
            row.firstNode + op.nodeCount > plan.nodes.size()) {
            std::ostringstream oss;
            oss << "op node range [" << row.firstNode << ", "
                << row.firstNode + op.nodeCount << ") does not tile the "
                << plan.nodes.size() << "-node plan (expected start "
                << expect_first << ")";
            addFinding(report, Severity::Error, rules::DanglingDefUse,
                       ctx, op_scope, oss.str());
            return; // ranges unusable; later checks would cascade
        }
        const std::size_t first_kernel = plan.nodes[row.firstNode].kernel;
        for (std::size_t n = row.firstNode;
             n < row.firstNode + op.nodeCount; ++n) {
            if (plan.nodes[n].opIndex != oi) {
                std::ostringstream oss;
                oss << "node " << n << " claims op "
                    << plan.nodes[n].opIndex << " but lies in the range "
                    << "of op " << oi;
                addFinding(report, Severity::Error,
                           rules::DanglingDefUse, ctx, op_scope,
                           oss.str());
            }
            if (plan.nodes[n].kernel != first_kernel + n - row.firstNode) {
                std::ostringstream oss;
                oss << "node " << n << " points at kernel record "
                    << plan.nodes[n].kernel << ", not record "
                    << first_kernel + n - row.firstNode
                    << " after its op's first";
                addFinding(report, Severity::Error,
                           rules::DanglingDefUse, ctx, op_scope,
                           oss.str(),
                           "an op's kernel records are consecutive, in "
                           "node order");
            }
        }
        expect_first = row.firstNode + op.nodeCount;
    }
    if (expect_first != plan.nodes.size()) {
        std::ostringstream oss;
        oss << "op ranges cover " << expect_first << " of "
            << plan.nodes.size() << " nodes";
        addFinding(report, Severity::Error, rules::DanglingDefUse, ctx,
                   "plan", oss.str());
    }

    // ---- dependency edges point strictly backwards -------------------
    for (std::size_t n = 0; n < plan.nodes.size(); ++n) {
        const exec::PlanNode& node = plan.nodes[n];
        for (std::int32_t d : plan.deps(node)) {
            if (d < 0 || static_cast<std::size_t>(d) >= n) {
                std::ostringstream oss;
                oss << "node " << n << " (" << plan.nodeLabel(n)
                    << ") depends on node " << d
                    << ", which no predecessor defines";
                addFinding(report, Severity::Error,
                           rules::DanglingDefUse, ctx,
                           std::string(plan.opScope(node.opIndex)),
                           oss.str(),
                           "dependency edges must point at lower "
                           "node indices");
            }
        }
    }

    // ---- staged weights sit on the copy lane and are consumed --------
    for (std::size_t n = 0; n < plan.nodes.size(); ++n) {
        const exec::KernelInfo& kernel = plan.kernel(n);
        if (!kernel.weightStream)
            continue;
        const exec::PlanOp& row = plan.ops[plan.nodes[n].opIndex];
        const std::size_t end = row.firstNode + plan.opInfo(row).nodeCount;
        const std::string op_scope(plan.opScope(plan.nodes[n].opIndex));
        if (kernel.lane != exec::Lane::Copy) {
            std::ostringstream oss;
            oss << "weight-stream node " << n
                << " runs on the compute lane";
            addFinding(report, Severity::Error, rules::DanglingDefUse,
                       ctx, op_scope, oss.str());
        }
        bool consumed = false;
        for (std::size_t j = n + 1; j < end && !consumed; ++j) {
            if (plan.kernel(j).lane != exec::Lane::Compute)
                continue;
            const auto reader_deps = plan.deps(j);
            consumed = std::find(reader_deps.begin(),
                                 reader_deps.end(),
                                 static_cast<std::int32_t>(n)) !=
                       reader_deps.end();
        }
        if (!consumed) {
            std::ostringstream oss;
            oss << "weight-stream node " << n
                << " stages bytes no compute kernel of its op reads";
            addFinding(report, Severity::Error, rules::DanglingDefUse,
                       ctx, op_scope, oss.str(),
                       "the consumer's first compute kernel must "
                       "depend on the prefetch");
        }
    }

    // ---- the compute chain is serial: each compute node depends on
    //      its compute predecessor, so activations flow op to op ------
    std::size_t prev_compute = plan.nodes.size();
    for (std::size_t n = 0; n < plan.nodes.size(); ++n) {
        const exec::PlanNode& node = plan.nodes[n];
        if (plan.kernel(node).lane != exec::Lane::Compute)
            continue;
        if (prev_compute < plan.nodes.size()) {
            const auto node_deps = plan.deps(node);
            const bool chained =
                std::find(node_deps.begin(), node_deps.end(),
                          static_cast<std::int32_t>(prev_compute)) !=
                node_deps.end();
            if (!chained) {
                std::ostringstream oss;
                oss << "compute node " << n << " ("
                    << plan.nodeLabel(n)
                    << ") is not chained to compute predecessor "
                    << prev_compute
                    << "; its input activation has no defining edge";
                addFinding(report, Severity::Error,
                           rules::DanglingDefUse, ctx,
                           std::string(plan.opScope(node.opIndex)),
                           oss.str());
            }
        }
        prev_compute = n;
    }
}

void
checkMemoryProfile(const exec::ExecutionPlan& plan,
                   const exec::MemoryProfile& profile,
                   const hw::GpuSpec& gpu, const PhysicsContext& ctx,
                   DiagnosticReport& report, Severity capacitySeverity)
{
    // ---- P011: profile quantities are sane and ordered ---------------
    bool sane = true;
    sane &= finiteBytes(report, ctx, "profile", "weightBytes",
                        profile.weightBytes);
    sane &= finiteBytes(report, ctx, "profile", "programPeakBytes",
                        profile.programPeakBytes);
    sane &= finiteBytes(report, ctx, "profile", "scheduledPeakBytes",
                        profile.scheduledPeakBytes);
    sane &= finiteBytes(report, ctx, "profile", "noReuseBytes",
                        profile.noReuseBytes);
    sane &= finiteBytes(report, ctx, "profile", "scheduledPeakSeconds",
                        profile.scheduledPeakSeconds);
    if (sane) {
        const struct
        {
            const char* lo;
            double loBytes;
            const char* hi;
            double hiBytes;
        } bounds[] = {
            {"weightBytes", profile.weightBytes, "programPeakBytes",
             profile.programPeakBytes},
            {"programPeakBytes", profile.programPeakBytes,
             "scheduledPeakBytes", profile.scheduledPeakBytes},
            {"scheduledPeakBytes", profile.scheduledPeakBytes,
             "noReuseBytes", profile.noReuseBytes},
        };
        for (const auto& b : bounds) {
            if (atMost(b.loBytes, b.hiBytes))
                continue;
            std::ostringstream oss;
            oss << b.lo << " = " << gib(b.loBytes) << " exceeds "
                << b.hi << " = " << gib(b.hiBytes);
            addFinding(report, Severity::Error,
                       rules::MemoryConservation, ctx, "profile",
                       oss.str(),
                       "peak bounds must order weights <= program <= "
                       "scheduled <= no-reuse");
        }
    }

    // ---- P011: per-op demand conserved against cost-model traffic ----
    for (const exec::PlanOp& row : plan.ops) {
        const exec::OpInfo& op = plan.opInfo(row);
        const std::string op_scope(plan.str(op.scope));
        bool op_sane = true;
        op_sane &= finiteBytes(report, ctx, op_scope, "inputBytes",
                               op.inputBytes);
        op_sane &= finiteBytes(report, ctx, op_scope, "outputBytes",
                               op.outputBytes);
        op_sane &= finiteBytes(report, ctx, op_scope,
                               "weightResidentBytes",
                               op.weightResidentBytes);
        op_sane &= finiteBytes(report, ctx, op_scope, "weightReadBytes",
                               op.weightReadBytes);
        op_sane &= finiteBytes(report, ctx, op_scope, "workspaceBytes",
                               op.workspaceBytes);
        if (!op_sane || row.firstNode + op.nodeCount > plan.nodes.size())
            continue;
        double traffic = 0.0;
        for (std::size_t n = row.firstNode;
             n < row.firstNode + op.nodeCount; ++n)
            traffic += plan.kernel(n).hbmBytes;
        const double demand =
            op.inputBytes + op.outputBytes + op.weightReadBytes;
        if (!atMost(demand, traffic)) {
            std::ostringstream oss;
            oss << "liveness demand " << demand
                << " B (in + out + weight reads) exceeds the "
                << traffic << " B of HBM traffic the cost model "
                << "charged";
            addFinding(report, Severity::Error,
                       rules::MemoryConservation, ctx, op_scope,
                       oss.str(),
                       "every live byte must be moved at least once "
                       "by some kernel of the op");
        }
    }

    // ---- P010: the scheduled peak fits the device --------------------
    if (sane && !atMost(profile.scheduledPeakBytes, gpu.hbmBytes)) {
        std::ostringstream oss;
        oss << "peak resident memory " << gib(profile.scheduledPeakBytes)
            << " (weights " << gib(profile.weightBytes)
            << ") exceeds the " << gib(gpu.hbmBytes) << " of "
            << gpu.name;
        addFinding(report, capacitySeverity, rules::CapacityFeasible,
                   ctx, "profile", oss.str(),
                   "shrink the batch or resolution, or simulate a "
                   "larger-memory GPU");
    }
}

DiagnosticReport
verifyMemory(const exec::ExecutionPlan& plan,
             const exec::Timeline& timeline, const hw::GpuSpec& gpu,
             const PhysicsContext& ctx, Severity capacitySeverity)
{
    DiagnosticReport report;
    checkPlanDataflow(plan, ctx, report);
    if (report.fired(rules::DanglingDefUse))
        return report; // sweeping a corrupt plan would assert
    const exec::MemoryProfile profile = analyzeMemory(plan, timeline);
    checkMemoryProfile(plan, profile, gpu, ctx, report,
                       capacitySeverity);
    return report;
}

} // namespace mmgen::verify
