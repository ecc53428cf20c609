/**
 * @file
 * Multi-tenant fairness experiment (beyond the paper's figures; its
 * conclusion points at QoS-aware translation scheduling, citing the
 * MASK line of work).
 *
 * An 8-tenant reference mix — heterogeneous footprints, alternating
 * irregular/regular divergence, alternating weights — shares one GPU
 * and one IOMMU under four walk schedulers: FCFS, the paper's
 * SIMT-aware policy, and the two QoS policies composing it with
 * cross-tenant fairness (token bucket, weighted share). Each tenant
 * also runs solo under SIMT-aware scheduling as the slowdown
 * reference. The report gives per-tenant slowdowns, min/max slowdown,
 * and Jain's fairness index per policy; the same scalars land in the
 * summary JSON for the CI fairness gate.
 */

#include "bench_common.hh"

#include <algorithm>
#include <cstdint>

#include "exp/run.hh"
#include "system/system.hh"
#include "workload/tenant_mix.hh"

namespace {

using namespace bench;

/** The committed reference mix: 8 tenants, alternating weights. */
workload::TenantMixConfig
referenceMix()
{
    workload::TenantMixConfig mix;
    mix.numTenants = 8;
    mix.seed = 23;
    mix.wavefrontsPerTenant = 16;
    mix.instructionsPerWavefront = 8;
    mix.footprintScaleMin = 0.02;
    mix.footprintScaleMax = 0.08;
    mix.alternateWeights = true; // odd tenants are weight 2
    return mix;
}

/** Solo reference label: one tenant's private grid point. */
std::string
soloLabel(unsigned tenant)
{
    return "solo-t" + std::to_string(tenant);
}

/** Runs the whole mix in one System under @p kind; per-tenant finish
 *  ticks land in RunResult::extra. */
exp::Job
mixJob(const system::SystemConfig &base,
       const std::vector<workload::TenantSpec> &specs,
       core::SchedulerKind kind)
{
    exp::Job job;
    job.workload = "mix8";
    job.scheduler = core::toString(kind);
    const auto cfg = exp::withScheduler(base, kind);
    job.body = [cfg, specs] {
        exp::RunResult res;
        res.stats = system::makeTenantSystem(cfg, specs)->run();
        for (const auto &t : res.stats.tenants) {
            res.extra["tenant" + std::to_string(t.ctx) + "_finish"] =
                static_cast<double>(t.finishTick);
        }
        return res;
    };
    return job;
}

/** Runs one tenant alone (same params, whole machine to itself). */
exp::Job
soloJob(const system::SystemConfig &base,
        const workload::TenantSpec &spec, unsigned tenant)
{
    exp::Job job;
    job.workload = soloLabel(tenant);
    job.scheduler = core::toString(core::SchedulerKind::SimtAware);
    const auto cfg =
        exp::withScheduler(base, core::SchedulerKind::SimtAware);
    job.body = [cfg, spec] {
        return exp::runOne(cfg, spec.workload, spec.params);
    };
    return job;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace bench;
    const char *id = "Tenant mix (QoS fairness)";
    const char *desc = "8-tenant reference mix: per-tenant slowdown "
                       "and Jain index per walk scheduler";
    const auto opts = exp::parseBenchArgs(argc, argv, id, desc);

    const std::vector<core::SchedulerKind> policies{
        core::SchedulerKind::Fcfs, core::SchedulerKind::SimtAware,
        core::SchedulerKind::TokenBucket,
        core::SchedulerKind::WeightedShare};

    const auto specs = workload::generateTenantMix(referenceMix());

    std::vector<exp::Job> jobs;
    for (unsigned i = 0; i < specs.size(); ++i)
        jobs.push_back(soloJob(opts.base, specs[i], i));
    for (const auto kind : policies)
        jobs.push_back(mixJob(opts.base, specs, kind));
    const auto result = exp::runJobs(jobs, opts.jobs);

    exp::Report report(id, desc, opts.base);
    auto &table = report.addTable(
        {"tenant", "workload", "weight", "slow:fcfs", "slow:simt",
         "slow:token", "slow:wfq"},
        "Per-tenant slowdown vs solo (lower is better)");

    std::uint64_t auditViolations = 0;
    std::map<core::SchedulerKind, std::vector<double>> slowdowns;
    for (const auto kind : policies) {
        const auto &mix = result.at("mix8", kind);
        auditViolations += mix.stats.auditViolations;
        for (unsigned i = 0; i < specs.size(); ++i) {
            const double solo = static_cast<double>(
                result.stats(soloLabel(i),
                             core::SchedulerKind::SimtAware)
                    .runtimeTicks);
            const double finish = mix.extra.at(
                "tenant" + std::to_string(i) + "_finish");
            slowdowns[kind].push_back(finish / solo);
        }
    }

    for (unsigned i = 0; i < specs.size(); ++i) {
        std::vector<std::string> row{
            "T" + std::to_string(i), specs[i].workload,
            std::to_string(specs[i].weight)};
        for (const auto kind : policies)
            row.push_back(fmt(slowdowns[kind][i], 2) + "x");
        table.addRow(row);
    }

    auto &fairness = report.addTable(
        {"policy", "min slow", "max slow", "max/min", "jain"},
        "Fairness (Jain over per-tenant slowdowns; 1 = fair)");
    for (const auto kind : policies) {
        const auto &s = slowdowns[kind];
        const double lo = *std::min_element(s.begin(), s.end());
        const double hi = *std::max_element(s.begin(), s.end());
        const double jain = exp::jainIndex(s);
        fairness.addRow({core::toString(kind), fmt(lo, 2), fmt(hi, 2),
                         fmt(hi / lo, 2), fmt(jain, 3)});

        const std::string p = core::toString(kind);
        report.addSummary("jain_" + p, jain);
        report.addSummary("min_slowdown_" + p, lo);
        report.addSummary("max_slowdown_" + p, hi);
        for (unsigned i = 0; i < s.size(); ++i)
            report.addSummary(
                "slowdown_" + p + "_t" + std::to_string(i), s[i]);
    }
    report.addSummary("audit_violations_total",
                      static_cast<double>(auditViolations));

    report.addNote(
        "Reading: each tenant's completion tick in the shared mix "
        "over its solo SIMT-aware runtime.\nFCFS lets the "
        "translation-heavy tenants starve the light ones (low Jain); "
        "the QoS policies\ntrade a little aggregate throughput for a "
        "much tighter slowdown spread. Odd tenants carry\nweight 2, "
        "so under weighted-share they are *expected* to see lower "
        "slowdowns than their\neven neighbours — Jain is computed on "
        "raw slowdowns and therefore understates that\npolicy's "
        "weighted fairness.");
    report.render(std::cout);
    if (!opts.jsonPath.empty())
        report.writeJsonFile(opts.jsonPath, &result);
    return 0;
}
