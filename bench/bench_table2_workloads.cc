/**
 * @file
 * Table II: the twelve GPU benchmarks and their memory footprints.
 *
 * Regenerates the table from the workload registry and verifies, by
 * actually allocating each benchmark's address space, that the mapped
 * footprint matches the Table II value.
 */

#include "bench_common.hh"

#include "mem/backing_store.hh"
#include "vm/address_space.hh"
#include "vm/frame_allocator.hh"

int
main(int argc, char **argv)
{
    using namespace bench;
    const char *id = "Table II";
    const char *desc = "GPU benchmarks and their memory footprints";
    const auto opts = exp::parseBenchArgs(argc, argv, id, desc);

    exp::SweepSpec spec(opts.base);
    spec.workloads = workload::allWorkloadNames();
    // No simulation: each job only builds the benchmark's address
    // space and measures the eagerly mapped footprint.
    spec.body = [](const exp::JobSpec &job) {
        mem::BackingStore store;
        vm::FrameAllocator frames(mem::Addr(16) << 30);
        vm::AddressSpace as(store, frames);
        auto gen = workload::makeWorkload(job.workload);
        gen->generate(as, job.params);

        exp::RunResult res;
        res.extra["mapped_mb"] =
            static_cast<double>(as.footprintBytes())
            / (1024.0 * 1024.0);
        return res;
    };
    const auto result = exp::runJobs(spec.expand(), opts.jobs);

    exp::Report report(id, desc);
    auto &table = report.addTable({"Benchmark", "Class",
                                   "Table II (MB)", "mapped (MB)",
                                   "  Description"});

    for (const auto &name : spec.workloads) {
        const auto &info = workload::makeWorkload(name)->info();
        const double mapped_mb =
            result.at(name).extra.at("mapped_mb");
        table.addRow({name, info.irregular ? "irregular" : "regular",
                      fmt(info.footprintMB, 2), fmt(mapped_mb, 2),
                      "  " + std::string(info.description)});
    }

    report.addNote(
        "(mapped footprint = eagerly page-mapped buffers at "
        "footprintScale=1; small\ndeltas come from page rounding and "
        "vector operands)");
    report.render(std::cout);
    if (!opts.jsonPath.empty())
        report.writeJsonFile(opts.jsonPath, &result);
    return 0;
}
