/**
 * @file
 * Table I: the baseline system configuration.
 *
 * Prints our baseline next to the paper's Table I values; every entry
 * that Table I specifies is reproduced verbatim, plus the parameters
 * the paper leaves implicit (and this model therefore had to choose).
 */

#include <sstream>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace bench;
    const char *id = "Table I";
    const char *desc = "baseline system configuration (parameters "
                       "the paper specifies, reproduced verbatim)";
    const auto opts = exp::parseBenchArgs(argc, argv, id, desc);

    const auto &cfg = opts.base;
    exp::Report report(id, desc, cfg);

    std::ostringstream implicit;
    implicit
        << "Parameters the paper leaves implicit (this model's "
           "calibrated choices):\n"
        << "  resident wavefronts per CU   "
        << cfg.gpu.wavefrontsPerCu
        << " (dispatch queue refills freed slots)\n"
        << "  GPU->IOMMU hop latency       "
        << cfg.iommu.hopLatency / cfg.gpu.clockPeriod
        << " GPU cycles\n"
        << "  TLB/IOMMU port rate          1 lookup per GPU cycle\n"
        << "  walker PTE path              "
        << (cfg.iommu.useWalkCache
                ? "via a CPU-complex cache (as gem5's walker)"
                : "straight to DRAM")
        << "\n"
        << "  walk cache                   "
        << cfg.iommu.walkCache.sizeBytes / 1024 << " KB, "
        << cfg.iommu.walkCache.associativity << "-way, "
        << cfg.iommu.walkCache.hitLatency / cfg.gpu.clockPeriod
        << "-cycle hits\n"
        << "  physical frame allocation    "
        << (cfg.scrambleFrames ? "scrambled (OS-like)" : "linear");
    report.addNote(implicit.str());

    report.render(std::cout);
    if (!opts.jsonPath.empty())
        report.writeJsonFile(opts.jsonPath, nullptr);
    return 0;
}
