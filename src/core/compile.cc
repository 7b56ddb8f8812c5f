#include "core/compile.hh"

#include "common/log.hh"
#include "common/rng.hh"
#include "compiler/liveness.hh"

namespace ltrf
{

namespace
{

/** SHRF register classification per strand. */
std::vector<RegBitVec>
classifyShrfRegisters(const IntervalAnalysis &ia)
{
    std::vector<RegBitVec> cached(ia.intervals.size());

    for (const auto &iv : ia.intervals) {
        // The compile-time managed hierarchy of [20] allocates the
        // values produced inside a strand to the register file cache
        // for the remainder of the strand; values produced in earlier
        // strands (long-lived inputs) stay in the main register file.
        // So a strand's cache-allocated set is the registers it
        // defines.
        RegBitVec defs;
        for (BlockId b : iv.blocks) {
            for (const auto &in : ia.kernel.block(b).instrs) {
                if (in.op != Opcode::PREFETCH && in.dst != INVALID_REG)
                    defs.set(in.dst);
            }
        }
        cached[iv.id] = defs & iv.working_set;
    }
    return cached;
}

} // namespace

CompiledWorkload
compileWorkloadStatic(const Kernel &kernel, const SimConfig &cfg)
{
    CompiledWorkload out;
    out.design = cfg.design;

    switch (cfg.design) {
      case RfDesign::LTRF:
      case RfDesign::LTRF_PLUS: {
          FormationOptions opt;
          opt.max_regs = cfg.regs_per_interval;
          out.analysis = formRegisterIntervals(kernel, opt);
          out.code_size = insertPrefetchOps(out.analysis);
          break;
      }
      case RfDesign::LTRF_STRAND:
      case RfDesign::SHRF: {
          out.analysis = formStrands(kernel, cfg.regs_per_interval);
          out.code_size = insertPrefetchOps(out.analysis);
          out.strand_semantics = true;
          if (cfg.design == RfDesign::SHRF)
              out.shrf_cached = classifyShrfRegisters(out.analysis);
          break;
      }
      case RfDesign::BL:
      case RfDesign::RFC:
      case RfDesign::IDEAL: {
          // No transformation: wrap the kernel as-is.
          out.analysis.kernel = kernel;
          out.analysis.block_interval.assign(kernel.blocks.size(),
                                             UNKNOWN_INTERVAL);
          break;
      }
    }

    // Dead-operand bits (consumed by LTRF+; harmless otherwise).
    annotateDeadOperands(out.analysis.kernel);
    return out;
}

CompiledWorkload
compileWorkload(const Kernel &kernel, const SimConfig &cfg,
                std::uint64_t seed, std::uint64_t max_trace_instrs,
                int num_traces)
{
    ltrf_assert(num_traces >= 0 && num_traces <= cfg.max_warps_per_sm,
                "trace count %d out of range", num_traces);
    if (num_traces == 0)
        num_traces = cfg.max_warps_per_sm;
    CompiledWorkload out = compileWorkloadStatic(kernel, cfg);

    // Per-warp traces. All SMs share the same per-warp trace set;
    // memory address streams still differ per SM at simulation time.
    out.traces.reserve(static_cast<size_t>(num_traces));
    for (int w = 0; w < num_traces; w++) {
        out.traces.push_back(generateTrace(
                out.analysis.kernel,
                mixSeeds(seed, static_cast<std::uint64_t>(w)),
                max_trace_instrs));
        ltrf_assert(!out.traces.back().truncated,
                    "kernel '%s' warp %d trace hit the %llu-instruction "
                    "cap; shrink the workload", kernel.name.c_str(), w,
                    static_cast<unsigned long long>(max_trace_instrs));
    }
    return out;
}

} // namespace ltrf
