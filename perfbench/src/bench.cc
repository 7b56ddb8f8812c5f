#include "bench.hh"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "compiler/verify.hh"
#include "core/compile.hh"
#include "obs/trace_sink.hh"

namespace perfbench
{

using namespace ltrf;

void
Result::add(const std::string &name, double value, const char *unit)
{
    metrics.push_back({name, value, unit});
}

void
Result::check(bool ok, std::uint64_t cells, const std::string &what)
{
    attempted += cells;
    if (!ok) {
        failed += cells;
        correct = false;
        notes.push_back("CHECK FAILED: " + what);
    }
}

double
nowUs()
{
    using namespace std::chrono;
    return duration<double, std::micro>(
                   steady_clock::now().time_since_epoch())
            .count();
}

double
SpanLog::add(const std::string &name, int cell, double start_us,
             double end_us)
{
    spans.push_back({name, cell, start_us, end_us});
    return (end_us - start_us) / 1e3;
}

void
SpanLog::label(int cell, const std::string &name)
{
    labels.emplace_back(cell, name);
}

void
SpanLog::write(const std::string &path) const
{
    constexpr int PID = 1;
    obs::TraceSink sink(spans.size() + 1);
    sink.processName(PID, "perfbench");
    double t0 = spans.empty() ? 0.0 : spans.front().start_us;
    for (const Span &s : spans)
        t0 = std::min(t0, s.start_us);
    for (const auto &[cell, name] : labels)
        sink.threadName(PID, cell, name);
    for (const Span &s : spans) {
        sink.complete(s.name.c_str(), PID, s.cell,
                      static_cast<std::uint64_t>(s.start_us - t0),
                      static_cast<std::uint64_t>(s.end_us - s.start_us));
    }
    sink.write(path);
}

namespace
{

std::uint64_t
fnv(std::uint64_t h, const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; i++) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

template <typename T>
std::uint64_t
fnvValue(std::uint64_t h, T v)
{
    return fnv(h, &v, sizeof(v));
}

} // namespace

std::uint64_t
cellFingerprint(const SimResult &r)
{
    std::uint64_t h = DIGEST_SEED;
    h = fnv(h, r.workload.data(), r.workload.size());
    h = fnvValue(h, static_cast<int>(r.design));
    for (std::uint64_t v :
         {std::uint64_t(r.cycles), r.instructions,
          std::uint64_t(r.resident_warps), r.main_accesses,
          r.cache_accesses, r.wcb_accesses, r.xfer_regs, r.prefetch_ops,
          r.writeback_regs, r.prefetch_stall_cycles})
        h = fnvValue(h, v);
    for (double v :
         {r.ipc, r.cache_hit_rate, r.l1d_hit_rate,
          r.activity.main_accesses_per_cycle,
          r.activity.cache_accesses_per_cycle,
          r.activity.wcb_accesses_per_cycle,
          r.activity.xfer_regs_per_cycle})
        h = fnvValue(h, v);
    return h;
}

std::uint64_t
statFingerprint(const SimResult &r)
{
    std::uint64_t h = DIGEST_SEED;
    for (const StatLine &l : r.stats_lines) {
        h = fnv(h, l.name.data(), l.name.size());
        h = fnvValue(h, l.value);
    }
    return h;
}

std::uint64_t
digestCombine(std::uint64_t digest, std::uint64_t fp)
{
    return fnvValue(digest, fp);
}

std::string
hex64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
    return buf;
}

bool
slotIdentityHolds(const SimResult &r)
{
    if (!r.stall_collected || r.sm_stall.empty())
        return false;
    for (const obs::StallBreakdown &b : r.sm_stall)
        if (b.accountedSlots() != b.issue_slots)
            return false;
    return true;
}

CellLayers
runLayered(SimConfig cfg, const Workload &w, std::uint64_t seed,
           SpanLog &log, int id)
{
    CellLayers c;
    cfg.collect_stall_stats = true;
    double t = nowUs();
    {
        CompiledWorkload st = compileWorkloadStatic(w.kernel, cfg);
        double e = nowUs();
        c.static_ms = log.add("compileWorkloadStatic", id, t, e);
        t = e;
    }
    CompiledWorkload cw = compileWorkload(w.kernel, cfg, seed);
    double e = nowUs();
    c.compile_ms = log.add("compileWorkload", id, t, e);
    for (const WarpTrace &wt : cw.traces)
        c.trace_instrs += wt.refs.size();

    t = nowUs();
    VerifyResult vr = verifyAnalysis(cw.analysis, cfg.regs_per_interval);
    e = nowUs();
    c.verify_ms = log.add("verifyAnalysis", id, t, e);
    c.verify_clean = vr.clean();

    cfg.verify_kernels = false;
    t = nowUs();
    Gpu gpu(cfg, w.kernel, seed);
    e = nowUs();
    c.ctor_ms = log.add("Gpu::Gpu", id, t, e);
    t = e;
    c.result = gpu.run();
    c.run_ms = log.add("Gpu::run", id, t, nowUs());
    return c;
}

namespace
{

/** Sum of stat lines named "smN.<suffix>" over all SMs. */
std::uint64_t
smSum(const SimResult &r, const std::string &suffix)
{
    std::uint64_t s = 0;
    for (const StatLine &l : r.stats_lines) {
        const std::size_t dot = l.name.find('.');
        if (dot != std::string::npos && l.name.compare(0, 2, "sm") == 0 &&
            l.name.compare(dot + 1, std::string::npos, suffix) == 0)
            s += l.value;
    }
    return s;
}

int
designSlot(RfDesign d)
{
    switch (d) {
    case RfDesign::BL: return 0;
    case RfDesign::LTRF: return 1;
    default: return -1;
    }
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

void
LayerTotals::add(const CellLayers &c, int num_sms)
{
    const SimResult &r = c.result;
    cells++;
    static_ms += c.static_ms;
    trace_gen_ms += c.compile_ms - c.static_ms;
    verify_ms += c.verify_ms;
    construct_ms += c.ctor_ms - c.compile_ms;
    run_ms += c.run_ms;
    // A real cell runs Gpu::Gpu (which compiles), verifies, then
    // Gpu::run.
    path_ms += c.ctor_ms + c.verify_ms + c.run_ms;
    compiler_ms += c.compile_ms + c.verify_ms;
    trace_instrs += c.trace_instrs;
    if (int s = designSlot(r.design); s >= 0) {
        design_run_ns[s] += c.run_ms * 1e6;
        design_instrs[s] += r.instructions;
    }
    cycles += r.cycles;
    sm_cycles += r.cycles * static_cast<std::uint64_t>(num_sms);
    instructions += r.instructions;
    stepped += smSum(r, "issue_per_cycle.count");
    issued_stepped += smSum(r, "issue_per_cycle.sum");
    activations += smSum(r, "sched.activations");
    issue_slots += r.stall_total.issue_slots;
    for (int i = 0; i < 5; i++)
        stalls[i] += r.stall_total.stalls[i];
    main_accesses += r.main_accesses;
    bank_conflicts += r.stall_total.bank_conflict_cycles;
    prefetch_ops += r.prefetch_ops;
    cache_hits += smSum(r, "rf.cache_hits");
    cache_reads += smSum(r, "rf.cache_hits") + smSum(r, "rf.cache_misses");
    mem_stall_sum += smSum(r, "mem_stall.sum");
    mem_stall_count += smSum(r, "mem_stall.count");
    l1d_hit_sum += r.l1d_hit_rate;
}

void
LayerTotals::emit(Result &out) const
{
    const double n = static_cast<double>(cells);
    const auto mean = [&](double total) { return ratio(total, n); };
    out.add("compiler.static_ms", mean(static_ms), "ms");
    out.add("compiler.trace_gen_ms", mean(trace_gen_ms), "ms");
    out.add("compiler.verify_ms", mean(verify_ms), "ms");
    out.add("compiler.trace_instrs", static_cast<double>(trace_instrs),
            "count");
    out.add("compiler.share_of_cell", ratio(compiler_ms, path_ms),
            "frac");
    out.add("sim.construct_ms", mean(construct_ms), "ms");
    out.add("sim.run_ms", mean(run_ms), "ms");
    const char *names[2] = {"BL", "LTRF"};
    for (int i = 0; i < 2; i++)
        out.add(std::string("sim.ns_per_instr.") + names[i],
                ratio(design_run_ns[i],
                      static_cast<double>(design_instrs[i])),
                "ns");
    out.add("sim.ns_per_cycle",
            ratio(run_ms * 1e6, static_cast<double>(cycles)), "ns");
    out.add("sim.stepped_cycle_ratio",
            ratio(static_cast<double>(stepped),
                  static_cast<double>(sm_cycles)),
            "frac");
    out.add("sim.issue_per_stepped_cycle",
            ratio(static_cast<double>(issued_stepped),
                  static_cast<double>(stepped)),
            "ratio");
    out.add("sim.sched.activations_per_kinstr",
            ratio(1e3 * static_cast<double>(activations),
                  static_cast<double>(instructions)),
            "ratio");
    const char *causes[5] = {"scoreboard", "collector", "prefetch_wait",
                             "no_ready_warp", "drain"};
    for (int i = 0; i < 5; i++)
        out.add(std::string("sim.stall_frac.") + causes[i],
                ratio(static_cast<double>(stalls[i]),
                      static_cast<double>(issue_slots)),
                "frac");
    out.add("core.rf.main_accesses_per_instr",
            ratio(static_cast<double>(main_accesses),
                  static_cast<double>(instructions)),
            "ratio");
    out.add("core.rf.bank_conflict_cycles",
            static_cast<double>(bank_conflicts), "cycles");
    out.add("core.rf.prefetch_ops", static_cast<double>(prefetch_ops),
            "count");
    out.add("core.rf.cache_hit_rate",
            ratio(static_cast<double>(cache_hits),
                  static_cast<double>(cache_reads)),
            "frac");
    out.add("mem.l1d_hit_rate", mean(l1d_hit_sum), "frac");
    out.add("mem.mem_stall_mean_cycles",
            ratio(static_cast<double>(mem_stall_sum),
                  static_cast<double>(mem_stall_count)),
            "cycles");
}

} // namespace perfbench
