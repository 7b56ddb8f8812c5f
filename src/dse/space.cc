#include "dse/space.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/parse_num.hh"
#include "common/strutil.hh"
#include "common/types.hh"
#include "harness/json.hh"

namespace ltrf::dse
{

namespace
{

/** Index of @p v in @p axis, or -1. */
int
axisIndex(const std::vector<int> &axis, int v)
{
    for (std::size_t i = 0; i < axis.size(); i++)
        if (axis[i] == v)
            return static_cast<int>(i);
    return -1;
}

/** "b8"-style integer token with a one-letter prefix. */
std::string
intToken(char prefix, int v)
{
    std::string s(1, prefix);
    s += std::to_string(v);
    return s;
}

bool
parseIntToken(char prefix, const std::string &tok, int &v)
{
    if (tok.size() < 2 || tok[0] != prefix)
        return false;
    // Checked parse: an out-of-int-range digit string in a saved key
    // is a malformed token, not a silently wrapped value.
    return parseInt(tok.substr(1), v);
}

bool
isPow2(int v)
{
    return v >= 1 && (v & (v - 1)) == 0;
}

std::vector<int>
asInts(const std::vector<int> &v)
{
    return v;
}

template <typename E>
std::vector<int>
asInts(const std::vector<E> &v)
{
    std::vector<int> out;
    out.reserve(v.size());
    for (E e : v)
        out.push_back(static_cast<int>(e));
    return out;
}

} // namespace

const char *
prefetchPolicyName(PrefetchPolicy p)
{
    switch (p) {
      case PrefetchPolicy::NONE:          return "none";
      case PrefetchPolicy::HW_CACHE:      return "rfc";
      case PrefetchPolicy::SW_CACHE:      return "shrf";
      case PrefetchPolicy::STRAND:        return "strand";
      case PrefetchPolicy::INTERVAL:      return "interval";
      case PrefetchPolicy::INTERVAL_PLUS: return "interval+";
    }
    return "?";
}

RfDesign
policyDesign(PrefetchPolicy p)
{
    switch (p) {
      case PrefetchPolicy::NONE:          return RfDesign::BL;
      case PrefetchPolicy::HW_CACHE:      return RfDesign::RFC;
      case PrefetchPolicy::SW_CACHE:      return RfDesign::SHRF;
      case PrefetchPolicy::STRAND:        return RfDesign::LTRF_STRAND;
      case PrefetchPolicy::INTERVAL:      return RfDesign::LTRF;
      case PrefetchPolicy::INTERVAL_PLUS: return RfDesign::LTRF_PLUS;
    }
    return RfDesign::BL;
}

const char *
cellTechToken(CellTech t)
{
    switch (t) {
      case CellTech::HP_SRAM:   return "hp";
      case CellTech::LSTP_SRAM: return "lstp";
      case CellTech::TFET_SRAM: return "tfet";
      case CellTech::DWM:       return "dwm";
    }
    return "?";
}

const char *
networkToken(NetworkKind n)
{
    return n == NetworkKind::FLAT_BUTTERFLY ? "fbfly" : "xbar";
}

bool
parseCellTech(const std::string &name, CellTech &out)
{
    const std::string want = lowered(name);
    for (CellTech t : {CellTech::HP_SRAM, CellTech::LSTP_SRAM,
                       CellTech::TFET_SRAM, CellTech::DWM})
        if (want == cellTechToken(t)) {
            out = t;
            return true;
        }
    return false;
}

bool
parseNetwork(const std::string &name, NetworkKind &out)
{
    const std::string want = lowered(name);
    if (want == "xbar" || want == "crossbar") {
        out = NetworkKind::CROSSBAR;
        return true;
    }
    if (want == "fbfly" || want == "butterfly") {
        out = NetworkKind::FLAT_BUTTERFLY;
        return true;
    }
    return false;
}

bool
parsePolicy(const std::string &name, PrefetchPolicy &out)
{
    const std::string want = lowered(name);
    for (PrefetchPolicy p :
         {PrefetchPolicy::NONE, PrefetchPolicy::HW_CACHE,
          PrefetchPolicy::SW_CACHE, PrefetchPolicy::STRAND,
          PrefetchPolicy::INTERVAL, PrefetchPolicy::INTERVAL_PLUS})
        if (want == prefetchPolicyName(p)) {
            out = p;
            return true;
        }
    return false;
}

const std::array<AxisDesc, NUM_AXES> &
axisRegistry()
{
    static const std::array<AxisDesc, NUM_AXES> registry = {{
        // AXIS_TECH
        {"tech", "--techs", /*model=*/true, /*numeric=*/false,
         [](int v) {
             return std::string(
                     cellTechToken(static_cast<CellTech>(v)));
         },
         [](const std::string &t, int &v) {
             CellTech c;
             if (!parseCellTech(t, c))
                 return false;
             v = static_cast<int>(c);
             return true;
         },
         [](const DesignPoint &p) { return static_cast<int>(p.tech); },
         [](DesignPoint &p, int v) {
             p.tech = static_cast<CellTech>(v);
         },
         [](const DesignSpace &s) { return asInts(s.techs); },
         nullptr, [](int) {}, nullptr},
        // AXIS_BANKS
        {"banks", "--banks", /*model=*/true, /*numeric=*/true,
         [](int v) { return intToken('b', v); },
         [](const std::string &t, int &v) {
             return parseIntToken('b', t, v);
         },
         [](const DesignPoint &p) { return p.banks_mult; },
         [](DesignPoint &p, int v) { p.banks_mult = v; },
         [](const DesignSpace &s) { return asInts(s.banks); },
         nullptr,
         [](int v) {
             if (!isPow2(v) || v > 64)
                 ltrf_fatal("banks multiplier %d must be a power of "
                            "two in [1, 64]", v);
         },
         nullptr},
        // AXIS_BANK_SIZE
        {"bank_size", "--bank-sizes", /*model=*/true, /*numeric=*/true,
         [](int v) { return intToken('z', v); },
         [](const std::string &t, int &v) {
             return parseIntToken('z', t, v);
         },
         [](const DesignPoint &p) { return p.bank_size_mult; },
         [](DesignPoint &p, int v) { p.bank_size_mult = v; },
         [](const DesignSpace &s) { return asInts(s.bank_sizes); },
         nullptr,
         [](int v) {
             if (!isPow2(v) || v > 64)
                 ltrf_fatal("bank-size multiplier %d must be a power "
                            "of two in [1, 64]", v);
         },
         nullptr},
        // AXIS_NETWORK
        {"network", "--networks", /*model=*/true, /*numeric=*/false,
         [](int v) {
             return std::string(
                     networkToken(static_cast<NetworkKind>(v)));
         },
         [](const std::string &t, int &v) {
             NetworkKind n;
             if (!parseNetwork(t, n))
                 return false;
             v = static_cast<int>(n);
             return true;
         },
         [](const DesignPoint &p) {
             return static_cast<int>(p.network);
         },
         [](DesignPoint &p, int v) {
             p.network = static_cast<NetworkKind>(v);
         },
         [](const DesignSpace &s) { return asInts(s.networks); },
         [](const DesignPoint &p) {
             return static_cast<int>(defaultNetwork(p.banks_mult));
         },
         [](int) {}, nullptr},
        // AXIS_CACHE_KB
        {"cache_kb", "--cache-kb", /*model=*/false, /*numeric=*/true,
         [](int v) { return intToken('c', v); },
         [](const std::string &t, int &v) {
             return parseIntToken('c', t, v);
         },
         [](const DesignPoint &p) { return p.cache_kb; },
         [](DesignPoint &p, int v) { p.cache_kb = v; },
         [](const DesignSpace &s) { return asInts(s.cache_kbs); },
         nullptr,
         [](int v) {
             if (v < 1)
                 ltrf_fatal("register cache size %dKB out of range",
                            v);
         },
         [](SimConfig &cfg, int v) {
             cfg.rf_cache_bytes =
                     static_cast<std::size_t>(v) * 1024;
         }},
        // AXIS_POLICY
        {"policy", "--policies", /*model=*/false, /*numeric=*/false,
         [](int v) {
             return std::string(prefetchPolicyName(
                     static_cast<PrefetchPolicy>(v)));
         },
         [](const std::string &t, int &v) {
             PrefetchPolicy p;
             if (!parsePolicy(t, p))
                 return false;
             v = static_cast<int>(p);
             return true;
         },
         [](const DesignPoint &p) { return static_cast<int>(p.policy); },
         [](DesignPoint &p, int v) {
             p.policy = static_cast<PrefetchPolicy>(v);
         },
         [](const DesignSpace &s) { return asInts(s.policies); },
         nullptr, [](int) {},
         [](SimConfig &cfg, int v) {
             cfg.design =
                     policyDesign(static_cast<PrefetchPolicy>(v));
         }},
        // AXIS_WARPS
        {"warps", "--warps", /*model=*/false, /*numeric=*/true,
         [](int v) { return intToken('w', v); },
         [](const std::string &t, int &v) {
             return parseIntToken('w', t, v);
         },
         [](const DesignPoint &p) { return p.active_warps; },
         [](DesignPoint &p, int v) { p.active_warps = v; },
         [](const DesignSpace &s) { return asInts(s.warps); },
         nullptr,
         [](int v) {
             const SimConfig def;
             if (v < 1 || v > def.max_warps_per_sm)
                 ltrf_fatal("active warp count %d out of range "
                            "[1, %d]", v, def.max_warps_per_sm);
         },
         [](SimConfig &cfg, int v) { cfg.num_active_warps = v; }},
        // AXIS_INTERVAL
        {"interval", "--intervals", /*model=*/false, /*numeric=*/true,
         [](int v) { return intToken('i', v); },
         [](const std::string &t, int &v) {
             return parseIntToken('i', t, v);
         },
         [](const DesignPoint &p) { return p.regs_per_interval; },
         [](DesignPoint &p, int v) { p.regs_per_interval = v; },
         [](const DesignSpace &s) { return asInts(s.intervals); },
         // Auto: the per-warp cache partition (Figures 12/13).
         [](const DesignPoint &p) {
             return p.cache_kb * 1024 / BYTES_PER_WARP_REG /
                    p.active_warps;
         },
         [](int v) {
             // Interval formation needs room for one 4-operand
             // instruction (register_interval.cc).
             if (v < 4 || v > MAX_ARCH_REGS)
                 ltrf_fatal("registers per interval %d out of range "
                            "[4, %d]", v, MAX_ARCH_REGS);
         },
         [](SimConfig &cfg, int v) { cfg.regs_per_interval = v; }},
        // AXIS_COLLECTORS
        {"collectors", "--collectors", /*model=*/false,
         /*numeric=*/true,
         [](int v) { return intToken('o', v); },
         [](const std::string &t, int &v) {
             return parseIntToken('o', t, v);
         },
         [](const DesignPoint &p) { return p.num_operand_collectors; },
         [](DesignPoint &p, int v) { p.num_operand_collectors = v; },
         [](const DesignSpace &s) { return asInts(s.collectors); },
         nullptr,
         [](int v) {
             const SimConfig def;
             if (v < def.issue_width || v > 64)
                 ltrf_fatal("operand collector count %d out of range "
                            "[%d, 64]", v, def.issue_width);
         },
         [](SimConfig &cfg, int v) {
             cfg.num_operand_collectors = v;
         }},
        // AXIS_DRAM
        {"dram_service", "--dram-service", /*model=*/false,
         /*numeric=*/true,
         [](int v) { return intToken('d', v); },
         [](const std::string &t, int &v) {
             return parseIntToken('d', t, v);
         },
         [](const DesignPoint &p) { return p.dram_service_cycles; },
         [](DesignPoint &p, int v) { p.dram_service_cycles = v; },
         [](const DesignSpace &s) { return asInts(s.dram_service); },
         nullptr,
         [](int v) {
             if (v < 1 || v > 64)
                 ltrf_fatal("DRAM service-cycle scale %d out of "
                            "range [1, 64]", v);
         },
         [](SimConfig &cfg, int v) { cfg.dram_service_cycles = v; }},
    }};
    return registry;
}

RfModelPoint
DesignPoint::modelPoint() const
{
    RfModelPoint mp;
    mp.tech = tech;
    mp.banks_mult = banks_mult;
    mp.bank_size_mult = bank_size_mult;
    mp.network = network;
    return mp;
}

std::string
DesignPoint::key() const
{
    std::string k;
    for (const AxisDesc &a : axisRegistry()) {
        if (!k.empty())
            k += '/';
        k += a.token(a.get(*this));
    }
    return k;
}

SimConfig
configFor(const DesignPoint &p, int num_sms)
{
    SimConfig cfg;
    cfg.num_sms = num_sms;
    applyRfModel(cfg, p.modelPoint());
    for (const AxisDesc &a : axisRegistry())
        if (a.apply)
            a.apply(cfg, a.get(p));
    cfg.validate();
    return cfg;
}

std::string
simKey(const SimConfig &cfg)
{
    std::string k = rfDesignName(cfg.design);
    k += "|cap" + std::to_string(cfg.rf_capacity_mult);
    k += "|banks" + std::to_string(cfg.num_mrf_banks);
    k += "|lat" + harness::jsonNumberText(cfg.mrf_latency_mult);
    k += "|cache" + std::to_string(cfg.rf_cache_bytes);
    k += "|aw" + std::to_string(cfg.num_active_warps);
    k += "|ivl" + std::to_string(cfg.regs_per_interval);
    k += "|oc" + std::to_string(cfg.num_operand_collectors);
    // The effective (SM-rescaled) value: knob settings that
    // quantize to the same bus occupancy simulate identically and
    // must share one simulation, like coinciding network latencies.
    k += "|dsc" + std::to_string(cfg.effectiveDramServiceCycles());
    return k;
}

DesignSpace
DesignSpace::defaults()
{
    DesignSpace s;
    s.techs = {CellTech::HP_SRAM, CellTech::LSTP_SRAM,
               CellTech::TFET_SRAM, CellTech::DWM};
    s.banks = {1, 2, 4, 8};
    s.bank_sizes = {1, 2, 4, 8};
    s.networks = {};    // auto: crossbar at 1x banks, butterfly above
    s.cache_kbs = {8, 16, 32};
    s.policies = {PrefetchPolicy::INTERVAL};
    s.warps = {4, 8, 16};
    s.intervals = {};    // auto: the per-warp cache partition
    s.collectors = {8};
    s.dram_service = {1};
    return s;
}

std::uint64_t
DesignSpace::size() const
{
    std::uint64_t n = 1;
    for (const AxisDesc &a : axisRegistry()) {
        const std::vector<int> vals = a.values(*this);
        n *= vals.empty() ? 1 : vals.size();
    }
    return n;
}

void
DesignSpace::finalize(DesignPoint &p) const
{
    for (const AxisDesc &a : axisRegistry())
        if (a.derive && a.values(*this).empty())
            a.set(p, a.derive(p));
}

DesignPoint
DesignSpace::pointAt(std::uint64_t index) const
{
    ltrf_assert(index < size(), "design point index %llu out of range",
                static_cast<unsigned long long>(index));
    DesignPoint p;
    // Mixed-radix decode in reverse registry order: the last
    // registry axis is the fastest; auto axes are derived below.
    const auto &registry = axisRegistry();
    for (std::size_t k = registry.size(); k-- > 0;) {
        const AxisDesc &a = registry[k];
        const std::vector<int> vals = a.values(*this);
        if (vals.empty())
            continue;
        a.set(p, vals[index % vals.size()]);
        index /= vals.size();
    }
    finalize(p);
    return p;
}

std::uint64_t
DesignSpace::indexOf(const DesignPoint &p) const
{
    std::uint64_t index = 0;
    for (const AxisDesc &a : axisRegistry()) {
        const std::vector<int> vals = a.values(*this);
        if (vals.empty())
            continue;
        const int i = axisIndex(vals, a.get(p));
        ltrf_assert(i >= 0, "indexOf() of a point outside the space "
                    "(%s axis)", a.name);
        index = index * vals.size() + static_cast<std::uint64_t>(i);
    }
    return index;
}

std::vector<DesignPoint>
DesignSpace::enumerate(std::uint64_t limit) const
{
    const std::uint64_t n =
            limit > 0 ? std::min(limit, size()) : size();
    std::vector<DesignPoint> out;
    // Cap the up-front reservation: a huge space (or a huge caller
    // limit) must not turn into one multi-GB allocation before a
    // single point exists. Past the cap the vector grows
    // geometrically like any other.
    constexpr std::uint64_t MAX_RESERVE = 4096;
    out.reserve(static_cast<std::size_t>(std::min(n, MAX_RESERVE)));
    PointCursor cur(*this, 0, n);
    for (DesignPoint p; cur.next(p);)
        out.push_back(p);
    return out;
}

PointCursor::PointCursor(const DesignSpace &s, std::uint64_t first,
                         std::uint64_t count)
    : space(&s)
{
    for (const AxisDesc &a : axisRegistry()) {
        std::vector<int> vals = a.values(s);
        if (!vals.empty())
            radix.emplace_back(&a, std::move(vals));
    }

    const std::uint64_t n = s.size();
    if (first >= n)
        return;
    remaining = std::min(count, n - first);
    idx = first;

    // Decode `first` into mixed-radix digits exactly the way
    // pointAt() does: reverse registry order, last axis fastest.
    digits.assign(radix.size(), 0);
    std::uint64_t rem = first;
    for (std::size_t k = radix.size(); k-- > 0;) {
        const std::size_t base = radix[k].second.size();
        digits[k] = static_cast<std::size_t>(rem % base);
        rem /= base;
    }
}

bool
PointCursor::next(DesignPoint &out)
{
    if (remaining == 0)
        return false;

    DesignPoint p;
    for (std::size_t k = 0; k < radix.size(); k++)
        radix[k].first->set(p, radix[k].second[digits[k]]);
    space->finalize(p);
    out = p;

    // Advance the odometer (last axis fastest), carrying left.
    for (std::size_t k = radix.size(); k-- > 0;) {
        if (++digits[k] < radix[k].second.size())
            break;
        digits[k] = 0;
    }
    idx++;
    remaining--;
    return true;
}

DesignPoint
DesignSpace::sample(Rng &rng) const
{
    return pointAt(rng.nextBounded(size()));
}

std::vector<DesignPoint>
DesignSpace::neighbors(const DesignPoint &p) const
{
    std::vector<DesignPoint> out;
    for (const AxisDesc &a : axisRegistry()) {
        const std::vector<int> vals = a.values(*this);
        if (vals.empty())
            continue;
        const int i = axisIndex(vals, a.get(p));
        if (i < 0)
            continue;
        for (int d : {-1, +1}) {
            const int j = i + d;
            if (j < 0 || j >= static_cast<int>(vals.size()))
                continue;
            DesignPoint q = p;
            a.set(q, vals[static_cast<std::size_t>(j)]);
            finalize(q);
            out.push_back(q);
        }
    }
    return out;
}

bool
DesignSpace::contains(const DesignPoint &p) const
{
    for (const AxisDesc &a : axisRegistry()) {
        const std::vector<int> vals = a.values(*this);
        if (vals.empty()) {
            // A non-derivable axis with no allowed values contains
            // nothing (validate() rejects such spaces as a user
            // error, but contains() must stay total).
            if (!a.derive || a.get(p) != a.derive(p))
                return false;
        } else if (axisIndex(vals, a.get(p)) < 0) {
            return false;
        }
    }
    return true;
}

void
DesignSpace::validate() const
{
    for (const AxisDesc &a : axisRegistry()) {
        const std::vector<int> vals = a.values(*this);
        if (vals.empty()) {
            if (!a.derive)
                ltrf_fatal("design space has an empty %s axis",
                           a.name);
            continue;
        }
        for (int v : vals)
            a.check(v);
    }
    // Cross-axis constraints the per-value checks cannot see: the
    // cache must partition evenly over the warps, an auto interval
    // length (the partition) must be formable, and every explicit
    // interval length must fit the smallest per-warp partition it
    // can be paired with (grid enumeration walks the full cross
    // product, so one bad pairing is a user error up front).
    for (int c : cache_kbs) {
        const int regs = c * 1024 / BYTES_PER_WARP_REG;
        for (int w : warps) {
            if (regs % w != 0)
                ltrf_fatal("register cache (%d regs at %dKB) not "
                           "divisible by %d active warps", regs, c, w);
            const int per_warp = regs / w;
            if (per_warp < 1 || per_warp > MAX_ARCH_REGS)
                ltrf_fatal("per-warp cache partition %d regs (cache "
                           "%dKB, %d warps) out of range", per_warp,
                           c, w);
            // An auto interval length is the partition itself, so
            // it must pass the interval axis's own range check.
            if (intervals.empty())
                axisRegistry()[AXIS_INTERVAL].check(per_warp);
            for (int ivl : intervals)
                if (ivl > per_warp)
                    ltrf_fatal("interval length %d regs exceeds the "
                               "per-warp cache partition %d (cache "
                               "%dKB, %d warps)", ivl, per_warp, c,
                               w);
        }
    }
}

} // namespace ltrf::dse
