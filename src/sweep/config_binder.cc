#include "sweep/config_binder.hh"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "common/text.hh"
#include "mmu/translation_factory.hh"
#include "serving/arrival.hh"
#include "workloads/embedding_workload.hh"
#include "workloads/models.hh"
#include "workloads/request_model.hh"
#include "workloads/workload_factory.hh"

namespace neummu {
namespace sweep {

namespace {

[[noreturn]] void
badValue(const std::string &key, const std::string &value,
         const std::string &expect)
{
    throw BindError("bad value '" + value + "' for sweep config key " +
                    key + " (expected " + expect + ")");
}

/** Unsigned with optional K/M/G suffix (shared size grammar). */
std::uint64_t
parseU64(const std::string &key, const std::string &value)
{
    try {
        return parseSizeBytesChecked(value);
    } catch (const WorkloadError &) {
        badValue(key, value, "an unsigned integer, K/M/G suffix ok");
    }
}

/** parseU64 for counts and latencies where 0 is meaningless. */
std::uint64_t
parsePositive(const std::string &key, const std::string &value)
{
    const std::uint64_t v = parseU64(key, value);
    if (v == 0)
        badValue(key, value, "an unsigned integer >= 1");
    return v;
}

/** parsePositive for a TLB's entry count, which its index bounds. */
std::size_t
parseTlbEntries(const std::string &key, const std::string &value)
{
    const std::uint64_t v = parsePositive(key, value);
    if (v > Tlb::maxEntries)
        badValue(key, value,
                 "an integer in [1," + std::to_string(Tlb::maxEntries) +
                     "], the most entries a TLB index word can address");
    return std::size_t(v);
}

/**
 * parsePositive for an unsigned field: a value past its range would
 * wrap (4G to 0) on the narrowing store.
 */
unsigned
parseCount(const std::string &key, const std::string &value)
{
    const std::uint64_t v = parsePositive(key, value);
    constexpr unsigned max = std::numeric_limits<unsigned>::max();
    if (v > max)
        badValue(key, value,
                 "an integer in [1," + std::to_string(max) + "]");
    return unsigned(v);
}

double
parseF64(const std::string &key, const std::string &value)
{
    char *end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0')
        badValue(key, value, "a number");
    return v;
}

bool
parseBool(const std::string &key, const std::string &value)
{
    const std::string v = lowered(value);
    if (v == "1" || v == "true" || v == "on" || v == "yes")
        return true;
    if (v == "0" || v == "false" || v == "off" || v == "no")
        return false;
    badValue(key, value, "0|1");
}

MmuKind
parseMmuKind(const std::string &key, const std::string &value)
{
    MmuKind kind;
    if (!translationDesignFromName(value, kind))
        badValue(key, value, translationDesignList());
    return kind;
}

/**
 * Set the translation design, guarding the override-ordering trap:
 * earlier mmu.* edits materialized a Custom config, and a later
 * mmuKind=/mmu.design= would silently discard them. That order is an
 * error, not a silent reset.
 */
void
setMmuKind(SystemConfig &cfg, const std::string &key,
           const std::string &value)
{
    const MmuKind kind = parseMmuKind(key, value);
    if (cfg.mmuEdited && cfg.mmuKind == MmuKind::Custom &&
        kind != MmuKind::Custom) {
        throw BindError(
            key + "=" + value + " after earlier mmu.* edits would "
            "discard them; put " + key + "= before any mmu.* key (or "
            "drop it -- mmu.* edits already select the custom design)");
    }
    cfg.mmuKind = kind;
}

MmuCacheKind
parseCacheKind(const std::string &key, const std::string &value)
{
    const std::string v = lowered(value);
    if (v == "none")
        return MmuCacheKind::None;
    if (v == "tpreg")
        return MmuCacheKind::TpReg;
    if (v == "tpc")
        return MmuCacheKind::Tpc;
    if (v == "uptc")
        return MmuCacheKind::Uptc;
    badValue(key, value, "none|tpreg|tpc|uptc");
}

EvictionPolicy
parseEviction(const std::string &key, const std::string &value)
{
    const std::string v = lowered(value);
    if (v == "clock")
        return EvictionPolicy::Clock;
    if (v == "lru")
        return EvictionPolicy::Lru;
    badValue(key, value, "clock|lru");
}

serving::ArrivalKind
parseArrivalKind(const std::string &key, const std::string &value)
{
    serving::ArrivalKind kind;
    if (serving::arrivalKindFromName(lowered(value), kind))
        return kind;
    std::string expect;
    for (const std::string &name : serving::arrivalKindNames()) {
        if (!expect.empty())
            expect += "|";
        expect += name;
    }
    badValue(key, value, expect);
}

/**
 * The serve.workload spec is compiled at System construction; validate
 * it at bind time so a typo fails the job, not the run.
 */
std::string
parseRequestModelSpec(const std::string &key, const std::string &value)
{
    try {
        requestModelFromSpecChecked(value);
    } catch (const WorkloadError &err) {
        throw BindError("bad value '" + value +
                        "' for sweep config key " + key + ": " +
                        err.what());
    }
    return value;
}

/**
 * The editable MMU config: any mmu.* key first materializes the
 * config the current kind resolves to and flips the kind to Custom,
 * so "mmuKind=neummu mmu.numPtws=32" edits the canned NeuMMU point.
 */
MmuConfig &
customMmu(SystemConfig &cfg)
{
    if (cfg.mmuKind != MmuKind::Custom) {
        if (!isWalkerCoreKind(cfg.mmuKind)) {
            const std::string key = translationDesignKey(cfg.mmuKind);
            const std::string group = key == "pomtlb" ? "pom" : key;
            throw BindError(
                "mmu.* keys tune the walker-core designs; design '" +
                key + "' is configured via its own mmu." + group +
                ".* keys");
        }
        cfg.mmu = cfg.resolvedMmuConfig();
        cfg.mmuKind = MmuKind::Custom;
    }
    cfg.mmuEdited = true;
    return cfg.mmu;
}

/**
 * preset=<name>: replace the whole machine with a canned scenario
 * config, preserving name, seed, and mmuKind (the fields callers are
 * documented to override on the canned configs).
 */
void
applyPreset(SystemConfig &cfg, const std::string &value)
{
    const std::string v = lowered(value);
    EmbeddingModelSpec spec;
    if (v == "dlrm_paging")
        spec = makeDlrm();
    else if (v == "ncf_paging")
        spec = makeNcf();
    else
        badValue("preset", value, "dlrm_paging|ncf_paging");
    if (cfg.mmuKind == MmuKind::Custom)
        throw BindError("preset=" + value + " needs a named mmuKind "
                        "(set mmuKind/mmu.design to a named design "
                        "first)");
    const std::string name = cfg.name;
    const std::uint64_t seed = cfg.seed;
    // sim.* describes how to EXECUTE the simulation, not the machine;
    // a preset replaces the machine but keeps the kernel knobs (so
    // e.g. a base-config "sim.shards=4" survives preset jobs). The
    // zoo design sub-configs ride along for the same reason: they
    // only matter when mmuKind selects them.
    const SimConfig sim = cfg.sim;
    const RangeMmuConfig range = cfg.rangeMmu;
    const PomTlbConfig pom = cfg.pomTlb;
    const NmtConfig nmt = cfg.nmt;
    cfg = demandPagingSystemConfig(spec, EmbeddingSystemConfig{},
                                   cfg.mmuKind, cfg.pageShift);
    cfg.name = name;
    cfg.seed = seed;
    cfg.sim = sim;
    cfg.rangeMmu = range;
    cfg.pomTlb = pom;
    cfg.nmt = nmt;
}

/**
 * Reject an unknown key. If the key sits in a known group ("sim.foo"),
 * the error enumerates that group's valid keys, so a typo'd knob fails
 * with its actual choices instead of a pointer at --list-keys.
 */
[[noreturn]] void
unknownKey(const std::string &key)
{
    const std::size_t dot = key.find('.');
    if (dot != std::string::npos) {
        const std::string prefix = key.substr(0, dot + 1);
        std::string choices;
        for (const BinderKeyDoc &doc : binderKeyTable()) {
            if (std::string(doc.key).rfind(prefix, 0) != 0)
                continue;
            if (!choices.empty())
                choices += "|";
            choices += doc.key;
        }
        if (!choices.empty())
            throw BindError("unknown sweep config key '" + key +
                            "' in group '" + prefix.substr(0, dot) +
                            "' (valid: " + choices + ")");
    }
    throw BindError("unknown sweep config key '" + key +
                    "' (see neummu_sweep --list-keys for the key "
                    "table)");
}

} // namespace

std::pair<std::string, std::string>
parseOverride(const std::string &text)
{
    const std::size_t eq = text.find('=');
    if (eq == std::string::npos || eq == 0)
        throw BindError("override '" + text + "' is not key=value");
    return {text.substr(0, eq), text.substr(eq + 1)};
}

void
applyOverride(SystemConfig &cfg, const std::string &key,
              const std::string &value)
{
    // --- System-level knobs ---------------------------------------
    if (key == "name") {
        cfg.name = value;
    } else if (key == "seed") {
        cfg.seed = parseU64(key, value);
    } else if (key == "numNpus") {
        cfg.numNpus = parseCount(key, value);
    } else if (key == "bufferDepth") {
        cfg.bufferDepth = parseCount(key, value);
    } else if (key == "dmaBurstBytes") {
        cfg.dmaBurstBytes = parseU64(key, value);
    } else if (key == "mmuKind" || key == "mmu.design") {
        setMmuKind(cfg, key, value);
    } else if (key == "routerPolicy") {
        const std::string v = lowered(value);
        if (v == "shared")
            cfg.routerPolicy = RouterPolicy::Shared;
        else if (v == "partitioned" || v == "part")
            cfg.routerPolicy = RouterPolicy::Partitioned;
        else
            badValue(key, value, "shared|partitioned");
    } else if (key == "sharedMemory") {
        cfg.sharedMemory = parseBool(key, value);
    } else if (key == "hostDramBytes") {
        cfg.hostDramBytes = parsePositive(key, value);
    } else if (key == "npuHbmBytes") {
        cfg.npuHbmBytes = parsePositive(key, value);
    } else if (key == "pageShift") {
        const std::uint64_t shift = parseU64(key, value);
        if (shift != smallPageShift && shift != largePageShift)
            badValue(key, value, "12|21");
        cfg.pageShift = unsigned(shift);
        // A Custom MmuConfig keeps the page size it was materialized
        // at; the translation stream has one page size.
        cfg.mmu.pageShift = unsigned(shift);
    } else if (key == "vaScatterShift") {
        // A scatter stride must clear a large page and stay inside
        // the virtual address width.
        const std::uint64_t shift = parseU64(key, value);
        if (shift != 0 && (shift < largePageShift || shift >= vaBits))
            badValue(key, value,
                     "0 or an integer in [" +
                         std::to_string(largePageShift) + "," +
                         std::to_string(vaBits - 1) + "]");
        cfg.vaScatterShift = unsigned(shift);
    } else if (key == "preset") {
        applyPreset(cfg, value);

        // --- NPU core -------------------------------------------------
    } else if (key == "npu.dmaBurstBytes") {
        cfg.npu.dmaBurstBytes = parsePositive(key, value);
    } else if (key == "npu.iaSpmBytes") {
        cfg.npu.iaSpmBytes = parseU64(key, value);
    } else if (key == "npu.wSpmBytes") {
        cfg.npu.wSpmBytes = parseU64(key, value);

        // --- Memory system --------------------------------------------
    } else if (key == "memory.channels") {
        cfg.memory.channels = parseCount(key, value);
    } else if (key == "memory.bytesPerCycle") {
        const double v = parseF64(key, value);
        if (!(v > 0.0))
            badValue(key, value, "a number > 0");
        cfg.memory.bytesPerCycle = v;
    } else if (key == "memory.accessLatency") {
        cfg.memory.accessLatency = Tick(parseU64(key, value));
    } else if (key == "memory.interleaveBytes") {
        cfg.memory.interleaveBytes = parseCount(key, value);

        // --- MMU design point (materializes Custom, see customMmu) ----
    } else if (key == "mmu.numPtws") {
        customMmu(cfg).numPtws = parseCount(key, value);
    } else if (key == "mmu.prmbSlots") {
        customMmu(cfg).prmbSlots = unsigned(parseU64(key, value));
    } else if (key == "mmu.pathCache") {
        customMmu(cfg).pathCache = parseCacheKind(key, value);
    } else if (key == "mmu.sharedCacheEntries") {
        customMmu(cfg).sharedCacheEntries =
            std::size_t(parsePositive(key, value));
    } else if (key == "mmu.sharedCacheReplacement") {
        const std::string v = lowered(value);
        if (v == "lru")
            customMmu(cfg).sharedCacheReplacement =
                MmuCacheReplacement::Lru;
        else if (v == "fifo")
            customMmu(cfg).sharedCacheReplacement =
                MmuCacheReplacement::Fifo;
        else
            badValue(key, value, "lru|fifo");
    } else if (key == "mmu.walkLatencyPerLevel") {
        customMmu(cfg).walkLatencyPerLevel = Tick(parseU64(key, value));
    } else if (key == "mmu.prefetchDepth") {
        customMmu(cfg).prefetchDepth = unsigned(parseU64(key, value));
    } else if (key == "mmu.tlb.entries") {
        customMmu(cfg).tlb.entries = parseTlbEntries(key, value);
    } else if (key == "mmu.tlb.ways") {
        customMmu(cfg).tlb.ways = std::size_t(parseU64(key, value));
    } else if (key == "mmu.tlb.hitLatency") {
        customMmu(cfg).tlb.hitLatency = Tick(parseU64(key, value));

        // --- Design-zoo knobs (do NOT flip mmuKind: they only matter
        // when mmu.design selects the matching design) -----------------
    } else if (key == "mmu.range.entries") {
        cfg.rangeMmu.entries = std::size_t(parsePositive(key, value));
    } else if (key == "mmu.range.maxPages") {
        cfg.rangeMmu.maxRangePages = parseCount(key, value);
    } else if (key == "mmu.range.walkers") {
        cfg.rangeMmu.numWalkers = parseCount(key, value);
    } else if (key == "mmu.range.hitLatency") {
        cfg.rangeMmu.hitLatency = Tick(parseU64(key, value));
    } else if (key == "mmu.range.walkLatencyPerLevel") {
        cfg.rangeMmu.walkLatencyPerLevel = Tick(parseU64(key, value));
    } else if (key == "mmu.pom.l1Entries") {
        cfg.pomTlb.l1.entries = parseTlbEntries(key, value);
    } else if (key == "mmu.pom.l1HitLatency") {
        cfg.pomTlb.l1.hitLatency = Tick(parseU64(key, value));
    } else if (key == "mmu.pom.entries") {
        cfg.pomTlb.entries = std::size_t(parseU64(key, value));
    } else if (key == "mmu.pom.ways") {
        cfg.pomTlb.ways = std::size_t(parsePositive(key, value));
    } else if (key == "mmu.pom.walkers") {
        cfg.pomTlb.numWalkers = parseCount(key, value);
    } else if (key == "mmu.pom.walkLatencyPerLevel") {
        cfg.pomTlb.walkLatencyPerLevel = Tick(parseU64(key, value));
    } else if (key == "mmu.pom.memLatency") {
        cfg.pomTlb.mem.accessLatency = Tick(parseU64(key, value));
    } else if (key == "mmu.nmt.segmentShift") {
        // segmentOf() shifts a 64-bit VPN by it.
        const std::uint64_t shift = parseU64(key, value);
        if (shift > 63)
            badValue(key, value, "an integer in [0,63]");
        cfg.nmt.segmentShift = unsigned(shift);
    } else if (key == "mmu.nmt.cacheEntries") {
        cfg.nmt.cacheEntries = std::size_t(parsePositive(key, value));
    } else if (key == "mmu.nmt.units") {
        cfg.nmt.numUnits = parseCount(key, value);
    } else if (key == "mmu.nmt.hitLatency") {
        cfg.nmt.hitLatency = Tick(parseU64(key, value));
    } else if (key == "mmu.nmt.fetchLatency") {
        cfg.nmt.fetchLatency = Tick(parseU64(key, value));

        // --- Page lifecycle / oversubscription ------------------------
    } else if (key == "paging.enabled") {
        cfg.paging.enabled = parseBool(key, value);
    } else if (key == "paging.policy") {
        cfg.paging.policy = parseEviction(key, value);
    } else if (key == "paging.residentLimitBytes") {
        cfg.paging.residentLimitBytes = parseU64(key, value);
    } else if (key == "paging.residentLimitPages") {
        cfg.paging.residentLimitBytes =
            parseU64(key, value) * pageSize(cfg.pageShift);
    } else if (key == "paging.faultLatency") {
        cfg.paging.faultLatency = Tick(parseU64(key, value));
    } else if (key == "paging.homeNode") {
        cfg.paging.homeNode = unsigned(parseU64(key, value));
    } else if (key == "paging.writebackOnEvict") {
        cfg.paging.writebackOnEvict = parseBool(key, value);

        // --- Open-loop serving ----------------------------------------
    } else if (key == "serve.enabled") {
        cfg.serve.enabled = parseBool(key, value);
    } else if (key == "serve.process") {
        cfg.serve.arrival.kind = parseArrivalKind(key, value);
    } else if (key == "serve.ratePerMcycle") {
        const double v = parseF64(key, value);
        if (v <= 0.0)
            badValue(key, value, "a positive rate");
        cfg.serve.arrival.ratePerMcycle = v;
    } else if (key == "serve.burstRatio") {
        const double v = parseF64(key, value);
        if (v < 1.0)
            badValue(key, value, "a ratio >= 1");
        cfg.serve.arrival.burstRatio = v;
    } else if (key == "serve.burstDwell") {
        cfg.serve.arrival.burstDwellCycles = parseU64(key, value);
    } else if (key == "serve.calmDwell") {
        cfg.serve.arrival.calmDwellCycles = parseU64(key, value);
    } else if (key == "serve.diurnalPeriod") {
        cfg.serve.arrival.diurnalPeriodCycles = parseU64(key, value);
    } else if (key == "serve.diurnalAmplitude") {
        const double v = parseF64(key, value);
        if (v < 0.0 || v >= 1.0)
            badValue(key, value, "an amplitude in [0,1)");
        cfg.serve.arrival.diurnalAmplitude = v;
    } else if (key == "serve.workload") {
        cfg.serve.workload = parseRequestModelSpec(key, value);
    } else if (key == "serve.slots") {
        cfg.serve.slots = unsigned(parseU64(key, value));
    } else if (key == "serve.tenants") {
        cfg.serve.tenants = parseCount(key, value);
    } else if (key == "serve.lifetimeRequests") {
        cfg.serve.tenantLifetimeRequests = parseU64(key, value);
    } else if (key == "serve.admitGap") {
        cfg.serve.admitGapCycles = parseU64(key, value);
    } else if (key == "serve.maxAdmissions") {
        cfg.serve.maxAdmissions = parseU64(key, value);
    } else if (key == "serve.demandPaged") {
        cfg.serve.demandPaged = parseBool(key, value);
    } else if (key == "serve.sloLatency") {
        cfg.serve.sloLatencyCycles = parseU64(key, value);
    } else if (key == "serve.window") {
        cfg.serve.windowCycles = parsePositive(key, value);
    } else if (key == "serve.queueLimit") {
        cfg.serve.queueLimit = parseU64(key, value);

        // --- Simulation kernel ----------------------------------------
    } else if (key == "sim.shards") {
        cfg.sim.shards = unsigned(parseU64(key, value));
    } else if (key == "sim.hopTicks") {
        cfg.sim.hopTicks = Tick(parsePositive(key, value));
    } else if (key == "sim.portCredits") {
        cfg.sim.portCredits = parseCount(key, value);
    } else if (key == "sim.profile") {
        cfg.sim.profile = parseU64(key, value) != 0;

        // --- Lifecycle tracing ----------------------------------------
    } else if (key == "trace.enabled") {
        cfg.trace.enabled = parseBool(key, value);
    } else if (key == "trace.tailThreshold") {
        cfg.trace.tailThreshold = Tick(parseU64(key, value));
    } else if (key == "trace.autoP99") {
        cfg.trace.autoP99 = parseBool(key, value);
    } else if (key == "trace.ring") {
        cfg.trace.ring = parseU64(key, value);
    } else if (key == "trace.marks") {
        cfg.trace.marks = parseU64(key, value);
    } else {
        unknownKey(key);
    }
}

void
applyOverrides(SystemConfig &cfg, const OverrideList &overrides)
{
    for (const auto &[key, value] : overrides)
        applyOverride(cfg, key, value);
    // Keys that constrain each other may come in either order, so the
    // pairs are checked once every override has landed.
    const TlbConfig &tlb = cfg.mmu.tlb;
    if (cfg.mmuKind == MmuKind::Custom && tlb.ways != 0 &&
        tlb.entries % tlb.ways != 0) {
        throw BindError("mmu.tlb.ways=" + std::to_string(tlb.ways) +
                        " does not fit mmu.tlb.entries=" +
                        std::to_string(tlb.entries) +
                        " (ways must divide entries (0 = fully "
                        "associative))");
    }
    const PomTlbConfig &pom = cfg.pomTlb;
    if (cfg.mmuKind == MmuKind::PomTlb && pom.entries < pom.ways) {
        throw BindError("mmu.pom.entries=" + std::to_string(pom.entries) +
                        " is smaller than one set of mmu.pom.ways=" +
                        std::to_string(pom.ways) +
                        " (entries must be >= ways)");
    }
    if (cfg.paging.enabled && cfg.paging.homeNode >= cfg.numNpus) {
        throw BindError("paging.homeNode=" +
                        std::to_string(cfg.paging.homeNode) +
                        " is not an NPU slot (valid: 0.." +
                        std::to_string(cfg.numNpus - 1) +
                        " for numNpus=" + std::to_string(cfg.numNpus) +
                        ")");
    }
    if (cfg.paging.enabled) {
        // The cap the PagingEngine derives: the configured one, clipped
        // to the HBM node it manages (0 = the whole node).
        const std::uint64_t node = cfg.npuHbmBytes;
        const std::uint64_t cap =
            cfg.paging.residentLimitBytes
                ? std::min(cfg.paging.residentLimitBytes, node)
                : node;
        const std::uint64_t page = pageSize(cfg.pageShift);
        if (cap / page < 2) {
            throw BindError(
                "paging.residentLimitPages=" + std::to_string(cap / page) +
                " leaves the paging engine no room to make progress "
                "(paging.residentLimitBytes=" +
                std::to_string(cfg.paging.residentLimitBytes) +
                ", npuHbmBytes=" + std::to_string(node) + ", pageShift=" +
                std::to_string(cfg.pageShift) + "; valid: >= 2 pages)");
        }
    }
}

const std::vector<BinderKeyDoc> &
binderKeyTable()
{
    static const std::vector<BinderKeyDoc> table{
        {"name", "stats prefix of the built System"},
        {"seed", "root random seed (per-workload streams derive)"},
        {"numNpus", "NPU count (>=1); >1 shares the MMU via the router"},
        {"bufferDepth", "tile-buffer depth (2 = double buffering)"},
        {"dmaBurstBytes", "system-level DMA burst override (0 = npu)"},
        {"mmuKind", "translation design (alias of mmu.design)"},
        {"routerPolicy", "shared|partitioned walker arbitration"},
        {"sharedMemory", "0|1: all NPUs contend for one memory node"},
        {"hostDramBytes", "host DRAM capacity (K/M/G ok)"},
        {"npuHbmBytes", "per-NPU HBM capacity (K/M/G ok)"},
        {"pageShift", "page size of the translation stream (12|21)"},
        {"vaScatterShift", "VA-layout scatter shift (0 = packed)"},
        {"preset", "dlrm_paging|ncf_paging canned machine "
                   "(keeps name/seed/mmuKind; set mmuKind first)"},
        {"npu.dmaBurstBytes", "per-NPU DMA burst size"},
        {"npu.iaSpmBytes", "activation scratchpad capacity"},
        {"npu.wSpmBytes", "weight scratchpad capacity"},
        {"memory.channels", "independent memory channels"},
        {"memory.bytesPerCycle", "aggregate memory bandwidth"},
        {"memory.accessLatency", "fixed access latency (cycles)"},
        {"memory.interleaveBytes", "channel interleave granularity"},
        {"mmu.design", "oracle|iommu|neummu|custom|range|pomtlb|nmt "
                       "(the design-zoo selector; set before mmu.*)"},
        {"mmu.numPtws", "parallel page-table walkers (Custom-izes)"},
        {"mmu.prmbSlots", "PRMB merge slots per PTW (0 = no PTS)"},
        {"mmu.pathCache", "none|tpreg|tpc|uptc walker path cache"},
        {"mmu.sharedCacheEntries", "Tpc/Uptc entry count"},
        {"mmu.sharedCacheReplacement", "lru|fifo for Tpc/Uptc"},
        {"mmu.walkLatencyPerLevel", "cycles per radix level walked"},
        {"mmu.prefetchDepth", "sequential translation prefetch depth"},
        {"mmu.tlb.entries", "IOTLB entries"},
        {"mmu.tlb.ways", "IOTLB associativity (0 = full)"},
        {"mmu.tlb.hitLatency", "IOTLB hit latency (cycles)"},
        {"mmu.range.entries", "RangeMMU: range-TLB entries"},
        {"mmu.range.maxPages", "RangeMMU: eager-construction cap"},
        {"mmu.range.walkers", "RangeMMU: concurrent miss walkers"},
        {"mmu.range.hitLatency", "RangeMMU: range-TLB hit latency"},
        {"mmu.range.walkLatencyPerLevel", "RangeMMU: radix level cost"},
        {"mmu.pom.l1Entries", "PomTlb: on-chip L1 TLB entries"},
        {"mmu.pom.l1HitLatency", "PomTlb: L1 hit latency (cycles)"},
        {"mmu.pom.entries", "PomTlb: in-memory TLB entries"},
        {"mmu.pom.ways", "PomTlb: in-memory associativity"},
        {"mmu.pom.walkers", "PomTlb: concurrent miss registers"},
        {"mmu.pom.walkLatencyPerLevel", "PomTlb: radix level cost"},
        {"mmu.pom.memLatency", "PomTlb: POM DRAM access latency"},
        {"mmu.nmt.segmentShift", "NMT: log2 pages per segment"},
        {"mmu.nmt.cacheEntries", "NMT: segment-cache entries"},
        {"mmu.nmt.units", "NMT: concurrent fetch units"},
        {"mmu.nmt.hitLatency", "NMT: segment-cache hit latency"},
        {"mmu.nmt.fetchLatency", "NMT: flat index fetch latency"},
        {"paging.enabled", "0|1: own a PagingEngine (page lifecycle)"},
        {"paging.policy", "clock|lru victim selection"},
        {"paging.residentLimitBytes", "residency cap in bytes (0=node)"},
        {"paging.residentLimitPages", "residency cap in pages "
                                      "(uses current pageShift)"},
        {"paging.faultLatency", "OS fault-handling overhead (cycles)"},
        {"paging.homeNode", "NPU slot whose node the engine manages"},
        {"paging.writebackOnEvict", "0|1: charge write-back migration"},
        {"serve.enabled", "0|1: open-loop serving layer (ServingEngine)"},
        {"serve.process", "fixed|poisson|bursty|diurnal arrivals"},
        {"serve.ratePerMcycle", "mean arrival rate, requests/Mcycle"},
        {"serve.burstRatio", "bursty: burst-state rate multiplier"},
        {"serve.burstDwell", "bursty: mean burst dwell (cycles)"},
        {"serve.calmDwell", "bursty: mean calm dwell (cycles)"},
        {"serve.diurnalPeriod", "diurnal: rate-cycle period (cycles)"},
        {"serve.diurnalAmplitude", "diurnal: swing in [0,1)"},
        {"serve.workload", "request-model spec (dense|embedding|"
                           "synthetic[:k=v,...])"},
        {"serve.slots", "serving NPU slots (0 = all)"},
        {"serve.tenants", "concurrent tenants at steady state"},
        {"serve.lifetimeRequests", "requests per tenant before "
                                   "retirement (0 = no churn)"},
        {"serve.admitGap", "min gap between admissions (cycles)"},
        {"serve.maxAdmissions", "total admission cap (0 = unlimited)"},
        {"serve.demandPaged", "0|1: fault tenant pages through the "
                              "PagingEngine (needs paging.enabled)"},
        {"serve.sloLatency", "SLO latency target (cycles)"},
        {"serve.window", "windowed-metric sampling period (cycles)"},
        {"serve.queueLimit", "per-slot pending cap; 0 = unbounded"},
        {"sim.shards", "0 = legacy synchronous-port kernel; >=1 = hop "
                       "model (same results for every value >=1)"},
        {"sim.hopTicks", "NPU<->hub hop latency, each way (>=1)"},
        {"sim.portCredits", "outstanding translations per NPU port (>=1)"},
        {"sim.profile", "1 = host-side cycle attribution (prof.* / "
                        "fastpath.* stats groups); observational only"},
        {"trace.enabled", "0|1: request-lifecycle span tracing "
                          "(off = zero overhead, goldens untouched)"},
        {"trace.tailThreshold", "flush only requests with e2e latency "
                                ">= this many ticks (0 = keep all)"},
        {"trace.autoP99", "0|1: also flush requests slower than the "
                          "live p99 of their domain"},
        {"trace.ring", "span-ring capacity per lane "
                       "(drop-oldest)"},
        {"trace.marks", "tail-mark ring capacity per lane"},
    };
    return table;
}

std::string
binderHelp()
{
    // Keys sharing a dotted prefix render under one group header; the
    // table is already laid out group-by-group, so a plain scan works.
    std::string out;
    std::string group;
    bool first = true;
    for (const BinderKeyDoc &doc : binderKeyTable()) {
        const std::string key = doc.key;
        const std::size_t dot = key.find('.');
        const std::string prefix =
            dot == std::string::npos ? "system" : key.substr(0, dot);
        if (prefix != group) {
            if (!first)
                out += "\n";
            out += prefix;
            if (dot != std::string::npos)
                out += ".*";
            out += ":\n";
            group = prefix;
            first = false;
        }
        out += "  ";
        out += key;
        const std::size_t pad = 28;
        out.append(pad > key.size() ? pad - key.size() : 1, ' ');
        out += doc.doc;
        out += "\n";
    }
    return out;
}

} // namespace sweep
} // namespace neummu
