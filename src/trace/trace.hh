/**
 * @file
 * Request-lifecycle tracing: configuration, stage taxonomy, and the
 * span record. Deliberately a light header -- SystemConfig embeds
 * TraceConfig and the instrumented components only need the span
 * vocabulary plus the TraceBuffer forward declaration, so including
 * this costs nothing on translation units that never trace.
 *
 * Timestamps are simulated ticks, never host time, so a trace is
 * bit-deterministic: the same seed and model configuration produce
 * the same spans regardless of sim.shards (for any shards >= 1;
 * the shards=0 legacy kernel is a different machine model -- no
 * shard hops -- and traces its own, equally deterministic,
 * timeline).
 *
 * Correlation keys reuse the translation router's client tagging:
 * the top byte of a request id is the issuing NPU, the low bits the
 * DMA-local request id, so every component along the path -- DMA,
 * shard port, hub bridge, MMU engine -- stamps spans for the same
 * request with the same 64-bit key without widening
 * TranslationResponse. The top-byte values 0xFD..0xFF are reserved
 * for span families that are not translation requests (speculative
 * prefetch walks, paging-engine page operations, serving-layer
 * requests), which caps the traceable NPU count at 252 -- far above
 * the router's client-tag space.
 */

#ifndef NEUMMU_TRACE_TRACE_HH
#define NEUMMU_TRACE_TRACE_HH

#include <cstdint>

#include "common/types.hh"

namespace neummu {
namespace trace {

class TraceBuffer;

/** The trace.* binder surface (see config_binder.cc). */
struct TraceConfig
{
    /** Master switch; off means no buffers, no stats, no overhead. */
    bool enabled = false;
    /**
     * Retroactive-capture trigger: a completed request is flushed
     * from the ring only when its end-to-end latency (ticks) reaches
     * this threshold. 0 (with autoP99 off) captures every request.
     */
    Tick tailThreshold = 0;
    /**
     * Additionally flush requests slower than the live p99 of their
     * domain's completion stream (recomputed every 64 completions,
     * so the trigger sequence is a pure function of the per-lane
     * span stream and stays shard-invariant).
     */
    bool autoP99 = false;
    /** Span ring capacity per lane buffer (drop-oldest). */
    std::uint64_t ring = 1 << 16;
    /** Tail-mark ring capacity per buffer (drop-oldest). */
    std::uint64_t marks = 1 << 13;
};

/**
 * Lifecycle stages, one per span. The order is the display/report
 * order; stageName() must stay in sync.
 */
enum class Stage : std::uint8_t
{
    // Serving-layer request spans (key top byte 0xFF).
    Request = 0, ///< arrival -> completion (parent span)
    ReqQueue,    ///< arrival -> dispatch to the slot's DMA
    ReqService,  ///< dispatch -> completion

    // Translation-request spans (key = router-tagged request id).
    Translation, ///< DMA issue -> response delivery (parent span)
    CreditWait,  ///< DMA blocked on port credits / walker backpressure
    HopToHub,    ///< NPU-side shard port -> hub ingress hop
    HubQueue,    ///< hub bridge retry queue (walker-full backpressure)
    TlbHit,      ///< channel-register/TLB lookup that hit
    TlbMiss,     ///< TLB lookup that missed (the detect latency)
    PrmbMerge,   ///< merged into an in-flight walk; wait until drain
    Walk,        ///< page-table walk (aux = radix levels accessed)
    Fault,       ///< page-fault service as seen by the walk
    Lookup,      ///< zoo-design secondary lookup (POM DRAM, NMT fetch)
    HopToNpu,    ///< hub -> NPU response hop
    // Synthesized only by the drain-time decomposition.
    QueueDelay,  ///< e2e time not covered by any recorded child span
    Respond,     ///< tail gap between last child span and delivery

    // Standalone span families.
    PageFetch, ///< paging engine: demand fetch (key 0xFE | vpn)
    PageEvict, ///< paging engine: eviction (key 0xFE | victim vpn)

    NumStages
};

const char *stageName(Stage s);

/** One closed span; 32 bytes, the ring element. */
struct TraceSpan
{
    std::uint64_t key = 0;
    Tick start = 0;
    Tick end = 0;
    /** Stage-specific payload (walk levels, tenant<<16|slot, ...). */
    std::uint32_t aux = 0;
    Stage stage = Stage::Translation;
};

/** How many stages exist (array sizing). */
constexpr unsigned numStages = unsigned(Stage::NumStages);

/** Router client tag position (matches translation_router). */
constexpr unsigned clientShift = 56;

/** Key-space top-byte reservations (see file comment). */
constexpr std::uint64_t requestTag = std::uint64_t(0xFF)
                                     << clientShift;
constexpr std::uint64_t pageTag = std::uint64_t(0xFE) << clientShift;
constexpr std::uint64_t prefetchTag = std::uint64_t(0xFD)
                                      << clientShift;

/**
 * Per-NPU sentinel for credit-wait spans: the blocked attempt's id
 * was already consumed (rejected issues burn ids), so the wait
 * cannot be attributed to the request that eventually succeeds. One
 * standalone lane key per NPU keeps the wait visible in the trace.
 */
constexpr std::uint64_t
creditWaitKey(std::uint64_t key_base)
{
    return key_base | ((std::uint64_t(1) << clientShift) - 1);
}

/**
 * True for keys with no completion event of their own (page
 * operations, speculative prefetch walks, the credit-wait sentinels):
 * they are emitted unconditionally. Translation ids and serving
 * request keys are NOT standalone -- both call complete(), so the
 * tail trigger decides whether their lifecycles flush.
 */
constexpr bool
standaloneKey(std::uint64_t key)
{
    return (key >> clientShift) == 0xFD ||
           (key >> clientShift) == 0xFE ||
           (key & ((std::uint64_t(1) << clientShift) - 1)) ==
               ((std::uint64_t(1) << clientShift) - 1);
}

} // namespace trace
} // namespace neummu

#endif // NEUMMU_TRACE_TRACE_HH
