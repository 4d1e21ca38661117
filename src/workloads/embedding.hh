/**
 * @file
 * Sparse embedding workloads (Section V): the MLPerf NCF recommender
 * and Facebook's DLRM. Embedding tables total far more than a single
 * NPU's local memory (~56 GB / ~66 GB), forcing the accelerator-
 * centric model parallelism of Fig. 5.
 */

#ifndef NEUMMU_WORKLOADS_EMBEDDING_HH
#define NEUMMU_WORKLOADS_EMBEDDING_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.hh"
#include "workloads/layer.hh"

namespace neummu {

/** One embedding lookup table. */
struct EmbeddingTableSpec
{
    std::string name;
    std::uint64_t rows = 0;
    unsigned dim = 64;
    unsigned elemBytes = 4;
    /** Rows gathered from this table per inference sample. */
    unsigned lookupsPerSample = 1;

    std::uint64_t rowBytes() const
    {
        return std::uint64_t(dim) * elemBytes;
    }
    std::uint64_t bytes() const { return rows * rowBytes(); }
};

/** A recommender model: embedding frontend + dense MLP backend. */
struct EmbeddingModelSpec
{
    std::string name;
    std::vector<EmbeddingTableSpec> tables;
    /** Bottom MLP (dense features), per-sample (k, n) pairs. */
    std::vector<GemmDims> bottomMlp;
    /** Top MLP (post-interaction), per-sample (k, n) pairs. */
    std::vector<GemmDims> topMlp;
    /** Feature-interaction traffic per sample (bytes). */
    std::uint64_t interactionBytesPerSample = 0;

    std::uint64_t lookupsPerSample() const;
    std::uint64_t embeddingBytesPerSample() const;
    std::uint64_t totalTableBytes() const;
};

/**
 * NCF (He et al., MLPerf inference): GMF + MLP towers, each with user
 * and item embeddings. Inference scores a slate of candidate items
 * per user (MLPerf evaluates ~1000 candidates; we use 128 to bound
 * event counts).
 */
EmbeddingModelSpec makeNcf();

/** DLRM (Naumov et al.): 26 sparse features with multi-hot pooling. */
EmbeddingModelSpec makeDlrm();

/** One gather from a table. */
struct EmbeddingLookup
{
    unsigned table = 0;
    std::uint64_t row = 0;
};

/**
 * Generate the gather trace for @p batch samples. Rows are uniform
 * random -- embedding accesses have very low temporal and spatial
 * locality (Fig. 4).
 */
std::vector<EmbeddingLookup> generateLookups(
    const EmbeddingModelSpec &spec, unsigned batch, Rng &rng);

} // namespace neummu

#endif // NEUMMU_WORKLOADS_EMBEDDING_HH
