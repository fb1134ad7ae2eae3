#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bitset.h"

namespace blendhouse::vecindex {

/// Row identifier inside a segment. Per-segment vector indexes store row
/// *offsets*, not primary keys, which is what makes the bidirectional
/// vector<->scalar mapping cheap (paper §III-B, "Per segment vector index").
using IdType = int64_t;

/// Distance metric. Lower is better for L2; for IP/Cosine we negate the
/// similarity so that every index can treat "smaller distance = closer".
enum class Metric { kL2, kInnerProduct, kCosine };

/// Storage precision of an index's scan tier (DESIGN.md §13). fp32 is the
/// exact baseline; the reduced formats store 2 or 1 bytes per dimension,
/// are scanned by dedicated kernels, and rely on an fp32 rerank of the top
/// candidates to restore exact ordering. The values are the tags saved
/// indexes carry; tag 2 is retired and never written.
enum class Precision : uint8_t { kFp32 = 0, kFp16 = 1, kInt8 = 3 };

std::string PrecisionName(Precision p);

/// Parses "FP32"/"FP16"/"INT8" (case-insensitive); false on unknown.
bool ParsePrecision(const std::string& name, Precision* out);

/// Reads a saved precision tag; false for the retired tag 2 and anything
/// above 3, which loaders report as corruption.
bool PrecisionFromTag(uint8_t tag, Precision* out);

/// Reads a saved metric tag; false above 2, which loaders report as
/// corruption.
bool MetricFromTag(uint32_t tag, Metric* out);

/// Whether a saved vector dimension is usable: not 0, and small enough that
/// one vector's bytes fit in size_t. Loaders report any other as corruption.
bool SavedDimValid(uint64_t dim);

/// Bytes one encoded dimension occupies.
size_t PrecisionBytes(Precision p);

/// One search hit: row offset and its distance to the query.
///
/// Ordering ties on equal distances break by id, so every sort of the same
/// hit set lands in one canonical order. Resumable batch iterators rely on
/// this: their concatenated batches must be bit-identical to the one-shot
/// sorted top-n even when duplicated distances straddle a batch boundary.
struct Neighbor {
  IdType id = -1;
  float distance = 0.0f;

  bool operator<(const Neighbor& o) const {
    return distance != o.distance ? distance < o.distance : id < o.id;
  }
  bool operator>(const Neighbor& o) const { return o < *this; }
};

/// Knobs shared by every index implementation. Unused fields are ignored by
/// index types they do not apply to (e.g. nprobe for HNSW).
struct SearchParams {
  /// Number of neighbors to return.
  int k = 10;
  /// HNSW beam width; controls the recall/latency trade-off.
  int ef_search = 64;
  /// IVF: number of inverted lists probed.
  int nprobe = 8;
  /// Pre-filter bitmap over row offsets: only rows whose bit is set may be
  /// returned. nullptr means no filtering.
  const common::Bitset* filter = nullptr;
  /// PQ indexes: re-rank (refine) the top sigma*k ADC candidates with exact
  /// distances. 1 disables refinement amplification beyond k.
  int refine_factor = 2;
};

/// Non-owning view of a contiguous float vector.
struct VectorView {
  const float* data = nullptr;
  size_t dim = 0;
};

std::string MetricName(Metric m);

}  // namespace blendhouse::vecindex
