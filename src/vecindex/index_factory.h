#pragma once

#include <functional>
#include <map>
#include <string>

#include "common/result.h"
#include "vecindex/index.h"

namespace blendhouse::vecindex {

/// Parsed index definition, e.g. from SQL
/// `INDEX ann_idx embedding TYPE HNSW('DIM=960','M=16')`.
struct IndexSpec {
  std::string type = "HNSW";
  size_t dim = 0;
  Metric metric = Metric::kL2;
  /// Free-form key=value knobs: M, EF_CONSTRUCTION, NLIST, PQ_M, NBITS, ...
  std::map<std::string, std::string> params;

  /// Integer param with default; malformed values fall back to `def`.
  int64_t GetInt(const std::string& key, int64_t def) const;
};

/// Registry of index builders keyed by type name. This is the "pluggable
/// index library" mechanism: built-in types (FLAT, HNSW, HNSWSQ, IVFFLAT,
/// IVFPQ, IVFPQFS) are pre-registered, and new libraries can register
/// themselves without touching the engine.
class IndexFactory {
 public:
  using Builder =
      std::function<common::Result<VectorIndexPtr>(const IndexSpec&)>;

  /// Process-wide factory with the built-in types registered.
  static IndexFactory& Global();

  /// Registers (or replaces) a builder for `type`.
  void Register(const std::string& type, Builder builder);

  bool Has(const std::string& type) const;
  std::vector<std::string> RegisteredTypes() const;

  /// Instantiates an empty index from a spec.
  common::Result<VectorIndexPtr> Create(const IndexSpec& spec) const;

  /// Instantiates and Load()s an index from serialized bytes; the type tag
  /// is peeked from the payload so callers need only the spec's dim/metric.
  /// A non-null `owner` keeps `bytes` alive, so the index may view them
  /// instead of copying (VectorIndex::Load).
  common::Result<VectorIndexPtr> CreateFromSaved(
      const IndexSpec& spec, std::string_view bytes,
      std::shared_ptr<const void> owner = nullptr) const;

 private:
  IndexFactory();

  std::map<std::string, Builder> builders_;
};

}  // namespace blendhouse::vecindex
