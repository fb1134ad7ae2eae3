// Seeded inputs, exact oracle and result checker for the benchmark. Nothing
// here calls the engine: the oracle and the checker are independent of the
// code they judge.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace blendbench {

/// Filter classes of the read mix, as fractions of a uniform attribute.
enum class FilterClass : uint8_t { kNone = 0, kPass99, kPass10, kPass1 };
const char* ClassName(FilterClass c);

/// Attribute values are uniform over [0, kAttrRange).
inline constexpr int64_t kAttrRange = 10000;

struct QuerySpec {
  FilterClass cls = FilterClass::kNone;
  /// Inclusive attribute range; unused for kNone.
  int64_t lo = 0;
  int64_t hi = 0;
  /// Exactly the floats the SQL vector literal parses to.
  std::vector<float> vec;
  std::string sql;
};

struct DatasetOptions {
  uint64_t seed = 1;
  size_t dim = 96;
  /// Rows loaded by set-up, cut into segments of rows_per_segment.
  size_t rows = 0;
  size_t rows_per_segment = 4096;
  /// Each of the 64 distinct query vectors is issued under all four filter
  /// classes, or unfiltered only.
  bool filtered_mix = true;
};

struct Dataset {
  size_t dim = 0;
  size_t rows_per_segment = 0;
  /// Row id i is vectors[i * dim ...].
  std::vector<float> vectors;
  std::vector<int64_t> attr;
  /// Distinct queries in issue order; the read loop cycles through them.
  std::vector<QuerySpec> queries;

  size_t num_rows() const { return attr.size(); }
  const float* row(int64_t id) const {
    return vectors.data() + static_cast<size_t>(id) * dim;
  }
};

Dataset MakeDataset(const DatasetOptions& options);

struct Hit {
  float dist = 0;
  int64_t id = 0;
};

/// Ids of the exact top-k under each query's filter, one list per query.
/// Computed once per seed, outside every timed window.
std::vector<std::vector<int64_t>> ExactTopK(const Dataset& data, size_t k);

struct ResultRow {
  int64_t id = 0;
  int64_t attr = 0;
  double dist = 0;
};

/// Returns "" when `rows` is a valid answer to `q` (k rows, ascending
/// distances that match the stored vectors, every row live and inside the
/// filter, no duplicates); otherwise the first violation.
std::string CheckResult(const Dataset& data, const QuerySpec& q,
                        const std::vector<ResultRow>& rows, size_t k);

/// Share of the exact top-k found in `rows`.
double Recall(const std::vector<ResultRow>& rows,
              const std::vector<int64_t>& truth, size_t k);

}  // namespace blendbench
