#include "dataset.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <unordered_set>

namespace blendbench {

const char* ClassName(FilterClass c) {
  switch (c) {
    case FilterClass::kNone:
      return "unfiltered";
    case FilterClass::kPass99:
      return "pass99";
    case FilterClass::kPass10:
      return "pass10";
    case FilterClass::kPass1:
      return "pass1";
  }
  return "?";
}

namespace {

/// Inclusive range width per class; lo is drawn so [lo, lo + width - 1]
/// stays inside [0, kAttrRange).
int64_t ClassWidth(FilterClass c) {
  switch (c) {
    case FilterClass::kPass99:
      return kAttrRange * 99 / 100;
    case FilterClass::kPass10:
      return kAttrRange / 10;
    case FilterClass::kPass1:
      return kAttrRange / 100;
    case FilterClass::kNone:
      break;
  }
  return kAttrRange;
}

bool Passes(const QuerySpec& q, int64_t attr) {
  return q.cls == FilterClass::kNone || (attr >= q.lo && attr <= q.hi);
}

double L2Sqr(const float* a, const float* b, size_t dim) {
  double s = 0;
  for (size_t d = 0; d < dim; ++d) {
    double diff = static_cast<double>(a[d]) - static_cast<double>(b[d]);
    s += diff * diff;
  }
  return s;
}

bool HitLess(const Hit& a, const Hit& b) {
  return a.dist < b.dist || (a.dist == b.dist && a.id < b.id);
}

/// Keeps the k best hits seen (max-heap on distance).
class TopKHeap {
 public:
  explicit TopKHeap(size_t k) : k_(k) {}
  void Push(Hit h) {
    if (heap_.size() < k_) {
      heap_.push_back(h);
      std::push_heap(heap_.begin(), heap_.end(), HitLess);
    } else if (HitLess(h, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), HitLess);
      heap_.back() = h;
      std::push_heap(heap_.begin(), heap_.end(), HitLess);
    }
  }
  std::vector<Hit> Sorted() {
    std::sort(heap_.begin(), heap_.end(), HitLess);
    return heap_;
  }

 private:
  size_t k_;
  std::vector<Hit> heap_;
};

}  // namespace

Dataset MakeDataset(const DatasetOptions& o) {
  Dataset data;
  data.dim = o.dim;
  data.rows_per_segment = o.rows_per_segment;

  std::mt19937_64 rng(o.seed);
  std::normal_distribution<float> gauss(0.0f, 1.0f);
  // Clustered data: HNSW recall and the CBO's estimates behave as on real
  // embeddings, unlike on isotropic noise.
  const size_t kCentroids = 64;
  const float kSpread = 0.5f;
  const size_t kQueryVectors = 64;
  std::vector<float> centroids(kCentroids * o.dim);
  for (float& c : centroids) c = gauss(rng);
  auto draw = [&](float* out) {
    const float* c = centroids.data() + (rng() % kCentroids) * o.dim;
    for (size_t d = 0; d < o.dim; ++d) out[d] = c[d] + kSpread * gauss(rng);
  };

  data.vectors.resize(o.rows * o.dim);
  data.attr.resize(o.rows);
  for (size_t i = 0; i < o.rows; ++i) {
    draw(data.vectors.data() + i * o.dim);
    data.attr[i] = static_cast<int64_t>(rng() % kAttrRange);
  }

  std::vector<FilterClass> classes = {FilterClass::kNone};
  if (o.filtered_mix)
    classes = {FilterClass::kNone, FilterClass::kPass99, FilterClass::kPass10,
               FilterClass::kPass1};
  std::vector<float> raw(o.dim);
  for (size_t v = 0; v < kQueryVectors; ++v) {
    draw(raw.data());
    // Four decimals keep the SQL short; parsing the printed text back with
    // strtof (as the SQL parser does) gives the oracle the exact query.
    std::string literal = "[";
    std::vector<float> vec(o.dim);
    char buf[32];
    for (size_t d = 0; d < o.dim; ++d) {
      std::snprintf(buf, sizeof(buf), "%.4f", raw[d]);
      vec[d] = std::strtof(buf, nullptr);
      if (d > 0) literal += ',';
      literal += buf;
    }
    literal += ']';
    for (FilterClass cls : classes) {
      QuerySpec q;
      q.cls = cls;
      q.vec = vec;
      q.sql = "SELECT id, a, dist FROM t";
      if (cls != FilterClass::kNone) {
        int64_t width = ClassWidth(cls);
        q.lo = static_cast<int64_t>(rng() % (kAttrRange - width + 1));
        q.hi = q.lo + width - 1;
        q.sql += " WHERE a BETWEEN " + std::to_string(q.lo) + " AND " +
                 std::to_string(q.hi);
      }
      q.sql += " ORDER BY L2Distance(emb, " + literal + ") AS dist LIMIT 10";
      data.queries.push_back(std::move(q));
    }
  }
  return data;
}

std::vector<std::vector<int64_t>> ExactTopK(const Dataset& data, size_t k) {
  std::vector<std::vector<int64_t>> truth(data.queries.size());
  std::vector<double> dist(data.num_rows());
  const std::vector<float>* last_vec = nullptr;
  for (size_t qi = 0; qi < data.queries.size(); ++qi) {
    const QuerySpec& q = data.queries[qi];
    // Queries of one vector are adjacent; compute its distances once.
    if (last_vec == nullptr || *last_vec != q.vec) {
      for (size_t i = 0; i < data.num_rows(); ++i)
        dist[i] = L2Sqr(q.vec.data(), data.row(static_cast<int64_t>(i)),
                        data.dim);
      last_vec = &q.vec;
    }
    TopKHeap heap(k);
    for (size_t i = 0; i < data.num_rows(); ++i)
      if (Passes(q, data.attr[i]))
        heap.Push({static_cast<float>(dist[i]), static_cast<int64_t>(i)});
    for (const Hit& h : heap.Sorted()) truth[qi].push_back(h.id);
  }
  return truth;
}

std::string CheckResult(const Dataset& data, const QuerySpec& q,
                        const std::vector<ResultRow>& rows, size_t k) {
  if (rows.size() != k)
    return "returned " + std::to_string(rows.size()) + " rows, want " +
           std::to_string(k);
  std::unordered_set<int64_t> seen;
  for (size_t i = 0; i < rows.size(); ++i) {
    const ResultRow& r = rows[i];
    if (r.id < 0 || static_cast<size_t>(r.id) >= data.num_rows())
      return "id " + std::to_string(r.id) + " is not a live row";
    if (!seen.insert(r.id).second)
      return "id " + std::to_string(r.id) + " returned twice";
    if (r.attr != data.attr[static_cast<size_t>(r.id)])
      return "row " + std::to_string(r.id) + " has the wrong attribute";
    if (!Passes(q, r.attr))
      return "row " + std::to_string(r.id) + " fails the filter";
    double ref = L2Sqr(q.vec.data(), data.row(r.id), data.dim);
    if (std::fabs(r.dist - ref) > 1e-3 * std::max(1.0, ref))
      return "row " + std::to_string(r.id) + " has distance " +
             std::to_string(r.dist) + ", want " + std::to_string(ref);
    if (i > 0 && r.dist < rows[i - 1].dist - 1e-6 * std::max(1.0, r.dist))
      return "distances are not ascending";
  }
  return "";
}

double Recall(const std::vector<ResultRow>& rows,
              const std::vector<int64_t>& truth, size_t k) {
  size_t found = 0;
  for (const ResultRow& r : rows)
    if (std::find(truth.begin(), truth.end(), r.id) != truth.end()) ++found;
  return static_cast<double>(std::min(found, k)) / static_cast<double>(k);
}

}  // namespace blendbench
