#include "vecindex/flat_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <queue>

#include "common/io.h"
#include "vecindex/flat_batch_iterator.h"

namespace blendhouse::vecindex {

namespace {
/// Rows per batched-kernel call; bounds the stack distance buffer and keeps
/// the chunk resident in L1/L2 while the heap is updated.
constexpr size_t kScanChunk = 256;
}  // namespace

common::Status FlatIndex::Train(const float* data, size_t n) {
  // Brute force needs no structure; int8 precision uses the sample to fix
  // its symmetric scale before any rows are encoded.
  if (quantized()) store_.Train(data, n);
  return common::Status::Ok();
}

common::Status FlatIndex::AddWithIds(const float* data, const IdType* ids,
                                     size_t n) {
  if (ids_are_offsets_) {
    const size_t base = ids_.size();
    for (size_t i = 0; i < n; ++i) {
      if (ids[i] != static_cast<IdType>(base + i)) {
        ids_are_offsets_ = false;
        break;
      }
    }
  }
  ids_.insert(ids_.end(), ids, ids + n);
  if (quantized()) {
    // Codes only — no fp32 copy is retained (the resident-memory win).
    store_.Append(data, n);
    return common::Status::Ok();
  }
  data_.insert(data_.end(), data, data + n * dim_);
  if (metric_ == Metric::kCosine) {
    norms_.reserve(norms_.size() + n);
    for (size_t i = 0; i < n; ++i)
      norms_.push_back(std::sqrt(SquaredNorm(data + i * dim_, dim_)));
  }
  return common::Status::Ok();
}

PrecisionStore::QueryCtx FlatIndex::MakeQueryCtx(const float* query) const {
  PrecisionStore::QueryCtx ctx;
  if (quantized()) {
    store_.PrepareQuery(query, &ctx);
  } else {
    ctx.query = query;
    ctx.query_norm = metric_ == Metric::kCosine
                         ? std::sqrt(SquaredNorm(query, dim_))
                         : 0.0f;
  }
  return ctx;
}

void FlatIndex::ScanChunk(const PrecisionStore::QueryCtx& ctx, size_t begin,
                          size_t n, float* out) const {
  if (quantized()) {
    store_.BatchDistance(ctx, begin, n, out);
    return;
  }
  const float* base = data_.data() + begin * dim_;
  if (metric_ == Metric::kCosine) {
    BatchCosineWithNorms(ctx.query, base, norms_.data() + begin,
                         ctx.query_norm, n, dim_, out);
  } else {
    BatchDistance(metric_, ctx.query, base, n, dim_, out);
  }
}

template <typename Emit>
void FlatIndex::ScanFiltered(const PrecisionStore::QueryCtx& ctx,
                             const common::Bitset& filter, Emit&& emit) const {
  const size_t n = ids_.size();
  const size_t row_bytes = quantized() ? store_.row_bytes() : 0;
  uint32_t rows[kScanChunk];
  float dist[kScanChunk];
  size_t cnt = 0;
  common::AlignedVector<float> gathered;        // sized on first scattered tile
  common::AlignedVector<uint8_t> gathered_codes;  // quantized counterpart
  std::vector<float> gathered_norms;
  auto flush = [&] {
    if (cnt == 0) return;
    if (static_cast<size_t>(rows[cnt - 1] - rows[0]) + 1 == cnt) {
      // Contiguous survivor run: the kernels scan storage in place.
      ScanChunk(ctx, rows[0], cnt, dist);
    } else if (quantized()) {
      // Scattered survivors over packed codes: gather the encoded rows (and
      // their magnitudes for cosine) into a dense byte tile and let one
      // batched reduced-precision kernel call cover them.
      if (gathered_codes.empty()) gathered_codes.resize(kScanChunk * row_bytes);
      for (size_t i = 0; i < cnt; ++i)
        std::memcpy(gathered_codes.data() + i * row_bytes, store_.RowPtr(rows[i]),
                    row_bytes);
      const float* norms = nullptr;
      if (metric_ == Metric::kCosine) {
        if (gathered_norms.empty()) gathered_norms.resize(kScanChunk);
        for (size_t i = 0; i < cnt; ++i)
          gathered_norms[i] = store_.norms()[rows[i]];
        norms = gathered_norms.data();
      }
      store_.BatchDistanceCodes(ctx, gathered_codes.data(), norms, cnt, dist);
    } else {
      // Scattered survivors: gather into a dense tile so one batched kernel
      // call covers them (excluded rows still cost no distance math).
      if (gathered.empty()) gathered.resize(kScanChunk * dim_);
      for (size_t i = 0; i < cnt; ++i)
        std::copy_n(data_.data() + static_cast<size_t>(rows[i]) * dim_, dim_,
                    gathered.data() + i * dim_);
      if (metric_ == Metric::kCosine) {
        if (gathered_norms.empty()) gathered_norms.resize(kScanChunk);
        for (size_t i = 0; i < cnt; ++i) gathered_norms[i] = norms_[rows[i]];
        BatchCosineWithNorms(ctx.query, gathered.data(), gathered_norms.data(),
                             ctx.query_norm, cnt, dim_, dist);
      } else {
        BatchDistance(metric_, ctx.query, gathered.data(), cnt, dim_, dist);
      }
    }
    for (size_t i = 0; i < cnt; ++i) emit(ids_[rows[i]], dist[i]);
    cnt = 0;
  };
  filter.ForEachSetBit([&](size_t row) {
    if (row >= n) return;  // filter may be sized past the index
    rows[cnt++] = static_cast<uint32_t>(row);
    if (cnt == kScanChunk) flush();
  });
  flush();
}

void FlatIndex::ComputeAllDistances(const PrecisionStore::QueryCtx& ctx,
                                    const common::Bitset* filter,
                                    std::vector<Neighbor>* out) const {
  if (filter == nullptr) {
    out->reserve(ids_.size());
    float dist[kScanChunk];
    for (size_t begin = 0; begin < ids_.size(); begin += kScanChunk) {
      size_t n = std::min(kScanChunk, ids_.size() - begin);
      ScanChunk(ctx, begin, n, dist);
      for (size_t i = 0; i < n; ++i)
        out->push_back({ids_[begin + i], dist[i]});
    }
  } else if (ids_are_offsets_) {
    ScanFiltered(ctx, *filter,
                 [&](IdType id, float d) { out->push_back({id, d}); });
  } else {
    for (size_t i = 0; i < ids_.size(); ++i) {
      if (!filter->Test(static_cast<size_t>(ids_[i]))) continue;
      out->push_back(
          {ids_[i], quantized()
                        ? store_.Distance1(ctx, i)
                        : dist_(ctx.query, data_.data() + i * dim_, dim_)});
    }
  }
}

common::Result<std::unique_ptr<SearchIterator>> FlatIndex::MakeIterator(
    const float* query, const SearchParams& params) const {
  return std::unique_ptr<SearchIterator>(
      std::make_unique<FlatBatchIterator>(this, query, params));
}

common::Result<std::vector<Neighbor>> FlatIndex::SearchWithFilter(
    const float* query, const SearchParams& params) const {
  if (params.k <= 0)
    return common::Status::InvalidArgument("flat: k must be positive");
  // Max-heap of the best k so far; pop when a closer candidate arrives.
  std::priority_queue<Neighbor> heap;
  size_t k = static_cast<size_t>(params.k);
  auto offer = [&](IdType id, float d) {
    if (heap.size() < k) {
      heap.push({id, d});
    } else if (d < heap.top().distance) {
      heap.pop();
      heap.push({id, d});
    }
  };
  const PrecisionStore::QueryCtx ctx = MakeQueryCtx(query);
  if (params.filter == nullptr) {
    // Unfiltered: batched kernel over fixed-size chunks.
    float dist[kScanChunk];
    for (size_t begin = 0; begin < ids_.size(); begin += kScanChunk) {
      size_t n = std::min(kScanChunk, ids_.size() - begin);
      ScanChunk(ctx, begin, n, dist);
      for (size_t i = 0; i < n; ++i) offer(ids_[begin + i], dist[i]);
    }
  } else if (ids_are_offsets_) {
    // Filter bits address row offsets == storage positions: compact
    // survivors from set bits and batch their distances.
    ScanFiltered(ctx, *params.filter, offer);
  } else {
    // Remapped ids (bits address ids, not positions): per-row fallback.
    for (size_t i = 0; i < ids_.size(); ++i) {
      if (!params.filter->Test(static_cast<size_t>(ids_[i]))) continue;
      offer(ids_[i], quantized() ? store_.Distance1(ctx, i)
                                 : dist_(query, data_.data() + i * dim_, dim_));
    }
  }
  std::vector<Neighbor> out(heap.size());
  for (size_t i = heap.size(); i-- > 0;) {
    out[i] = heap.top();
    heap.pop();
  }
  return out;
}

common::Result<std::vector<Neighbor>> FlatIndex::SearchWithRange(
    const float* query, float radius, const SearchParams& params) const {
  std::vector<Neighbor> out;
  const PrecisionStore::QueryCtx ctx = MakeQueryCtx(query);
  if (params.filter == nullptr) {
    float dist[kScanChunk];
    for (size_t begin = 0; begin < ids_.size(); begin += kScanChunk) {
      size_t n = std::min(kScanChunk, ids_.size() - begin);
      ScanChunk(ctx, begin, n, dist);
      for (size_t i = 0; i < n; ++i)
        if (dist[i] <= radius) out.push_back({ids_[begin + i], dist[i]});
    }
  } else if (ids_are_offsets_) {
    ScanFiltered(ctx, *params.filter, [&](IdType id, float d) {
      if (d <= radius) out.push_back({id, d});
    });
  } else {
    for (size_t i = 0; i < ids_.size(); ++i) {
      if (!params.filter->Test(static_cast<size_t>(ids_[i]))) continue;
      float d = quantized() ? store_.Distance1(ctx, i)
                            : dist_(query, data_.data() + i * dim_, dim_);
      if (d <= radius) out.push_back({ids_[i], d});
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

common::Status FlatIndex::Save(std::string* out) const {
  common::BinaryWriter w(out);
  w.WriteString(Type());
  w.Write<uint64_t>(dim_);
  w.Write<uint32_t>(static_cast<uint32_t>(metric_));
  w.Write<uint8_t>(static_cast<uint8_t>(precision_));
  if (quantized()) {
    store_.Serialize(&w);
    w.WriteVector(ids_);
    return common::Status::Ok();
  }
  w.WriteVector(data_);
  w.WriteVector(ids_);
  return common::Status::Ok();
}

common::Status FlatIndex::Load(std::string_view in) {
  common::BinaryReader r(in);
  std::string type;
  BH_RETURN_IF_ERROR(r.ReadString(&type));
  if (type != Type()) return common::Status::Corruption("flat: wrong type tag");
  uint64_t dim = 0;
  uint32_t metric = 0;
  uint8_t precision_tag = 0;
  BH_RETURN_IF_ERROR(r.Read(&dim));
  BH_RETURN_IF_ERROR(r.Read(&metric));
  BH_RETURN_IF_ERROR(r.Read(&precision_tag));
  if (!SavedDimValid(dim)) return common::Status::Corruption("flat: bad dim");
  if (!MetricFromTag(metric, &metric_))
    return common::Status::Corruption("flat: bad metric");
  if (!PrecisionFromTag(precision_tag, &precision_))
    return common::Status::Corruption("flat: bad precision tag");
  dim_ = dim;
  dist_ = ResolveDistance(metric_);
  data_.clear();
  norms_.clear();
  if (quantized()) {
    BH_RETURN_IF_ERROR(store_.Deserialize(&r));
    BH_RETURN_IF_ERROR(r.ReadVector(&ids_));
    if (store_.precision() != precision_ || store_.dim() != dim_ ||
        store_.size() != ids_.size())
      return common::Status::Corruption("flat: store mismatch");
    ids_are_offsets_ = true;
    for (size_t i = 0; i < ids_.size(); ++i) {
      if (ids_[i] != static_cast<IdType>(i)) {
        ids_are_offsets_ = false;
        break;
      }
    }
    return common::Status::Ok();
  }
  BH_RETURN_IF_ERROR(r.ReadVector(&data_));
  BH_RETURN_IF_ERROR(r.ReadVector(&ids_));
  if (!common::LengthIsProduct(data_.size(), ids_.size(), dim_))
    return common::Status::Corruption("flat: size mismatch");
  // Derived state (not serialized): identity-id detection for the
  // filter-aware scan path.
  ids_are_offsets_ = true;
  for (size_t i = 0; i < ids_.size(); ++i) {
    if (ids_[i] != static_cast<IdType>(i)) {
      ids_are_offsets_ = false;
      break;
    }
  }
  // Norms are derived state: recompute rather than serialize, so the on-disk
  // format is unchanged from pre-kernel builds.
  norms_.clear();
  if (metric_ == Metric::kCosine) {
    norms_.reserve(ids_.size());
    for (size_t i = 0; i < ids_.size(); ++i)
      norms_.push_back(std::sqrt(SquaredNorm(data_.data() + i * dim_, dim_)));
  }
  return common::Status::Ok();
}

}  // namespace blendhouse::vecindex
