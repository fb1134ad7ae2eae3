#include "vecindex/ivf_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/io.h"
#include "vecindex/ivf_batch_iterator.h"
#include "vecindex/kmeans.h"

namespace blendhouse::vecindex {

namespace {
/// Rows per batched-kernel call during posting-list scans.
constexpr size_t kScanChunk = 256;
}  // namespace

common::Status IvfIndexBase::Train(const float* data, size_t n) {
  if (n == 0) return common::Status::InvalidArgument("ivf: empty train set");
  KMeansOptions opts;
  opts.k = options_.nlist;
  opts.seed = options_.seed;
  auto km = RunKMeans(data, n, dim_, opts);
  if (!km.ok()) return km.status();
  centroids_.assign(km->centroids.begin(), km->centroids.end());
  lists_.assign(centroids_.size() / dim_, {});
  return TrainCodec(data, n);
}

common::Status IvfIndexBase::AddWithIds(const float* data, const IdType* ids,
                                        size_t n) {
  if (!trained()) BH_RETURN_IF_ERROR(Train(data, n));
  for (size_t i = 0; i < n; ++i) {
    const float* v = data + i * dim_;
    size_t c = NearestCentroid(v, centroids_.data(), nlist(), dim_);
    lists_[c].ids.push_back(ids[i]);
    EncodeInto(v, &lists_[c]);
  }
  size_ += n;
  return common::Status::Ok();
}

void IvfIndexBase::RefreshDerivedState() {
  dist_ = ResolveDistance(metric_);
  // Norms are derived state: recomputed instead of serialized so the on-disk
  // format is unchanged from pre-kernel builds.
  for (auto& list : lists_) {
    list.norms.clear();
    if (metric_ != Metric::kCosine || list.vectors.empty()) continue;
    size_t count = list.vectors.size() / dim_;
    list.norms.reserve(count);
    for (size_t i = 0; i < count; ++i)
      list.norms.push_back(
          std::sqrt(SquaredNorm(list.vectors.data() + i * dim_, dim_)));
  }
}

common::Result<std::vector<Neighbor>> IvfIndexBase::SearchWithFilter(
    const float* query, const SearchParams& params) const {
  if (params.k <= 0)
    return common::Status::InvalidArgument("ivf: k must be positive");
  if (!trained()) return common::Status::Internal("ivf: not trained");

  // Rank lists by centroid distance (one batched kernel call), probe the
  // nearest nprobe.
  std::vector<float> centroid_dist(nlist());
  BatchDistance(metric_, query, centroids_.data(), nlist(), dim_,
                centroid_dist.data());
  std::vector<Neighbor> centroid_order(nlist());
  for (size_t c = 0; c < nlist(); ++c)
    centroid_order[c] = {static_cast<IdType>(c), centroid_dist[c]};
  size_t nprobe =
      std::min<size_t>(std::max(1, params.nprobe), nlist());
  // Full sort (not partial) so equal-distance centroids land in the same
  // canonical order the batch iterator's probe schedule uses.
  std::sort(centroid_order.begin(), centroid_order.end());

  std::vector<float> scratch;
  const void* ctx = PrepareQuery(query, &scratch);

  std::vector<Hit> hits;
  for (size_t p = 0; p < nprobe; ++p) {
    uint32_t list_idx = static_cast<uint32_t>(centroid_order[p].id);
    ScanList(lists_[list_idx], list_idx, query, ctx, params, &hits);
  }

  size_t k = static_cast<size_t>(params.k);
  size_t keep = NeedsRefine()
                    ? std::min(hits.size(),
                               k * static_cast<size_t>(std::max(
                                       1, params.refine_factor)) *
                                   RefineAmplification())
                    : std::min(hits.size(), k);
  auto hit_less = [](const Hit& a, const Hit& b) {
    return a.distance != b.distance ? a.distance < b.distance : a.id < b.id;
  };
  std::partial_sort(hits.begin(), hits.begin() + keep, hits.end(), hit_less);
  hits.resize(keep);

  if (NeedsRefine()) {
    // Re-rank the shortlist with exact distances from the stored raw vectors
    // (the sigma*k*c_d refine term of Eq. 2/3). Cosine uses the cached base
    // norms: dot kernel + CosineFromDot, no per-hit norm recompute.
    float query_norm = metric_ == Metric::kCosine
                           ? std::sqrt(SquaredNorm(query, dim_))
                           : 0.0f;
    for (Hit& h : hits) {
      const PostingList& list = lists_[h.list];
      if (list.vectors.size() < (size_t{h.pos} + 1) * dim_) continue;
      const float* vec = list.vectors.data() + size_t{h.pos} * dim_;
      if (metric_ == Metric::kCosine && h.pos < list.norms.size()) {
        h.distance = CosineFromDot(InnerProduct(query, vec, dim_), query_norm,
                                   list.norms[h.pos]);
      } else {
        h.distance = dist_(query, vec, dim_);
      }
    }
    std::sort(hits.begin(), hits.end(), hit_less);
    if (hits.size() > k) hits.resize(k);
  }

  std::vector<Neighbor> out;
  out.reserve(hits.size());
  for (const Hit& h : hits) out.push_back({h.id, h.distance});
  return out;
}

common::Result<std::unique_ptr<SearchIterator>> IvfIndexBase::MakeIterator(
    const float* query, const SearchParams& params) const {
  // Refining codecs (PQ) fall back to restart-with-doubled-k: their final
  // distances come from a k-dependent refine shortlist that incremental
  // probing cannot reproduce. Untrained indexes have no centroids to rank.
  if (NeedsRefine() || !trained())
    return VectorIndex::MakeIterator(query, params);
  return std::unique_ptr<SearchIterator>(
      std::make_unique<IvfBatchIterator>(this, query, params));
}

// ---- IVFFLAT ---------------------------------------------------------------

common::Status IvfFlatIndex::TrainCodec(const float* data, size_t n) {
  if (!quantized()) return common::Status::Ok();
  // One store per posting list, all sharing the int8 scale calibrated from
  // the full train sample so distances are comparable across probed lists.
  stores_.assign(nlist(), {});
  for (auto& store : stores_) {
    store.Configure(precision_, dim_, metric_);
    store.Train(data, n);
  }
  return common::Status::Ok();
}

void IvfFlatIndex::EncodeInto(const float* vec, PostingList* list) {
  if (quantized()) {
    // Codes only — the posting list keeps no fp32 copy.
    stores_[static_cast<size_t>(list - lists_.data())].Append(vec, 1);
    return;
  }
  list->vectors.insert(list->vectors.end(), vec, vec + dim_);
  if (metric_ == Metric::kCosine)
    list->norms.push_back(std::sqrt(SquaredNorm(vec, dim_)));
}

void IvfFlatIndex::ScanList(const PostingList& list, uint32_t list_idx,
                            const float* query, const void* /*ctx*/,
                            const SearchParams& params,
                            std::vector<Hit>* out) const {
  if (quantized()) {
    // Quantized first pass: the probed list's packed codes run through the
    // batched reduced-precision kernels; the executor reranks survivors in
    // fp32 from the vector column. Mirrors the fp32 path's filter-aware
    // compaction (contiguous runs in place, scattered survivors gathered
    // into a dense byte tile).
    const PrecisionStore& store = stores_[list_idx];
    PrecisionStore::QueryCtx qctx;
    store.PrepareQuery(query, &qctx);
    const size_t row_bytes = store.row_bytes();
    float dist[kScanChunk];
    if (params.filter == nullptr) {
      for (size_t begin = 0; begin < list.ids.size(); begin += kScanChunk) {
        size_t n = std::min(kScanChunk, list.ids.size() - begin);
        store.BatchDistance(qctx, begin, n, dist);
        for (size_t i = 0; i < n; ++i)
          out->push_back({dist[i], list.ids[begin + i], list_idx,
                          static_cast<uint32_t>(begin + i)});
      }
      return;
    }
    uint32_t pos[kScanChunk];
    size_t cnt = 0;
    common::AlignedVector<uint8_t> code_tile;  // sized on first scattered tile
    std::vector<float> norm_tile;
    auto flush = [&] {
      if (cnt == 0) return;
      if (static_cast<size_t>(pos[cnt - 1] - pos[0]) + 1 == cnt) {
        store.BatchDistance(qctx, pos[0], cnt, dist);
      } else {
        if (code_tile.empty()) code_tile.resize(kScanChunk * row_bytes);
        for (size_t i = 0; i < cnt; ++i)
          std::memcpy(code_tile.data() + i * row_bytes, store.RowPtr(pos[i]),
                      row_bytes);
        const float* norms = nullptr;
        if (metric_ == Metric::kCosine) {
          if (norm_tile.empty()) norm_tile.resize(kScanChunk);
          for (size_t i = 0; i < cnt; ++i) norm_tile[i] = store.norms()[pos[i]];
          norms = norm_tile.data();
        }
        store.BatchDistanceCodes(qctx, code_tile.data(), norms, cnt, dist);
      }
      for (size_t i = 0; i < cnt; ++i)
        out->push_back({dist[i], list.ids[pos[i]], list_idx, pos[i]});
      cnt = 0;
    };
    for (size_t i = 0; i < list.ids.size(); ++i) {
      if (!params.filter->Test(static_cast<size_t>(list.ids[i]))) continue;
      pos[cnt++] = static_cast<uint32_t>(i);
      if (cnt == kScanChunk) flush();
    }
    flush();
    return;
  }
  if (params.filter == nullptr) {
    // Unfiltered: batched kernel over fixed-size chunks; Cosine rides the
    // precomputed base norms so the kernel is dot-product only.
    float query_norm = metric_ == Metric::kCosine
                           ? std::sqrt(SquaredNorm(query, dim_))
                           : 0.0f;
    float dist[kScanChunk];
    for (size_t begin = 0; begin < list.ids.size(); begin += kScanChunk) {
      size_t n = std::min(kScanChunk, list.ids.size() - begin);
      const float* base = list.vectors.data() + begin * dim_;
      if (metric_ == Metric::kCosine) {
        BatchCosineWithNorms(query, base, list.norms.data() + begin,
                             query_norm, n, dim_, dist);
      } else {
        BatchDistance(metric_, query, base, n, dim_, dist);
      }
      for (size_t i = 0; i < n; ++i)
        out->push_back({dist[i], list.ids[begin + i], list_idx,
                        static_cast<uint32_t>(begin + i)});
    }
    return;
  }
  // Filtered: compact surviving positions and feed the batched kernels —
  // contiguous survivor runs scan the posting list in place, scattered
  // survivors are gathered into a dense tile. Excluded vectors still cost
  // no distance computation.
  float query_norm = metric_ == Metric::kCosine
                         ? std::sqrt(SquaredNorm(query, dim_))
                         : 0.0f;
  uint32_t pos[kScanChunk];
  float dist[kScanChunk];
  size_t cnt = 0;
  std::vector<float> gathered;        // sized on first scattered tile
  std::vector<float> gathered_norms;
  auto flush = [&] {
    if (cnt == 0) return;
    const float* base;
    const float* norm_base = nullptr;
    if (static_cast<size_t>(pos[cnt - 1] - pos[0]) + 1 == cnt) {
      base = list.vectors.data() + size_t{pos[0]} * dim_;
      if (metric_ == Metric::kCosine) norm_base = list.norms.data() + pos[0];
    } else {
      if (gathered.empty()) gathered.resize(kScanChunk * dim_);
      for (size_t i = 0; i < cnt; ++i)
        std::copy_n(list.vectors.data() + size_t{pos[i]} * dim_, dim_,
                    gathered.data() + i * dim_);
      base = gathered.data();
      if (metric_ == Metric::kCosine) {
        if (gathered_norms.empty()) gathered_norms.resize(kScanChunk);
        for (size_t i = 0; i < cnt; ++i)
          gathered_norms[i] = list.norms[pos[i]];
        norm_base = gathered_norms.data();
      }
    }
    if (metric_ == Metric::kCosine) {
      BatchCosineWithNorms(query, base, norm_base, query_norm, cnt, dim_,
                           dist);
    } else {
      BatchDistance(metric_, query, base, cnt, dim_, dist);
    }
    for (size_t i = 0; i < cnt; ++i)
      out->push_back({dist[i], list.ids[pos[i]], list_idx, pos[i]});
    cnt = 0;
  };
  for (size_t i = 0; i < list.ids.size(); ++i) {
    if (!params.filter->Test(static_cast<size_t>(list.ids[i]))) continue;
    pos[cnt++] = static_cast<uint32_t>(i);
    if (cnt == kScanChunk) flush();
  }
  flush();
}

size_t IvfFlatIndex::MemoryUsage() const {
  size_t bytes = centroids_.size() * sizeof(float);
  for (const auto& list : lists_)
    bytes += list.ids.size() * sizeof(IdType) +
             list.vectors.size() * sizeof(float) +
             list.norms.size() * sizeof(float);
  for (const auto& store : stores_) bytes += store.MemoryBytes();
  return bytes;
}

common::Status IvfFlatIndex::Save(std::string* out) const {
  common::BinaryWriter w(out);
  w.WriteString(Type());
  w.Write<uint64_t>(dim_);
  w.Write<uint32_t>(static_cast<uint32_t>(metric_));
  w.Write<uint8_t>(static_cast<uint8_t>(precision_));
  w.Write<uint64_t>(options_.nlist);
  w.Write<uint64_t>(size_);
  w.WriteVector(centroids_);
  w.Write<uint64_t>(lists_.size());
  for (size_t i = 0; i < lists_.size(); ++i) {
    w.WriteVector(lists_[i].ids);
    if (quantized()) {
      stores_[i].Serialize(&w);
    } else {
      w.WriteVector(lists_[i].vectors);
    }
  }
  return common::Status::Ok();
}

common::Status IvfFlatIndex::Load(std::string_view in) {
  common::BinaryReader r(in);
  std::string type;
  BH_RETURN_IF_ERROR(r.ReadString(&type));
  if (type != Type()) return common::Status::Corruption("ivfflat: wrong type");
  uint64_t dim = 0, nlist = 0, size = 0;
  uint32_t metric = 0;
  uint8_t precision_tag = 0;
  BH_RETURN_IF_ERROR(r.Read(&dim));
  BH_RETURN_IF_ERROR(r.Read(&metric));
  BH_RETURN_IF_ERROR(r.Read(&precision_tag));
  if (!SavedDimValid(dim))
    return common::Status::Corruption("ivfflat: bad dim");
  if (!MetricFromTag(metric, &metric_))
    return common::Status::Corruption("ivfflat: bad metric");
  if (!PrecisionFromTag(precision_tag, &precision_))
    return common::Status::Corruption("ivfflat: bad precision tag");
  BH_RETURN_IF_ERROR(r.Read(&nlist));
  BH_RETURN_IF_ERROR(r.Read(&size));
  dim_ = dim;
  options_.nlist = nlist;
  size_ = size;
  BH_RETURN_IF_ERROR(r.ReadVector(&centroids_));
  uint64_t num_lists = 0;
  BH_RETURN_IF_ERROR(r.Read(&num_lists));
  if (!common::LengthIsProduct(centroids_.size(), num_lists, dim_))
    return common::Status::Corruption("ivfflat: centroid array mismatch");
  lists_.assign(num_lists, {});
  stores_.clear();
  if (quantized()) stores_.assign(num_lists, {});
  for (size_t i = 0; i < lists_.size(); ++i) {
    BH_RETURN_IF_ERROR(r.ReadVector(&lists_[i].ids));
    if (quantized()) {
      BH_RETURN_IF_ERROR(stores_[i].Deserialize(&r));
      if (stores_[i].precision() != precision_ || stores_[i].dim() != dim_ ||
          stores_[i].size() != lists_[i].ids.size())
        return common::Status::Corruption("ivfflat: store mismatch");
    } else {
      BH_RETURN_IF_ERROR(r.ReadVector(&lists_[i].vectors));
      if (!common::LengthIsProduct(lists_[i].vectors.size(),
                                   lists_[i].ids.size(), dim_))
        return common::Status::Corruption("ivfflat: list payload mismatch");
    }
  }
  RefreshDerivedState();
  return common::Status::Ok();
}

// ---- IVFPQ / IVFPQFS -------------------------------------------------------

common::Status IvfPqIndex::TrainCodec(const float* data, size_t n) {
  return pq_.Train(data, n, dim_, pq_options_.m, pq_options_.nbits,
                   options_.seed);
}

void IvfPqIndex::EncodeInto(const float* vec, PostingList* list) {
  size_t old = list->codes.size();
  list->codes.resize(old + pq_.code_size());
  pq_.Encode(vec, list->codes.data() + old);
  if (pq_options_.keep_raw_for_refine) {
    list->vectors.insert(list->vectors.end(), vec, vec + dim_);
    if (metric_ == Metric::kCosine)
      list->norms.push_back(std::sqrt(SquaredNorm(vec, dim_)));
  }
}

const void* IvfPqIndex::PrepareQuery(const float* query,
                                     std::vector<float>* scratch) const {
  scratch->resize(pq_.m() * pq_.ks());
  pq_.BuildAdcTable(query, scratch->data());
  return scratch->data();
}

void IvfPqIndex::ScanList(const PostingList& list, uint32_t list_idx,
                          const float* /*query*/, const void* ctx,
                          const SearchParams& params,
                          std::vector<Hit>* out) const {
  const float* table = static_cast<const float*>(ctx);
  size_t code_size = pq_.code_size();
  if (params.filter == nullptr) {
    // Unfiltered: batched ADC lookups (gather-based in the SIMD tiers).
    float dist[kScanChunk];
    for (size_t begin = 0; begin < list.ids.size(); begin += kScanChunk) {
      size_t n = std::min(kScanChunk, list.ids.size() - begin);
      pq_.AdcDistanceBatch(table, list.codes.data() + begin * code_size, n,
                           dist);
      for (size_t i = 0; i < n; ++i)
        out->push_back({dist[i], list.ids[begin + i], list_idx,
                        static_cast<uint32_t>(begin + i)});
    }
    return;
  }
  // Filtered: compact surviving positions; contiguous code runs feed the
  // batched ADC kernel in place, scattered survivors are gathered into a
  // dense code tile first.
  uint32_t pos[kScanChunk];
  float dist[kScanChunk];
  size_t cnt = 0;
  std::vector<uint8_t> code_tile;  // sized on first scattered tile
  auto flush = [&] {
    if (cnt == 0) return;
    const uint8_t* codes;
    if (static_cast<size_t>(pos[cnt - 1] - pos[0]) + 1 == cnt) {
      codes = list.codes.data() + size_t{pos[0]} * code_size;
    } else {
      if (code_tile.empty()) code_tile.resize(kScanChunk * code_size);
      for (size_t i = 0; i < cnt; ++i)
        std::memcpy(code_tile.data() + i * code_size,
                    list.codes.data() + size_t{pos[i]} * code_size,
                    code_size);
      codes = code_tile.data();
    }
    pq_.AdcDistanceBatch(table, codes, cnt, dist);
    for (size_t i = 0; i < cnt; ++i)
      out->push_back({dist[i], list.ids[pos[i]], list_idx, pos[i]});
    cnt = 0;
  };
  for (size_t i = 0; i < list.ids.size(); ++i) {
    if (!params.filter->Test(static_cast<size_t>(list.ids[i]))) continue;
    pos[cnt++] = static_cast<uint32_t>(i);
    if (cnt == kScanChunk) flush();
  }
  flush();
}

size_t IvfPqIndex::MemoryUsage() const {
  // Raw refine vectors are charged to the segment (cold storage), not the
  // index: the resident structure is codes + codebooks + centroids, which is
  // what gives PQFS its Table-VI memory advantage.
  size_t bytes = centroids_.size() * sizeof(float) + pq_.MemoryUsage();
  for (const auto& list : lists_)
    bytes += list.ids.size() * sizeof(IdType) + list.codes.size();
  return bytes;
}

common::Status IvfPqIndex::Save(std::string* out) const {
  common::BinaryWriter w(out);
  w.WriteString(Type());
  w.Write<uint64_t>(dim_);
  w.Write<uint32_t>(static_cast<uint32_t>(metric_));
  w.Write<uint64_t>(options_.nlist);
  w.Write<uint64_t>(size_);
  w.Write<uint64_t>(pq_options_.m);
  w.Write<uint64_t>(pq_options_.nbits);
  w.Write<uint8_t>(pq_options_.keep_raw_for_refine ? 1 : 0);
  w.WriteVector(centroids_);
  pq_.Serialize(&w);
  w.Write<uint64_t>(lists_.size());
  for (const auto& list : lists_) {
    w.WriteVector(list.ids);
    w.WriteVector(list.codes);
    w.WriteVector(list.vectors);
  }
  return common::Status::Ok();
}

common::Status IvfPqIndex::Load(std::string_view in) {
  common::BinaryReader r(in);
  std::string type;
  BH_RETURN_IF_ERROR(r.ReadString(&type));
  uint64_t dim = 0, nlist = 0, size = 0, m = 0, nbits = 0;
  uint32_t metric = 0;
  uint8_t keep_raw = 0;
  BH_RETURN_IF_ERROR(r.Read(&dim));
  BH_RETURN_IF_ERROR(r.Read(&metric));
  BH_RETURN_IF_ERROR(r.Read(&nlist));
  BH_RETURN_IF_ERROR(r.Read(&size));
  BH_RETURN_IF_ERROR(r.Read(&m));
  BH_RETURN_IF_ERROR(r.Read(&nbits));
  BH_RETURN_IF_ERROR(r.Read(&keep_raw));
  if (!SavedDimValid(dim)) return common::Status::Corruption("ivfpq: bad dim");
  if (!MetricFromTag(metric, &metric_))
    return common::Status::Corruption("ivfpq: bad metric");
  dim_ = dim;
  options_.nlist = nlist;
  size_ = size;
  pq_options_.m = m;
  pq_options_.nbits = nbits;
  pq_options_.keep_raw_for_refine = keep_raw != 0;
  if (type != Type()) return common::Status::Corruption("ivfpq: wrong type");
  BH_RETURN_IF_ERROR(r.ReadVector(&centroids_));
  BH_RETURN_IF_ERROR(pq_.Deserialize(&r));
  // A trained index encodes with a codebook over its own dimension.
  if (!centroids_.empty() && pq_.dim() != dim_)
    return common::Status::Corruption("ivfpq: codebook dim mismatch");
  uint64_t num_lists = 0;
  BH_RETURN_IF_ERROR(r.Read(&num_lists));
  if (!common::LengthIsProduct(centroids_.size(), num_lists, dim_))
    return common::Status::Corruption("ivfpq: centroid array mismatch");
  lists_.assign(num_lists, {});
  const size_t raw_width = pq_options_.keep_raw_for_refine ? dim_ : 0;
  for (auto& list : lists_) {
    BH_RETURN_IF_ERROR(r.ReadVector(&list.ids));
    BH_RETURN_IF_ERROR(r.ReadVector(&list.codes));
    BH_RETURN_IF_ERROR(r.ReadVector(&list.vectors));
    if (!common::LengthIsProduct(list.codes.size(), list.ids.size(),
                                 pq_.code_size()) ||
        !common::LengthIsProduct(list.vectors.size(), list.ids.size(),
                                 raw_width))
      return common::Status::Corruption("ivfpq: list payload mismatch");
  }
  RefreshDerivedState();
  return common::Status::Ok();
}

}  // namespace blendhouse::vecindex
