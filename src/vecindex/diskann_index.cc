#include "vecindex/diskann_index.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <random>
#include <unordered_set>

#include "common/assert.h"
#include "common/io.h"
#include "common/task_scheduler.h"
#include "vecindex/distance.h"
#include "vecindex/scan_counters.h"

namespace blendhouse::vecindex {

DiskAnnIndex::DiskAnnIndex(size_t dim, Metric metric, DiskAnnOptions options)
    : dim_(dim),
      metric_(metric),
      options_(options),
      dist_(ResolveDistance(metric)),
      block_cache_(options.cached_nodes *
                   (dim * sizeof(float) + options.R * sizeof(uint32_t) + 64)) {}

size_t DiskAnnIndex::MemoryUsage() const {
  return pq_codes_.size() + pq_.MemoryUsage() +
         ids_.size() * sizeof(IdType) + block_cache_.used_bytes();
}

common::Status DiskAnnIndex::Train(const float* data, size_t n) {
  size_t m = options_.pq_m;
  if (dim_ % m != 0) {
    // Fall back to the largest divisor <= 16 so any dim trains.
    m = 1;
    for (size_t c = 2; c <= 16; ++c)
      if (dim_ % c == 0) m = c;
  }
  return pq_.Train(data, n, dim_, m, /*nbits=*/8, options_.seed);
}

float DiskAnnIndex::ExactDistance(const float* query, uint32_t pos) const {
  NodeBlockPtr block = ReadBlock(pos);
  scanstats::AddFp32(1);
  return dist_(query, block->vector.data(), dim_);
}

DiskAnnIndex::NodeBlockPtr DiskAnnIndex::ReadBlock(uint32_t pos) const {
  std::string key = std::to_string(pos);
  if (auto hit = block_cache_.Get(key)) return *hit;

  const std::string& bytes = disk_blocks_[pos];
  if (options_.simulate_disk_latency) {
    int64_t micros =
        options_.disk_latency_micros +
        static_cast<int64_t>(static_cast<double>(bytes.size()) /
                             options_.disk_bytes_per_micro);
    if (micros > 0) common::ChargeSimLatency(static_cast<uint64_t>(micros));
  }
  disk_reads_.fetch_add(1, std::memory_order_relaxed);

  auto block = std::make_shared<NodeBlock>();
  common::BinaryReader r(bytes);
  // Blocks are written by Seal(); corruption here is a programming error,
  // but fail soft with an empty block rather than crash.
  if (!r.ReadVector(&block->vector).ok() ||
      !r.ReadVector(&block->neighbors).ok()) {
    block->vector.assign(dim_, 0.0f);
    block->neighbors.clear();
  }
  block_cache_.Put(key, block,
                   block->vector.size() * sizeof(float) +
                       block->neighbors.size() * sizeof(uint32_t) + 64);
  return block;
}

// ---------------------------------------------------------------------------
// Build (Vamana)
// ---------------------------------------------------------------------------

namespace {
/// Insert into a bounded candidate list sorted by distance; returns false
/// when the candidate was already present or too far to fit. When `spill`
/// is non-null, candidates the bound rejects or evicts are appended to it
/// instead of being forgotten — the resumable iterator re-admits them when
/// it widens the beam, so nothing the one-shot search would have discarded
/// is lost. Passing nullptr leaves the classic semantics untouched.
bool InsertBounded(std::vector<Neighbor>* list, Neighbor n, size_t bound,
                   std::vector<Neighbor>* spill = nullptr) {
  auto it = std::lower_bound(list->begin(), list->end(), n);
  for (auto probe = it; probe != list->end() && probe->distance == n.distance;
       ++probe)
    if (probe->id == n.id) return false;
  for (const Neighbor& existing : *list)
    if (existing.id == n.id) return false;
  if (list->size() >= bound && it == list->end()) {
    if (spill != nullptr) spill->push_back(n);
    return false;
  }
  list->insert(it, n);
  if (list->size() > bound) {
    if (spill != nullptr) spill->push_back(list->back());
    list->pop_back();
  }
  return true;
}
}  // namespace

std::vector<uint32_t> DiskAnnIndex::RobustPrune(
    uint32_t node, std::vector<Neighbor> candidates) const {
  std::sort(candidates.begin(), candidates.end());
  std::vector<uint32_t> selected;
  const float* base = build_vectors_.data();
  while (!candidates.empty() && selected.size() < options_.R) {
    Neighbor closest = candidates.front();
    uint32_t c = static_cast<uint32_t>(closest.id);
    if (c != node) selected.push_back(c);
    // Drop candidates dominated by c: alpha * d(c, c') <= d(node, c').
    std::vector<Neighbor> kept;
    kept.reserve(candidates.size());
    for (size_t i = 1; i < candidates.size(); ++i) {
      uint32_t other = static_cast<uint32_t>(candidates[i].id);
      float d_c_other = dist_(base + size_t{c} * dim_,
                              base + size_t{other} * dim_, dim_);
      if (options_.alpha * d_c_other <= candidates[i].distance) continue;
      kept.push_back(candidates[i]);
    }
    candidates = std::move(kept);
  }
  return selected;
}

common::Status DiskAnnIndex::Seal() {
  // Freeze the build graph into per-node disk blocks and drop the raw data.
  disk_blocks_.clear();
  disk_blocks_.reserve(ids_.size());
  for (size_t i = 0; i < ids_.size(); ++i) {
    std::string bytes;
    common::BinaryWriter w(&bytes);
    w.WriteVector(std::vector<float>(
        build_vectors_.begin() + i * dim_,
        build_vectors_.begin() + (i + 1) * dim_));
    w.WriteVector(build_graph_[i]);
    disk_blocks_.push_back(std::move(bytes));
  }
  build_vectors_.clear();
  build_vectors_.shrink_to_fit();
  build_graph_.clear();
  build_graph_.shrink_to_fit();
  block_cache_.Clear();
  sealed_ = true;
  return common::Status::Ok();
}

common::Status DiskAnnIndex::AddWithIds(const float* data, const IdType* ids,
                                        size_t n) {
  if (n == 0) return common::Status::Ok();
  if (sealed_)
    return common::Status::NotSupported(
        "diskann: segments are immutable once sealed");
  if (!pq_.trained()) BH_RETURN_IF_ERROR(Train(data, n));

  ids_.assign(ids, ids + n);
  build_vectors_.assign(data, data + n * dim_);
  pq_codes_.resize(n * pq_.code_size());
  for (size_t i = 0; i < n; ++i)
    pq_.Encode(data + i * dim_, pq_codes_.data() + i * pq_.code_size());

  // Medoid: point nearest the dataset mean.
  std::vector<double> mean(dim_, 0.0);
  for (size_t i = 0; i < n; ++i)
    for (size_t d = 0; d < dim_; ++d) mean[d] += data[i * dim_ + d];
  std::vector<float> meanf(dim_);
  for (size_t d = 0; d < dim_; ++d)
    meanf[d] = static_cast<float>(mean[d] / static_cast<double>(n));
  float best = std::numeric_limits<float>::max();
  constexpr size_t kChunk = 256;
  float chunk_dist[kChunk];
  for (size_t begin = 0; begin < n; begin += kChunk) {
    size_t cn = std::min(kChunk, n - begin);
    BatchDistance(Metric::kL2, meanf.data(), data + begin * dim_, cn, dim_,
                  chunk_dist);
    for (size_t i = 0; i < cn; ++i) {
      if (chunk_dist[i] < best) {
        best = chunk_dist[i];
        medoid_ = static_cast<uint32_t>(begin + i);
      }
    }
  }

  // Random initial graph.
  std::mt19937_64 gen(options_.seed);
  std::uniform_int_distribution<uint32_t> pick(0,
                                               static_cast<uint32_t>(n - 1));
  build_graph_.assign(n, {});
  for (size_t i = 0; i < n; ++i) {
    std::unordered_set<uint32_t> chosen;
    size_t degree = std::min(options_.R, n - 1);
    while (chosen.size() < degree) {
      uint32_t c = pick(gen);
      if (c != i) chosen.insert(c);
    }
    build_graph_[i].assign(chosen.begin(), chosen.end());
  }

  // Vamana pass: greedy-search each point from the medoid, robust-prune the
  // visited set into its out-edges, and back-link with degree repair.
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
  std::shuffle(order.begin(), order.end(), gen);

  for (uint32_t node : order) {
    const float* query = data + size_t{node} * dim_;
    // In-memory greedy beam search over the build graph (exact distances).
    std::vector<Neighbor> beam;
    std::unordered_set<uint32_t> visited;
    std::vector<Neighbor> visited_list;
    InsertBounded(&beam,
                  {static_cast<IdType>(medoid_),
                   dist_(query, data + size_t{medoid_} * dim_, dim_)},
                  options_.L_build);
    visited.insert(medoid_);
    size_t cursor = 0;
    std::unordered_set<uint32_t> expanded;
    while (cursor < beam.size()) {
      // Closest unexpanded beam entry.
      size_t pick_idx = beam.size();
      for (size_t i = 0; i < beam.size(); ++i) {
        if (expanded.count(static_cast<uint32_t>(beam[i].id)) == 0) {
          pick_idx = i;
          break;
        }
      }
      if (pick_idx == beam.size()) break;
      uint32_t cur = static_cast<uint32_t>(beam[pick_idx].id);
      expanded.insert(cur);
      visited_list.push_back(beam[pick_idx]);
      // Prefetch the whole neighborhood before the distance loop; beam
      // expansion touches rows in graph order, not memory order.
      for (uint32_t nb : build_graph_[cur])
        kernels::Prefetch(data + size_t{nb} * dim_);
      for (uint32_t nb : build_graph_[cur]) {
        if (!visited.insert(nb).second) continue;
        InsertBounded(&beam,
                      {static_cast<IdType>(nb),
                       dist_(query, data + size_t{nb} * dim_, dim_)},
                      options_.L_build);
      }
    }

    build_graph_[node] = RobustPrune(node, visited_list);
    for (uint32_t nb : build_graph_[node]) {
      std::vector<uint32_t>& back = build_graph_[nb];
      if (std::find(back.begin(), back.end(), node) != back.end()) continue;
      back.push_back(node);
      if (back.size() > options_.R) {
        const float* nb_vec = data + size_t{nb} * dim_;
        std::vector<Neighbor> cands;
        cands.reserve(back.size());
        for (uint32_t c : back)
          cands.push_back({static_cast<IdType>(c),
                           dist_(nb_vec, data + size_t{c} * dim_, dim_)});
        build_graph_[nb] = RobustPrune(nb, std::move(cands));
      }
    }
  }

  return Seal();
}

// ---------------------------------------------------------------------------
// Search
// ---------------------------------------------------------------------------

common::Result<std::vector<Neighbor>> DiskAnnIndex::SearchWithFilter(
    const float* query, const SearchParams& params) const {
  if (params.k <= 0)
    return common::Status::InvalidArgument("diskann: k must be positive");
  if (!sealed_ || ids_.empty()) return std::vector<Neighbor>{};

  size_t k = static_cast<size_t>(params.k);
  size_t beam_width =
      std::max<size_t>(static_cast<size_t>(params.ef_search), k);
  if (params.filter != nullptr) beam_width = std::max(beam_width * 2, k * 4);

  // PQ-guided beam search; expanded nodes get exact distances from their
  // disk blocks (the DiskANN navigation scheme).
  std::vector<float> adc(pq_.m() * pq_.ks());
  pq_.BuildAdcTable(query, adc.data());
  auto approx = [&](uint32_t pos) {
    return pq_.AdcDistance(adc.data(),
                           pq_codes_.data() + size_t{pos} * pq_.code_size());
  };

  std::vector<Neighbor> beam;  // ordered by approx distance
  std::unordered_set<uint32_t> seen{medoid_};
  std::unordered_set<uint32_t> expanded;
  std::vector<Neighbor> exact;  // expanded nodes with exact distances
  InsertBounded(&beam, {static_cast<IdType>(medoid_), approx(medoid_)},
                beam_width);
  for (;;) {
    size_t pick_idx = beam.size();
    for (size_t i = 0; i < beam.size(); ++i) {
      if (expanded.count(static_cast<uint32_t>(beam[i].id)) == 0) {
        pick_idx = i;
        break;
      }
    }
    if (pick_idx == beam.size()) break;
    uint32_t cur = static_cast<uint32_t>(beam[pick_idx].id);
    expanded.insert(cur);
    NodeBlockPtr block = ReadBlock(cur);
    scanstats::AddFp32(1);
    exact.push_back({static_cast<IdType>(cur),
                     dist_(query, block->vector.data(), dim_)});
    // Re-rank expansion walks PQ codes in graph order; prefetch them.
    for (uint32_t nb : block->neighbors)
      kernels::Prefetch(pq_codes_.data() + size_t{nb} * pq_.code_size());
    for (uint32_t nb : block->neighbors) {
      if (!seen.insert(nb).second) continue;
      InsertBounded(&beam, {static_cast<IdType>(nb), approx(nb)}, beam_width);
    }
  }

  std::sort(exact.begin(), exact.end());
  std::vector<Neighbor> out;
  out.reserve(k);
  for (const Neighbor& n : exact) {
    IdType ext = ids_[static_cast<uint32_t>(n.id)];
    if (params.filter != nullptr &&
        !params.filter->Test(static_cast<size_t>(ext)))
      continue;
    out.push_back({ext, n.distance});
    if (out.size() >= k) break;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Resumable iterator
// ---------------------------------------------------------------------------

/// Native resumable iterator over the Vamana graph.
///
/// The first Next() runs exactly the one-shot bounded beam search (same
/// InsertBounded semantics, same expansion order), so the first k served
/// neighbors match SearchWithFilter bit-for-bit. What the one-shot search
/// throws away — candidates the bounded beam rejected or evicted — is
/// captured in a spill list. When the caller drains everything phase one
/// expanded, the iterator doubles the beam width, re-admits the spill, and
/// resumes expansion with the seen/expanded sets intact: deeper batches
/// never re-walk the graph from the medoid or re-pay SSD reads for blocks
/// already expanded.
class DiskAnnSearchIterator : public SearchIterator {
 public:
  DiskAnnSearchIterator(const DiskAnnIndex* index, const float* query,
                        SearchParams params)
      : index_(index),
        query_(query, query + index->Dim()),
        params_(params) {
    if (!index_->sealed_ || index_->ids_.empty()) {
      started_ = true;
      exhausted_ = true;
    }
  }

  std::vector<Neighbor> Next(size_t batch_size) override {
    std::vector<Neighbor> out;
    if (exhausted_ && cursor_ >= ready_.size()) return out;
    out.reserve(batch_size);
    while (out.size() < batch_size) {
      if (cursor_ >= ready_.size()) {
        if (!Advance()) break;
        continue;
      }
      const Neighbor& n = ready_[cursor_++];
      IdType ext = index_->ids_[static_cast<uint32_t>(n.id)];
      if (params_.filter != nullptr &&
          !params_.filter->Test(static_cast<size_t>(ext)))
        continue;
      out.push_back({ext, n.distance});
    }
    // A beam widening mid-batch may surface nodes closer than ones already
    // taken; re-sort so the batch honors the sorted-batch contract.
    std::sort(out.begin(), out.end());
    BH_DCHECK(IsSortedBatch(out));
    if (!out.empty()) ++stats_.batches;
    return out;
  }

  size_t VisitedCount() const override { return stats_.rows_visited; }
  Stats GetStats() const override { return stats_; }

 private:
  float Approx(uint32_t pos) const {
    return index_->pq_.AdcDistance(
        adc_.data(),
        index_->pq_codes_.data() + size_t{pos} * index_->pq_.code_size());
  }

  /// Makes more expanded nodes servable. False only when the whole graph
  /// reachable from the medoid has been expanded and served.
  bool Advance() {
    if (!started_) {
      started_ = true;
      size_t k = params_.k > 0 ? static_cast<size_t>(params_.k) : 1;
      beam_width_ =
          std::max<size_t>(static_cast<size_t>(params_.ef_search), k);
      if (params_.filter != nullptr)
        beam_width_ = std::max(beam_width_ * 2, k * 4);
      adc_.resize(index_->pq_.m() * index_->pq_.ks());
      index_->pq_.BuildAdcTable(query_.data(), adc_.data());
      seen_.insert(index_->medoid_);
      InsertBounded(&beam_,
                    {static_cast<IdType>(index_->medoid_),
                     Approx(index_->medoid_)},
                    beam_width_, &spill_);
      RunBeam();
      return cursor_ < ready_.size();
    }
    for (;;) {
      if (spill_.empty()) {
        exhausted_ = true;
        return false;
      }
      Widen();
      RunBeam();
      if (cursor_ < ready_.size()) return true;
    }
  }

  /// Expands beam entries (closest-unexpanded-first, identical to the
  /// one-shot loop) until none remain, then merges the newly expanded
  /// nodes' exact distances into the sorted unserved window.
  void RunBeam() {
    std::vector<Neighbor> fresh;
    for (;;) {
      size_t pick_idx = beam_.size();
      for (size_t i = 0; i < beam_.size(); ++i) {
        if (expanded_.count(static_cast<uint32_t>(beam_[i].id)) == 0) {
          pick_idx = i;
          break;
        }
      }
      if (pick_idx == beam_.size()) break;
      uint32_t cur = static_cast<uint32_t>(beam_[pick_idx].id);
      expanded_.insert(cur);
      DiskAnnIndex::NodeBlockPtr block = index_->ReadBlock(cur);
      scanstats::AddFp32(1);
      fresh.push_back(
          {static_cast<IdType>(cur),
           index_->dist_(query_.data(), block->vector.data(), index_->dim_)});
      for (uint32_t nb : block->neighbors)
        kernels::Prefetch(index_->pq_codes_.data() +
                          size_t{nb} * index_->pq_.code_size());
      for (uint32_t nb : block->neighbors) {
        if (!seen_.insert(nb).second) continue;
        InsertBounded(&beam_, {static_cast<IdType>(nb), Approx(nb)},
                      beam_width_, &spill_);
      }
    }
    if (fresh.empty()) return;
    stats_.rows_visited += fresh.size();
    std::sort(fresh.begin(), fresh.end());
    ready_.erase(ready_.begin(), ready_.begin() + static_cast<ptrdiff_t>(cursor_));
    cursor_ = 0;
    size_t old = ready_.size();
    ready_.insert(ready_.end(), fresh.begin(), fresh.end());
    std::inplace_merge(ready_.begin(),
                       ready_.begin() + static_cast<ptrdiff_t>(old),
                       ready_.end());
  }

  /// Doubles the beam bound and re-admits spilled candidates (closest
  /// first). Re-spill shrinks every round because the bound doubles, so the
  /// spill provably drains once the bound reaches the index size.
  void Widen() {
    beam_width_ = std::min(beam_width_ * 2,
                           std::max<size_t>(index_->Size(), beam_width_));
    std::vector<Neighbor> pending = std::move(spill_);
    spill_.clear();
    std::sort(pending.begin(), pending.end());
    for (const Neighbor& n : pending) {
      if (expanded_.count(static_cast<uint32_t>(n.id)) != 0) continue;
      InsertBounded(&beam_, n, beam_width_, &spill_);
    }
  }

  const DiskAnnIndex* index_;
  std::vector<float> query_;
  SearchParams params_;
  std::vector<float> adc_;
  std::vector<Neighbor> beam_;  // ordered by approx distance
  std::unordered_set<uint32_t> seen_;
  std::unordered_set<uint32_t> expanded_;
  /// Candidates the bounded beam rejected/evicted; the resume frontier.
  std::vector<Neighbor> spill_;
  /// Expanded nodes with exact distances, sorted; [cursor_, end) unserved.
  std::vector<Neighbor> ready_;
  size_t cursor_ = 0;
  size_t beam_width_ = 0;
  bool started_ = false;
  bool exhausted_ = false;
  Stats stats_;
};

common::Result<std::unique_ptr<SearchIterator>> DiskAnnIndex::MakeIterator(
    const float* query, const SearchParams& params) const {
  return std::unique_ptr<SearchIterator>(
      std::make_unique<DiskAnnSearchIterator>(this, query, params));
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

common::Status DiskAnnIndex::Save(std::string* out) const {
  common::BinaryWriter w(out);
  w.WriteString(Type());
  w.Write<uint64_t>(dim_);
  w.Write<uint32_t>(static_cast<uint32_t>(metric_));
  w.Write<uint64_t>(options_.R);
  w.Write<uint64_t>(options_.L_build);
  w.Write<float>(options_.alpha);
  w.Write<uint64_t>(options_.pq_m);
  w.Write<uint32_t>(medoid_);
  w.WriteVector(ids_);
  pq_.Serialize(&w);
  w.WriteVector(pq_codes_);
  w.Write<uint64_t>(disk_blocks_.size());
  for (const std::string& block : disk_blocks_) w.WriteString(block);
  return common::Status::Ok();
}

common::Status DiskAnnIndex::Load(std::string_view in) {
  common::BinaryReader r(in);
  std::string type;
  BH_RETURN_IF_ERROR(r.ReadString(&type));
  if (type != Type()) return common::Status::Corruption("diskann: wrong type");
  uint64_t dim = 0, big_r = 0, l_build = 0, pq_m = 0;
  uint32_t metric = 0;
  float alpha = 0;
  BH_RETURN_IF_ERROR(r.Read(&dim));
  BH_RETURN_IF_ERROR(r.Read(&metric));
  BH_RETURN_IF_ERROR(r.Read(&big_r));
  BH_RETURN_IF_ERROR(r.Read(&l_build));
  BH_RETURN_IF_ERROR(r.Read(&alpha));
  BH_RETURN_IF_ERROR(r.Read(&pq_m));
  if (!SavedDimValid(dim))
    return common::Status::Corruption("diskann: bad dim");
  if (!MetricFromTag(metric, &metric_))
    return common::Status::Corruption("diskann: bad metric");
  dim_ = dim;
  dist_ = ResolveDistance(metric_);
  options_.R = big_r;
  options_.L_build = l_build;
  options_.alpha = alpha;
  options_.pq_m = pq_m;
  BH_RETURN_IF_ERROR(r.Read(&medoid_));
  BH_RETURN_IF_ERROR(r.ReadVector(&ids_));
  BH_RETURN_IF_ERROR(pq_.Deserialize(&r));
  BH_RETURN_IF_ERROR(r.ReadVector(&pq_codes_));
  // Every search starts at the medoid and scores nodes by their PQ codes.
  if (!ids_.empty() && medoid_ >= ids_.size())
    return common::Status::Corruption("diskann: medoid out of range");
  if ((!ids_.empty() && pq_.dim() != dim_) ||
      !common::LengthIsProduct(pq_codes_.size(), ids_.size(), pq_.code_size()))
    return common::Status::Corruption("diskann: pq code array mismatch");
  uint64_t num_blocks = 0;
  BH_RETURN_IF_ERROR(r.Read(&num_blocks));
  if (num_blocks != ids_.size())
    return common::Status::Corruption("diskann: block count mismatch");
  disk_blocks_.assign(num_blocks, {});
  // Search reads dim floats from a block and follows its neighbor ids
  // unchecked, so both are checked here, as HNSW checks its links.
  std::vector<float> vector;
  std::vector<uint32_t> neighbors;
  for (std::string& block : disk_blocks_) {
    BH_RETURN_IF_ERROR(r.ReadString(&block));
    common::BinaryReader br(block);
    BH_RETURN_IF_ERROR(br.ReadVector(&vector));
    BH_RETURN_IF_ERROR(br.ReadVector(&neighbors));
    if (vector.size() != dim_)
      return common::Status::Corruption("diskann: block vector mismatch");
    for (uint32_t nb : neighbors)
      if (nb >= num_blocks)
        return common::Status::Corruption("diskann: dangling neighbor");
  }
  block_cache_.Clear();
  sealed_ = true;
  return common::Status::Ok();
}

}  // namespace blendhouse::vecindex
