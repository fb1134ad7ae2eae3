#include "vecindex/hnsw_index.h"

#include <memory>

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "common/assert.h"
#include "common/bitset.h"
#include "common/io.h"
#include "vecindex/distance.h"
#include "vecindex/scan_counters.h"

namespace blendhouse::vecindex {

namespace {
/// splitmix64 — cheap deterministic per-index RNG for level sampling.
uint64_t NextRand(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Nodes a traversal has reached: one bit per node plus a count. Each search
/// and each iterator owns one, so concurrent searches share no state.
class VisitedSet {
 public:
  explicit VisitedSet(size_t num_nodes) : bits_(num_nodes) {}

  /// Marks `node`; false if it was already marked.
  bool Insert(uint32_t node) {
    if (bits_.Test(node)) return false;
    bits_.Set(node);
    ++count_;
    return true;
  }
  size_t count() const { return count_; }

 private:
  common::Bitset bits_;
  size_t count_ = 0;
};
}  // namespace

HnswIndex::HnswIndex(size_t dim, Metric metric, HnswOptions options)
    : dim_(dim),
      metric_(metric),
      options_(options),
      level_mult_(1.0 / std::log(static_cast<double>(
                            std::max<size_t>(2, options.M)))),
      rng_state_(options.seed),
      dist_(ResolveDistance(metric)) {
  BH_ASSERT_MSG(options_.M >= 1 && options_.M <= HnswOptions::kMaxM,
                "hnsw: M out of range");
  if (reduced_precision()) store_.Configure(options_.precision, dim_, metric_);
}

size_t HnswIndex::MemoryUsage() const {
  return vectors_.size() * sizeof(float) + ids_.size() * sizeof(IdType) +
         levels_.size() + store_.MemoryBytes() +
         (level0_.size() + upper_.size() + upper_offset_.size()) *
             sizeof(uint32_t);
}

common::Status HnswIndex::Train(const float* data, size_t n) {
  if (reduced_precision()) store_.Train(data, n);  // fixes the int8 scale
  return common::Status::Ok();
}

float HnswIndex::DistToItem(const float* query, uint32_t pos) const {
  if (reduced_precision()) {
    // Asymmetric reduced-precision kernel: the fp32 query meets the packed
    // code directly — per-hop work, so no batching tier here.
    return store_.DistanceToRow(query, pos);
  }
  // Per-hop fp32 distance; the reduced-precision branch above is charged
  // inside PrecisionStore.
  scanstats::AddFp32(1);
  return dist_(query, vectors_.data() + size_t{pos} * dim_, dim_);
}

size_t HnswIndex::RandomLevel() {
  double u = (static_cast<double>(NextRand(&rng_state_) >> 11) + 1.0) /
             9007199254740993.0;  // (0, 1]
  return static_cast<size_t>(-std::log(u) * level_mult_);
}

uint32_t HnswIndex::GreedyDescend(const float* query, uint32_t entry,
                                  size_t from_level,
                                  size_t target_level) const {
  uint32_t cur = entry;
  float cur_d = DistToItem(query, cur);
  for (size_t level = from_level; level > target_level; --level) {
    bool improved = true;
    while (improved) {
      improved = false;
      for (uint32_t nb : LinksAt(cur, level)) {
        float d = DistToItem(query, nb);
        if (d < cur_d) {
          cur_d = d;
          cur = nb;
          improved = true;
        }
      }
    }
  }
  return cur;
}

std::vector<Neighbor> HnswIndex::SearchLayer(const float* query,
                                             uint32_t entry, size_t ef,
                                             size_t level) const {
  // Min-heap of nodes to expand, max-heap of current best ef results.
  std::priority_queue<Neighbor, std::vector<Neighbor>, std::greater<>>
      candidates;
  std::priority_queue<Neighbor> best;
  VisitedSet visited(ids_.size());

  float entry_d = DistToItem(query, entry);
  candidates.push({static_cast<IdType>(entry), entry_d});
  best.push({static_cast<IdType>(entry), entry_d});
  visited.Insert(entry);

  while (!candidates.empty()) {
    Neighbor cur = candidates.top();
    if (best.size() >= ef && cur.distance > best.top().distance) break;
    candidates.pop();
    std::span<const uint32_t> links =
        LinksAt(static_cast<uint32_t>(cur.id), level);
    // Pull the whole neighborhood toward the cache before the distance loop;
    // graph order is random so every expansion is a potential miss.
    for (uint32_t nb : links) PrefetchItem(nb);
    for (uint32_t nb : links) {
      if (!visited.Insert(nb)) continue;
      float d = DistToItem(query, nb);
      if (best.size() < ef || d < best.top().distance) {
        candidates.push({static_cast<IdType>(nb), d});
        best.push({static_cast<IdType>(nb), d});
        if (best.size() > ef) best.pop();
      }
    }
  }

  std::vector<Neighbor> out(best.size());
  for (size_t i = best.size(); i-- > 0;) {
    out[i] = best.top();
    best.pop();
  }
  return out;
}

const float* HnswIndex::ItemVector(uint32_t pos,
                                   std::vector<float>* buf) const {
  if (!reduced_precision()) return vectors_.data() + size_t{pos} * dim_;
  buf->resize(dim_);
  store_.Decode(pos, buf->data());
  return buf->data();
}

std::vector<uint32_t> HnswIndex::SelectNeighbors(
    const float* vec, std::vector<Neighbor>& candidates, size_t m) const {
  (void)vec;
  std::sort(candidates.begin(), candidates.end());
  // Malkov's heuristic: keep a candidate only if it is closer to the new
  // node than to every already-selected neighbor — edges stay diverse.
  std::vector<uint32_t> selected;
  std::vector<float> decode_buf;
  for (const Neighbor& c : candidates) {
    if (selected.size() >= m) break;
    const float* c_vec =
        ItemVector(static_cast<uint32_t>(c.id), &decode_buf);
    bool keep = true;
    for (uint32_t s : selected) {
      if (DistToItem(c_vec, s) < c.distance) {
        keep = false;
        break;
      }
    }
    if (keep) selected.push_back(static_cast<uint32_t>(c.id));
  }
  // Backfill with closest remaining if the heuristic was too aggressive.
  for (const Neighbor& c : candidates) {
    if (selected.size() >= m) break;
    uint32_t id = static_cast<uint32_t>(c.id);
    if (std::find(selected.begin(), selected.end(), id) == selected.end())
      selected.push_back(id);
  }
  return selected;
}

void HnswIndex::ViewBuiltArrays() {
  vectors_ = built_.vectors;
  ids_ = built_.ids;
  levels_ = built_.levels;
  level0_ = built_.level0;
  upper_ = built_.upper;
}

void HnswIndex::InsertOne(const float* vec, IdType external_id) {
  uint32_t node = static_cast<uint32_t>(built_.ids.size());
  built_.ids.push_back(external_id);
  if (reduced_precision()) {
    store_.Append(vec, 1);  // codes only — no fp32 copy
  } else {
    built_.vectors.insert(built_.vectors.end(), vec, vec + dim_);
  }

  // Clamped once, so levels_ and the node's records agree.
  const size_t level = std::min<size_t>(RandomLevel(), 255);
  built_.levels.push_back(static_cast<uint8_t>(level));
  // Zeroed: no links yet, and unfilled slots stay zero (SetLinks).
  built_.level0.resize(built_.level0.size() + RecordWords(0));
  BH_ASSERT_MSG(built_.upper.size() + level * RecordWords(1) <=
                    std::numeric_limits<uint32_t>::max(),
                "hnsw: upper-level records overflow uint32 offsets");
  upper_offset_.push_back(static_cast<uint32_t>(built_.upper.size()));
  built_.upper.resize(built_.upper.size() + level * RecordWords(1));
  ViewBuiltArrays();

  if (max_level_ < 0) {
    entry_point_ = node;
    max_level_ = static_cast<int>(level);
    return;
  }

  uint32_t cur = entry_point_;
  if (static_cast<int>(level) < max_level_)
    cur = GreedyDescend(vec, cur, static_cast<size_t>(max_level_), level);

  size_t top = std::min<size_t>(level, static_cast<size_t>(max_level_));
  for (size_t lvl = top + 1; lvl-- > 0;) {
    std::vector<Neighbor> candidates =
        SearchLayer(vec, cur, options_.ef_construction, lvl);
    std::vector<uint32_t> neighbors =
        SelectNeighbors(vec, candidates, options_.M);
    SetLinks(node, lvl, neighbors);
    for (uint32_t nb : neighbors) AddLink(nb, lvl, node);
    if (!candidates.empty())
      cur = static_cast<uint32_t>(candidates.front().id);
  }

  if (static_cast<int>(level) > max_level_) {
    max_level_ = static_cast<int>(level);
    entry_point_ = node;
  }
}

void HnswIndex::AddLink(uint32_t from, size_t level, uint32_t to) {
  uint32_t* rec = MutableRecord(from, level);
  if (rec[0] < MaxLinks(level)) {
    rec[1 + rec[0]++] = to;
    return;
  }
  // Full: re-select the edges to stay within the degree bound.
  std::vector<Neighbor> cands;
  cands.reserve(rec[0] + 1);
  std::vector<float> buf;
  const float* from_vec = ItemVector(from, &buf);
  for (uint32_t cand : LinksAt(from, level))
    cands.push_back({static_cast<IdType>(cand), DistToItem(from_vec, cand)});
  cands.push_back({static_cast<IdType>(to), DistToItem(from_vec, to)});
  SetLinks(from, level, SelectNeighbors(from_vec, cands, MaxLinks(level)));
}

void HnswIndex::SetLinks(uint32_t node, size_t level,
                         const std::vector<uint32_t>& links) {
  BH_DCHECK(links.size() <= MaxLinks(level));
  uint32_t* rec = MutableRecord(node, level);
  rec[0] = static_cast<uint32_t>(links.size());
  // Zero the slots past the new count, so Save writes unfilled slots as 0.
  std::fill(std::copy(links.begin(), links.end(), rec + 1),
            rec + RecordWords(level), 0u);
}

common::Status HnswIndex::AddWithIds(const float* data, const IdType* ids,
                                     size_t n) {
  if (blob_ != nullptr)
    return common::Status::FailedPrecondition(
        "hnsw: a loaded index is read-only");
  // The int8 scale is calibrated on the whole batch, not its first row.
  if (reduced_precision() && !store_.calibrated()) store_.Train(data, n);
  size_t expected = built_.ids.size() + n;
  built_.ids.reserve(expected);
  built_.levels.reserve(expected);
  built_.level0.reserve(expected * RecordWords(0));
  upper_offset_.reserve(expected);
  if (reduced_precision())
    store_.Reserve(expected);
  else
    built_.vectors.reserve(expected * dim_);
  for (size_t i = 0; i < n; ++i) InsertOne(data + i * dim_, ids[i]);
  return common::Status::Ok();
}

common::Result<std::vector<Neighbor>> HnswIndex::SearchWithFilter(
    const float* query, const SearchParams& params) const {
  if (params.k <= 0)
    return common::Status::InvalidArgument("hnsw: k must be positive");
  if (ids_.empty()) return std::vector<Neighbor>{};

  size_t k = static_cast<size_t>(params.k);
  size_t ef = std::max<size_t>(static_cast<size_t>(params.ef_search), k);
  // With a filter, widen the beam so enough passing rows survive collection.
  // Density-aware: the sparser the filter, the more collected nodes fail it,
  // so ef grows inversely with the pass rate (bounded to 8x the base
  // widening; an empty filter short-circuits the graph walk entirely).
  if (params.filter != nullptr) {
    const size_t selected = params.filter->Count();
    if (selected == 0) return std::vector<Neighbor>{};
    const size_t base = std::max(ef * 2, k * 4);
    const double density = std::min(
        1.0, static_cast<double>(selected) / static_cast<double>(ids_.size()));
    const size_t widened = static_cast<size_t>(
        std::ceil(static_cast<double>(k) / density)) * 2;
    ef = std::min(std::max(base, widened), base * 8);
    ef = std::min(ef, ids_.size());
    ef = std::max<size_t>(ef, 1);
  }
  uint32_t entry = GreedyDescend(query, entry_point_,
                                 static_cast<size_t>(max_level_), 0);
  std::vector<Neighbor> found = SearchLayer(query, entry, ef, 0);

  std::vector<Neighbor> out;
  out.reserve(k);
  for (const Neighbor& n : found) {
    IdType ext = ids_[static_cast<uint32_t>(n.id)];
    if (params.filter != nullptr &&
        !params.filter->Test(static_cast<size_t>(ext)))
      continue;
    out.push_back({ext, n.distance});
    if (out.size() >= k) break;
  }
  return out;
}

// --------------------------------------------------------------------------
// Native incremental iterator: resumable best-first expansion over level 0.
// --------------------------------------------------------------------------

class HnswSearchIterator : public SearchIterator {
 public:
  HnswSearchIterator(const HnswIndex* index, const float* query,
                     SearchParams params)
      : index_(index),
        query_(query, query + index->Dim()),
        params_(params),
        visited_(index->Size()) {
    if (index_->Size() == 0) return;
    uint32_t entry = index_->GreedyDescend(
        query_.data(), index_->entry_point_,
        static_cast<size_t>(index_->max_level_), 0);
    float d = index_->DistToItem(query_.data(), entry);
    frontier_.push({static_cast<IdType>(entry), d});
    visited_.Insert(entry);
    // Explore at least ef nodes before the first yield: pure best-first from
    // a single entry misses neighbors that hide behind slightly-farther hops
    // (the same reason beam search uses ef > k).
    size_t warmup = std::max<size_t>(
        static_cast<size_t>(std::max(params.ef_search, params.k)), 1);
    while (ready_.size() + 0 < warmup && !frontier_.empty()) Settle();
  }

  std::vector<Neighbor> Next(size_t batch_size) override {
    std::vector<Neighbor> out;
    while (out.size() < batch_size) {
      // Keep settle order exact: only yield a settled node once no frontier
      // candidate could still beat it.
      while (!frontier_.empty() &&
             (ready_.empty() ||
              frontier_.top().distance < ready_.top().distance))
        Settle();
      if (ready_.empty()) break;
      Neighbor cur = ready_.top();
      ready_.pop();
      uint32_t node = static_cast<uint32_t>(cur.id);
      IdType ext = index_->ids_[node];
      if (params_.filter != nullptr &&
          !params_.filter->Test(static_cast<size_t>(ext)))
        continue;
      out.push_back({ext, cur.distance});
    }
    // Yields pop from a min-heap but are only approximately ordered:
    // expanding a settled node can surface a closer neighbor later in the
    // same batch. Re-sort so the batch honors the sorted-batch contract.
    std::sort(out.begin(), out.end());
    BH_DCHECK(IsSortedBatch(out));
    if (!out.empty()) ++batches_;
    return out;
  }

  size_t VisitedCount() const override { return visited_.count(); }
  Stats GetStats() const override {
    return {visited_.count(), batches_, /*recompute_rounds=*/0};
  }

 private:
  /// Pops the closest frontier node, expands it, and parks it in ready_.
  void Settle() {
    Neighbor cur = frontier_.top();
    frontier_.pop();
    uint32_t node = static_cast<uint32_t>(cur.id);
    std::span<const uint32_t> links = index_->LinksAt(node, 0);
    for (uint32_t nb : links) index_->PrefetchItem(nb);
    for (uint32_t nb : links) {
      if (!visited_.Insert(nb)) continue;
      frontier_.push(
          {static_cast<IdType>(nb), index_->DistToItem(query_.data(), nb)});
    }
    ready_.push(cur);
  }

  const HnswIndex* index_;
  std::vector<float> query_;
  SearchParams params_;
  // Min-heap ordered by distance: pop = next (approximately) closest node.
  std::priority_queue<Neighbor, std::vector<Neighbor>, std::greater<>>
      frontier_;
  // Settled nodes not yet returned, in distance order.
  std::priority_queue<Neighbor, std::vector<Neighbor>, std::greater<>>
      ready_;
  VisitedSet visited_;
  size_t batches_ = 0;
};

common::Result<std::unique_ptr<SearchIterator>> HnswIndex::MakeIterator(
    const float* query, const SearchParams& params) const {
  return std::unique_ptr<SearchIterator>(
      std::make_unique<HnswSearchIterator>(this, query, params));
}

// --------------------------------------------------------------------------
// Serialization: the sections are the in-memory arrays, so Load views them.
// --------------------------------------------------------------------------

namespace {
/// "HNS2" in file byte order. It sits where the first format kept the low
/// word of dim, which no saved dim could equal, so that format is refused.
constexpr uint32_t kFormatTag = 0x32534E48;
}  // namespace

common::Status HnswIndex::Save(std::string* out) const {
  common::BinaryWriter w(out);
  w.WriteString(Type());  // first: CreateFromSaved peeks it
  w.Write<uint32_t>(kFormatTag);
  w.Write<uint64_t>(dim_);
  w.Write<uint32_t>(static_cast<uint32_t>(metric_));
  w.Write<uint64_t>(options_.M);
  w.Write<uint64_t>(options_.ef_construction);
  w.Write<uint8_t>(0);  // retired SQ8 flag
  w.Write<uint8_t>(static_cast<uint8_t>(options_.precision));
  w.Write<uint32_t>(entry_point_);
  w.Write<int32_t>(max_level_);
  w.Write<uint64_t>(ids_.size());
  w.Write<uint64_t>(upper_.size());
  // Each section starts on a kSectionAlignment boundary of the blob.
  w.PadToSection();
  w.WriteArray(ids_);
  w.PadToSection();
  w.WriteArray(levels_);
  w.PadToSection();
  if (reduced_precision())
    store_.Serialize(&w);
  else
    w.WriteArray(vectors_);
  w.PadToSection();
  w.WriteArray(level0_);
  w.PadToSection();
  w.WriteArray(upper_);
  return common::Status::Ok();
}

common::Status HnswIndex::Load(std::string_view in) {
  return Load(in, nullptr);
}

common::Status HnswIndex::Load(std::string_view in,
                               std::shared_ptr<const void> owner) {
  if (owner == nullptr || !common::IsSectionAligned(in.data())) {
    auto copy =
        std::make_shared<const common::AlignedBytes>(in.begin(), in.end());
    in = std::string_view(copy->data(), copy->size());
    owner = std::move(copy);
  }
  // Everything is parsed into locals and checked before any member is set,
  // so a refused blob leaves the index as it was.
  common::BinaryReader r(in);
  std::string type;
  uint32_t format = 0, metric_tag = 0, entry = 0;
  uint64_t dim = 0, m = 0, efc = 0, n = 0, upper_words = 0;
  uint8_t sq_flag = 0, precision_tag = 0;
  int32_t max_level = 0;
  BH_RETURN_IF_ERROR(r.ReadString(&type));
  if (type != Type()) return common::Status::Corruption("hnsw: type mismatch");
  BH_RETURN_IF_ERROR(r.Read(&format));
  if (format != kFormatTag)
    return common::Status::Corruption("hnsw: unknown format");
  BH_RETURN_IF_ERROR(r.Read(&dim));
  BH_RETURN_IF_ERROR(r.Read(&metric_tag));
  BH_RETURN_IF_ERROR(r.Read(&m));
  BH_RETURN_IF_ERROR(r.Read(&efc));
  BH_RETURN_IF_ERROR(r.Read(&sq_flag));
  BH_RETURN_IF_ERROR(r.Read(&precision_tag));
  BH_RETURN_IF_ERROR(r.Read(&entry));
  BH_RETURN_IF_ERROR(r.Read(&max_level));
  BH_RETURN_IF_ERROR(r.Read(&n));
  BH_RETURN_IF_ERROR(r.Read(&upper_words));
  // A set SQ8 flag marks the retired per-dimension SQ8 storage form.
  if (sq_flag != 0)
    return common::Status::Corruption("hnsw: retired SQ8 storage");
  Precision precision = Precision::kFp32;
  if (!PrecisionFromTag(precision_tag, &precision))
    return common::Status::Corruption("hnsw: bad precision tag");
  if (m == 0 || m > HnswOptions::kMaxM)
    return common::Status::Corruption("hnsw: M out of range");
  if (!SavedDimValid(dim)) return common::Status::Corruption("hnsw: bad dim");
  Metric metric = Metric::kL2;
  if (!MetricFromTag(metric_tag, &metric))
    return common::Status::Corruption("hnsw: bad metric");
  if (upper_words > std::numeric_limits<uint32_t>::max())
    return common::Status::Corruption("hnsw: graph too large");

  // Sections, in Save's order. Each view is bounds- and alignment-checked;
  // the ids view also bounds n by the blob's size.
  std::span<const IdType> ids;
  std::span<const uint8_t> levels;
  std::span<const float> vectors;
  std::span<const uint32_t> level0, upper;
  PrecisionStore store;
  BH_RETURN_IF_ERROR(r.SkipSectionPadding());
  BH_RETURN_IF_ERROR(r.View(n, 1, &ids));
  BH_RETURN_IF_ERROR(r.SkipSectionPadding());
  BH_RETURN_IF_ERROR(r.View(n, 1, &levels));  // one level per node
  BH_RETURN_IF_ERROR(r.SkipSectionPadding());
  if (precision != Precision::kFp32) {
    BH_RETURN_IF_ERROR(store.Deserialize(&r));
    if (store.precision() != precision || store.dim() != dim ||
        store.size() != n)
      return common::Status::Corruption("hnsw: store mismatch");
  } else {
    BH_RETURN_IF_ERROR(r.View(n, dim, &vectors));  // n × dim floats
  }
  const uint64_t words0 = 2 * m + 1, words1 = m + 1;  // RecordWords(0 / 1)
  BH_RETURN_IF_ERROR(r.SkipSectionPadding());
  BH_RETURN_IF_ERROR(r.View(n, words0, &level0));
  BH_RETURN_IF_ERROR(r.SkipSectionPadding());
  BH_RETURN_IF_ERROR(r.View(upper_words, 1, &upper));

  // Upper offsets are not saved: recompute them from levels, which must
  // account for exactly the saved upper words.
  std::vector<uint32_t> upper_offset(n);
  uint64_t words = 0;
  for (size_t node = 0; node < n; ++node) {
    upper_offset[node] = static_cast<uint32_t>(words);
    words += uint64_t{levels[node]} * words1;
    if (words > upper_words) break;
  }
  if (words != upper_words)
    return common::Status::Corruption(
        "hnsw: upper records disagree with levels");

  // Search follows links unchecked: every record must hold at most
  // MaxLinks(level) links, each naming a node whose top level reaches it.
  // Every node reaches level 0, so its pass only bounds the links, with no
  // branch per slot: a disk hit pays this pass on every load.
  bool too_many = false, dangling = false;
  for (size_t node = 0; node < n; ++node) {
    const uint32_t* rec = &level0[node * words0];
    too_many |= rec[0] > 2 * m;
    for (uint64_t slot = 0; slot < 2 * m; ++slot)
      dangling |= (slot < rec[0]) & (rec[1 + slot] >= n);
  }
  if (too_many) return common::Status::Corruption("hnsw: too many links");
  if (dangling) return common::Status::Corruption("hnsw: dangling link");
  for (size_t node = 0; node < n; ++node) {
    for (size_t level = 1; level <= levels[node]; ++level) {
      const uint32_t* rec = &upper[upper_offset[node] + (level - 1) * words1];
      if (rec[0] > m)
        return common::Status::Corruption("hnsw: too many links");
      for (const uint32_t* nb = rec + 1; nb != rec + 1 + rec[0]; ++nb)
        if (*nb >= n || levels[*nb] < level)
          return common::Status::Corruption("hnsw: dangling link");
    }
  }
  if (n == 0 ? max_level != -1
             : (entry >= n || max_level != levels[entry]))
    return common::Status::Corruption("hnsw: bad entry point");

  dim_ = dim;
  metric_ = metric;
  dist_ = ResolveDistance(metric_);
  options_.M = m;
  options_.ef_construction = efc;
  options_.precision = precision;
  entry_point_ = entry;
  max_level_ = max_level;
  vectors_ = vectors;
  ids_ = ids;
  levels_ = levels;
  level0_ = level0;
  upper_ = upper;
  upper_offset_ = std::move(upper_offset);
  store_ = std::move(store);
  built_ = {};
  blob_ = std::move(owner);
  return common::Status::Ok();
}

}  // namespace blendhouse::vecindex
