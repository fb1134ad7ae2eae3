#include "baselines/milvus_sim.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <future>
#include <queue>
#include <thread>

#include "common/bitset.h"
#include "vecindex/distance.h"

namespace blendhouse::baselines {

MilvusSim::MilvusSim(MilvusSimOptions options)
    : options_(options),
      store_(options.simulate_latency
                 ? storage::StorageCostModel::Remote()
                 : storage::StorageCostModel::Instant()) {}

void MilvusSim::ChargeProxyHop() const {
  if (!options_.simulate_latency) return;
  std::this_thread::sleep_for(
      std::chrono::microseconds(options_.proxy_rpc_micros));
}

common::Status MilvusSim::Load(const BenchDataset& data) {
  dim_ = data.dim;
  segments_.clear();

  // Group rows: by attr-range partition when partition keys are configured,
  // otherwise a single arrival-order stream; both are then chunked into
  // fixed-size segments.
  size_t parts = std::max<size_t>(1, options_.attr_partitions);
  std::vector<std::vector<size_t>> partition_rows(parts);
  for (size_t i = 0; i < data.n; ++i) {
    size_t p = parts == 1
                   ? 0
                   : static_cast<size_t>(data.int_attr[i]) * parts /
                         (static_cast<size_t>(BenchDataset::kAttrMax) + 1);
    partition_rows[std::min(p, parts - 1)].push_back(i);
  }

  // Stage 1: flush every segment's raw data to shared storage first.
  size_t next_base = 0;
  for (const std::vector<size_t>& rows : partition_rows) {
    for (size_t begin = 0; begin < rows.size();
         begin += options_.segment_rows) {
      size_t end = std::min(rows.size(), begin + options_.segment_rows);
      Segment seg;
      seg.base = next_base;
      next_base += options_.segment_rows;
      seg.rows = end - begin;
      seg.vectors.reserve(seg.rows * dim_);
      for (size_t r = begin; r < end; ++r) {
        size_t i = rows[r];
        seg.global_ids.push_back(static_cast<vecindex::IdType>(i));
        seg.attrs.push_back(data.int_attr[i]);
        seg.vectors.insert(seg.vectors.end(), data.vector(i),
                           data.vector(i) + dim_);
      }
      seg.attr_min = *std::min_element(seg.attrs.begin(), seg.attrs.end());
      seg.attr_max = *std::max_element(seg.attrs.begin(), seg.attrs.end());
      options_.ingest_stream.Charge(seg.vectors.size() * sizeof(float));
      std::string payload(reinterpret_cast<const char*>(seg.vectors.data()),
                          seg.vectors.size() * sizeof(float));
      BH_RETURN_IF_ERROR(store_.Put(
          "milvus/segments/" + std::to_string(seg.base) + "/data",
          std::move(payload)));
      segments_.push_back(std::move(seg));
    }
  }

  // Stage 2: only after all writes finish does index building start.
  common::TaskScheduler pool(options_.build_threads);
  std::vector<common::Future<common::Status>> builds;
  for (Segment& seg : segments_) {
    builds.push_back(pool.Submit([this, &seg]() -> common::Status {
      vecindex::HnswOptions opts;
      opts.M = options_.hnsw_m;
      opts.ef_construction = options_.hnsw_ef_construction;
      seg.index = std::make_unique<vecindex::HnswIndex>(
          dim_, vecindex::Metric::kL2, opts);
      std::vector<vecindex::IdType> local_ids(seg.rows);
      for (size_t i = 0; i < seg.rows; ++i)
        local_ids[i] = static_cast<vecindex::IdType>(i);
      BH_RETURN_IF_ERROR(seg.index->AddWithIds(seg.vectors.data(),
                                               local_ids.data(), seg.rows));
      std::string bytes;
      BH_RETURN_IF_ERROR(seg.index->Save(&bytes));
      return store_.Put(
          "milvus/segments/" + std::to_string(seg.base) + "/index",
          std::move(bytes));
    }));
  }
  for (auto& fut : builds) {
    common::Status s = fut.Get();
    if (!s.ok()) return s;
  }

  // Stage 3: query nodes load every index back from shared storage before
  // the collection is searchable.
  for (const Segment& seg : segments_) {
    auto bytes =
        store_.Get("milvus/segments/" + std::to_string(seg.base) + "/index");
    if (!bytes.ok()) return bytes.status();
  }
  return common::Status::Ok();
}

common::Result<std::vector<vecindex::Neighbor>> MilvusSim::Search(
    const SearchRequest& request) {
  if (segments_.empty())
    return common::Status::Internal("milvus-sim: not loaded");
  ChargeProxyHop();

  std::priority_queue<vecindex::Neighbor> global;  // max-heap of best k
  auto offer = [&](vecindex::IdType global_id, float dist) {
    if (global.size() < request.k) {
      global.push({global_id, dist});
    } else if (dist < global.top().distance) {
      global.pop();
      global.push({global_id, dist});
    }
  };

  for (const Segment& seg : segments_) {
    if (!request.filtered) {
      vecindex::SearchParams params;
      params.k = static_cast<int>(request.k);
      params.ef_search = request.ef_search;
      auto hits = seg.index->SearchWithFilter(request.query, params);
      if (!hits.ok()) return hits.status();
      for (const auto& h : *hits)
        offer(seg.global_ids[static_cast<size_t>(h.id)], h.distance);
      continue;
    }

    // Partition-key pruning: attr-partitioned segments outside the filter
    // range are skipped wholesale.
    if (seg.attr_max < request.lo || seg.attr_min > request.hi) continue;

    // Pre-filter: materialize the qualifying-row bitmap from attributes.
    common::Bitset bitmap(seg.rows);
    size_t passing = 0;
    for (size_t i = 0; i < seg.rows; ++i) {
      if (seg.attrs[i] >= request.lo && seg.attrs[i] <= request.hi) {
        bitmap.Set(i);
        ++passing;
      }
    }
    if (passing == 0) continue;
    double pass_fraction =
        static_cast<double>(passing) / static_cast<double>(seg.rows);
    if (pass_fraction < options_.brute_force_threshold) {
      // Milvus's own heuristic: tiny candidate sets skip the graph.
      for (size_t i = 0; i < seg.rows; ++i) {
        if (!bitmap.Test(i)) continue;
        float d = vecindex::L2Sqr(request.query,
                                  seg.vectors.data() + i * dim_, dim_);
        offer(seg.global_ids[i], d);
      }
    } else {
      vecindex::SearchParams params;
      params.k = static_cast<int>(request.k);
      params.ef_search = request.ef_search;
      params.filter = &bitmap;
      auto hits = seg.index->SearchWithFilter(request.query, params);
      if (!hits.ok()) return hits.status();
      for (const auto& h : *hits)
        offer(seg.global_ids[static_cast<size_t>(h.id)], h.distance);
    }
  }

  std::vector<vecindex::Neighbor> out(global.size());
  for (size_t i = global.size(); i-- > 0;) {
    out[i] = global.top();
    global.pop();
  }
  return out;
}

}  // namespace blendhouse::baselines
