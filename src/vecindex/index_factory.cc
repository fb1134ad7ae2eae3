#include "vecindex/index_factory.h"

#include <memory>

#include <cstdlib>

#include "common/io.h"
#include "vecindex/diskann_index.h"
#include "vecindex/flat_index.h"
#include "vecindex/hnsw_index.h"
#include "vecindex/ivf_index.h"

namespace blendhouse::vecindex {

int64_t IndexSpec::GetInt(const std::string& key, int64_t def) const {
  auto it = params.find(key);
  if (it == params.end()) return def;
  char* end = nullptr;
  long long v = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str()) return def;
  return v;
}

namespace {

/// Parses the optional PRECISION parameter ("fp16" / "int8",
/// defaulting to fp32). Unknown names are a hard error: silently falling
/// back to fp32 would quietly lose the memory and throughput the user
/// asked for.
common::Result<Precision> GetPrecision(const IndexSpec& spec) {
  auto it = spec.params.find("PRECISION");
  if (it == spec.params.end()) return Precision::kFp32;
  Precision p;
  if (!ParsePrecision(it->second, &p))
    return common::Status::InvalidArgument("unknown precision: " + it->second);
  return p;
}

common::Result<VectorIndexPtr> BuildFlat(const IndexSpec& spec) {
  auto precision = GetPrecision(spec);
  if (!precision.ok()) return precision.status();
  return VectorIndexPtr(
      std::make_unique<FlatIndex>(spec.dim, spec.metric, *precision));
}

/// HNSWSQ (the paper's HNSW over 8-bit scalar codes) is an alias: HNSW over
/// the int8 PrecisionStore, reranked in fp32 by the executor like any other
/// reduced-precision index. It saves and loads as HNSW.
common::Result<VectorIndexPtr> BuildHnsw(const IndexSpec& spec, bool sq) {
  HnswOptions opts;
  const int64_t m = spec.GetInt("M", 16);
  if (m < 1 || m > static_cast<int64_t>(HnswOptions::kMaxM))
    return common::Status::InvalidArgument("hnsw: M must be in [1, 4096]");
  opts.M = static_cast<size_t>(m);
  opts.ef_construction =
      static_cast<size_t>(spec.GetInt("EF_CONSTRUCTION", 200));
  opts.seed = static_cast<uint64_t>(spec.GetInt("SEED", 42));
  auto precision = GetPrecision(spec);
  if (!precision.ok()) return precision.status();
  opts.precision = *precision;
  if (sq) {
    if (spec.params.count("PRECISION") > 0 &&
        opts.precision != Precision::kInt8)
      return common::Status::InvalidArgument(
          "hnswsq: PRECISION must be INT8 or unset");
    opts.precision = Precision::kInt8;
  }
  return VectorIndexPtr(std::make_unique<HnswIndex>(spec.dim, spec.metric, opts));
}

common::Result<VectorIndexPtr> BuildDiskAnn(const IndexSpec& spec) {
  DiskAnnOptions opts;
  opts.R = static_cast<size_t>(spec.GetInt("R", 32));
  opts.L_build = static_cast<size_t>(spec.GetInt("L_BUILD", 64));
  opts.pq_m = static_cast<size_t>(spec.GetInt("PQ_M", 8));
  opts.seed = static_cast<uint64_t>(spec.GetInt("SEED", 42));
  opts.simulate_disk_latency = spec.GetInt("SIMULATE_DISK", 1) != 0;
  return VectorIndexPtr(std::make_unique<DiskAnnIndex>(spec.dim, spec.metric, opts));
}

common::Result<VectorIndexPtr> BuildIvfFlat(const IndexSpec& spec) {
  IvfOptions opts;
  opts.nlist = static_cast<size_t>(spec.GetInt("NLIST", 64));
  opts.seed = static_cast<uint64_t>(spec.GetInt("SEED", 42));
  auto precision = GetPrecision(spec);
  if (!precision.ok()) return precision.status();
  return VectorIndexPtr(std::make_unique<IvfFlatIndex>(spec.dim, spec.metric,
                                                       opts, *precision));
}

common::Result<VectorIndexPtr> BuildIvfPq(const IndexSpec& spec,
                                          size_t nbits) {
  IvfOptions ivf;
  ivf.nlist = static_cast<size_t>(spec.GetInt("NLIST", 64));
  ivf.seed = static_cast<uint64_t>(spec.GetInt("SEED", 42));
  IvfPqOptions pq;
  pq.nbits = static_cast<size_t>(spec.GetInt("NBITS", nbits));
  // Default m: largest divisor of dim that is <= dim/4 and <= 16.
  size_t default_m = 8;
  if (spec.dim % default_m != 0) {
    default_m = 1;
    for (size_t c = 2; c <= 16; ++c)
      if (spec.dim % c == 0) default_m = c;
  }
  pq.m = static_cast<size_t>(spec.GetInt("PQ_M", default_m));
  pq.keep_raw_for_refine = spec.GetInt("REFINE", 1) != 0;
  if (spec.dim % pq.m != 0)
    return common::Status::InvalidArgument("ivfpq: dim not divisible by PQ_M");
  return VectorIndexPtr(std::make_unique<IvfPqIndex>(spec.dim, spec.metric, ivf, pq));
}

}  // namespace

IndexFactory::IndexFactory() {
  Register("FLAT", BuildFlat);
  Register("HNSW", [](const IndexSpec& s) { return BuildHnsw(s, false); });
  Register("HNSWSQ", [](const IndexSpec& s) { return BuildHnsw(s, true); });
  Register("IVFFLAT", BuildIvfFlat);
  Register("DISKANN", BuildDiskAnn);
  Register("IVFPQ", [](const IndexSpec& s) { return BuildIvfPq(s, 8); });
  Register("IVFPQFS", [](const IndexSpec& s) { return BuildIvfPq(s, 4); });
}

IndexFactory& IndexFactory::Global() {
  // Intentionally leaked so registrations outlive every static destructor.
  static IndexFactory* factory = new IndexFactory();  // lint:allow(naked-new)
  return *factory;
}

void IndexFactory::Register(const std::string& type, Builder builder) {
  builders_[type] = std::move(builder);
}

bool IndexFactory::Has(const std::string& type) const {
  return builders_.count(type) > 0;
}

std::vector<std::string> IndexFactory::RegisteredTypes() const {
  std::vector<std::string> out;
  out.reserve(builders_.size());
  for (const auto& [type, _] : builders_) out.push_back(type);
  return out;
}

common::Result<VectorIndexPtr> IndexFactory::Create(
    const IndexSpec& spec) const {
  if (spec.dim == 0)
    return common::Status::InvalidArgument("index spec: dim must be set");
  auto it = builders_.find(spec.type);
  if (it == builders_.end())
    return common::Status::NotFound("unknown index type: " + spec.type);
  return it->second(spec);
}

common::Result<VectorIndexPtr> IndexFactory::CreateFromSaved(
    const IndexSpec& spec, std::string_view bytes,
    std::shared_ptr<const void> owner) const {
  // Every index writes its type name first; peek it to dispatch.
  common::BinaryReader r(bytes);
  std::string type;
  BH_RETURN_IF_ERROR(r.ReadString(&type));
  IndexSpec actual = spec;
  actual.type = type;
  auto created = Create(actual);
  if (!created.ok()) return created.status();
  BH_RETURN_IF_ERROR((*created)->Load(bytes, std::move(owner)));
  return std::move(*created);
}

}  // namespace blendhouse::vecindex
