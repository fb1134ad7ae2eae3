#include "vecindex/pq.h"

#include <algorithm>
#include <cstring>

#include "vecindex/distance.h"
#include "vecindex/kmeans.h"

namespace blendhouse::vecindex {

common::Status ProductQuantizer::Train(const float* data, size_t n, size_t dim,
                                       size_t m, size_t nbits, uint64_t seed) {
  if (m == 0 || dim == 0 || n == 0)
    return common::Status::InvalidArgument("pq: empty input");
  if (dim % m != 0)
    return common::Status::InvalidArgument("pq: dim not divisible by m");
  if (nbits != 4 && nbits != 8)
    return common::Status::InvalidArgument("pq: nbits must be 4 or 8");

  dim_ = dim;
  m_ = m;
  ks_ = size_t{1} << nbits;
  dsub_ = dim / m;
  codebooks_.assign(m_ * ks_ * dsub_, 0.0f);

  std::vector<float> sub(n * dsub_);
  for (size_t s = 0; s < m_; ++s) {
    for (size_t i = 0; i < n; ++i)
      std::memcpy(sub.data() + i * dsub_, data + i * dim_ + s * dsub_,
                  dsub_ * sizeof(float));
    KMeansOptions opts;
    opts.k = ks_;
    opts.seed = seed + s;
    opts.max_iterations = 12;
    auto km = RunKMeans(sub.data(), n, dsub_, opts);
    if (!km.ok()) return km.status();
    size_t trained_k = km->centroids.size() / dsub_;
    // With fewer training points than ks, duplicate the last centroid so the
    // codebook stays full-size and codes remain valid.
    for (size_t c = 0; c < ks_; ++c) {
      const float* src =
          km->centroids.data() + std::min(c, trained_k - 1) * dsub_;
      std::memcpy(codebooks_.data() + (s * ks_ + c) * dsub_, src,
                  dsub_ * sizeof(float));
    }
  }
  return common::Status::Ok();
}

void ProductQuantizer::Encode(const float* v, uint8_t* code) const {
  for (size_t s = 0; s < m_; ++s) {
    const float* book = codebooks_.data() + s * ks_ * dsub_;
    size_t c = NearestCentroid(v + s * dsub_, book, ks_, dsub_);
    code[s] = static_cast<uint8_t>(c);
  }
}

void ProductQuantizer::Decode(const uint8_t* code, float* v) const {
  for (size_t s = 0; s < m_; ++s) {
    const float* centroid =
        codebooks_.data() + (s * ks_ + code[s]) * dsub_;
    std::memcpy(v + s * dsub_, centroid, dsub_ * sizeof(float));
  }
}

void ProductQuantizer::BuildAdcTable(const float* query, float* table) const {
  // One batched-kernel call per subspace: each codebook is already a packed
  // ks x dsub row block, exactly the layout the batch kernels scan.
  kernels::BatchDistFn batch_l2sqr = kernels::Get().batch_l2sqr;
  for (size_t s = 0; s < m_; ++s) {
    const float* book = codebooks_.data() + s * ks_ * dsub_;
    batch_l2sqr(query + s * dsub_, book, ks_, dsub_, table + s * ks_);
  }
}

void ProductQuantizer::Serialize(common::BinaryWriter* w) const {
  w->Write<uint64_t>(dim_);
  w->Write<uint64_t>(m_);
  w->Write<uint64_t>(ks_);
  w->Write<uint64_t>(dsub_);
  w->WriteVector(codebooks_);
}

common::Status ProductQuantizer::Deserialize(common::BinaryReader* r) {
  uint64_t dim = 0, m = 0, ks = 0, dsub = 0;
  BH_RETURN_IF_ERROR(r->Read(&dim));
  BH_RETURN_IF_ERROR(r->Read(&m));
  BH_RETURN_IF_ERROR(r->Read(&ks));
  BH_RETURN_IF_ERROR(r->Read(&dsub));
  dim_ = dim;
  m_ = m;
  ks_ = ks;
  dsub_ = dsub;
  BH_RETURN_IF_ERROR(r->ReadVector(&codebooks_));
  // A code is one byte, so at most 256 centroids per subspace; the m
  // codebooks hold ks centroids of dsub floats each, dim * ks in all.
  if (ks_ > 256 || !common::LengthIsProduct(dim_, m_, dsub_) ||
      !common::LengthIsProduct(codebooks_.size(), dim_, ks_))
    return common::Status::Corruption("pq: shape mismatch");
  return common::Status::Ok();
}

}  // namespace blendhouse::vecindex
