#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/status.h"

namespace blendhouse::common {

/// Whether an array read back holds exactly `rows * width` elements.
/// Divides instead of multiplying, so corrupt counts cannot wrap the
/// product.
inline bool LengthIsProduct(uint64_t length, uint64_t rows, uint64_t width) {
  return rows == 0 ? length == 0
                   : length % rows == 0 && length / rows == width;
}

/// Appends POD values and vectors to a byte string. Used for serializing
/// segments and vector indexes to the object store.
class BinaryWriter {
 public:
  explicit BinaryWriter(std::string* out) : out_(out) {}

  template <typename T>
  void Write(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    out_->append(reinterpret_cast<const char*>(&v), sizeof(T));
  }

  void WriteString(std::string_view s) {
    Write<uint64_t>(s.size());
    out_->append(s.data(), s.size());
  }

  template <typename T, typename Alloc>
  void WriteVector(const std::vector<T, Alloc>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Write<uint64_t>(v.size());
    if (!v.empty())  // data() may be null for an empty vector
      out_->append(reinterpret_cast<const char*>(v.data()),
                   v.size() * sizeof(T));
  }

 private:
  std::string* out_;
};

/// Bounds-checked reader over a byte string; every read reports Corruption on
/// truncation instead of walking off the buffer.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view in) : in_(in) {}

  template <typename T>
  Status Read(T* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (pos_ + sizeof(T) > in_.size())
      return Status::Corruption("binary read past end");
    std::memcpy(v, in_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::Ok();
  }

  Status ReadString(std::string* s) {
    uint64_t n = 0;
    BH_RETURN_IF_ERROR(Read(&n));
    if (n > in_.size() - pos_) return Status::Corruption("string past end");
    s->assign(in_.data() + pos_, n);
    pos_ += n;
    return Status::Ok();
  }

  template <typename T, typename Alloc>
  Status ReadVector(std::vector<T, Alloc>* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t n = 0;
    BH_RETURN_IF_ERROR(Read(&n));
    // Divide instead of multiplying: n * sizeof(T) can wrap uint64 and slip
    // past the bounds check on a corrupt length prefix.
    if (n > (in_.size() - pos_) / sizeof(T))
      return Status::Corruption("vector past end");
    v->resize(n);
    if (n > 0)  // data() may be null for an empty vector
      std::memcpy(v->data(), in_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return Status::Ok();
  }

  /// Copies `n` values into caller-sized memory, for layouts that allocate
  /// once up front and then fill in place.
  template <typename T>
  Status ReadArray(T* out, size_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (n > (in_.size() - pos_) / sizeof(T))
      return Status::Corruption("array past end");
    if (n > 0) std::memcpy(out, in_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return Status::Ok();
  }

  size_t remaining() const { return in_.size() - pos_; }

 private:
  std::string_view in_;
  size_t pos_ = 0;
};

}  // namespace blendhouse::common
