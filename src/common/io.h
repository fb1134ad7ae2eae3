#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/aligned.h"
#include "common/status.h"

namespace blendhouse::common {

/// Whether an array read back holds exactly `rows * width` elements.
/// Divides instead of multiplying, so corrupt counts cannot wrap the
/// product.
inline bool LengthIsProduct(uint64_t length, uint64_t rows, uint64_t width) {
  return rows == 0 ? length == 0
                   : length % rows == 0 && length / rows == width;
}

/// Sections of a saved blob that a loader views in place start at multiples
/// of this many bytes from the blob start (BinaryWriter::PadToSection,
/// BinaryReader::SkipSectionPadding). A blob whose first byte sits on this
/// boundary puts every section on it too.
inline constexpr size_t kSectionAlignment = kVectorAlignment;

/// Byte buffer whose first byte is kSectionAlignment-aligned, so a
/// sectioned blob copied into it can be viewed in place.
using AlignedBytes = AlignedVector<char>;

/// Whether `p` sits on a kSectionAlignment boundary.
inline bool IsSectionAligned(const void* p) {
  return reinterpret_cast<uintptr_t>(p) % kSectionAlignment == 0;
}

/// Appends POD values and vectors to a byte string. Used for serializing
/// segments and vector indexes to the object store.
class BinaryWriter {
 public:
  explicit BinaryWriter(std::string* out) : out_(out), start_(out->size()) {}

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

  /// Appends the values with no length prefix; the reader learns the count
  /// from a header it read earlier.
  template <typename T>
  void WriteArray(std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!values.empty())
      out_->append(reinterpret_cast<const char*>(values.data()),
                   values.size_bytes());
  }

  /// Appends zero bytes until the next write starts a multiple of
  /// kSectionAlignment bytes from where this writer began.
  void PadToSection() {
    const size_t used = (out_->size() - start_) % kSectionAlignment;
    if (used != 0) out_->append(kSectionAlignment - used, '\0');
  }

 private:
  std::string* out_;
  size_t start_;
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

  /// Skips the zero bytes BinaryWriter::PadToSection wrote, so the next read
  /// starts a multiple of kSectionAlignment bytes from the start of `in`.
  /// Nonzero padding means the writer laid the sections out differently.
  Status SkipSectionPadding() {
    const size_t used = pos_ % kSectionAlignment;
    const size_t pad = used == 0 ? 0 : kSectionAlignment - used;
    if (pad > in_.size() - pos_) return Status::Corruption("padding past end");
    for (size_t i = 0; i < pad; ++i)
      if (in_[pos_ + i] != '\0')
        return Status::Corruption("nonzero section padding");
    pos_ += pad;
    return Status::Ok();
  }

  /// Views `rows * width` values in place instead of copying them: the
  /// bytes under `in` must outlive `*out`. Corruption if the values run past
  /// the end (checked by division, so corrupt counts cannot wrap) or their
  /// address is not aligned for T. The bytes are read as T the way a
  /// memory-mapped file is (what C++23 names start_lifetime_as_array): they
  /// were stored as chars, which alias every type, and are never written
  /// while viewed.
  template <typename T>
  Status View(uint64_t rows, uint64_t width, std::span<const T>* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    const uint64_t fit = (in_.size() - pos_) / sizeof(T);
    if (width != 0 && rows > fit / width)
      return Status::Corruption("view past end");
    const char* at = in_.data() + pos_;
    if (reinterpret_cast<uintptr_t>(at) % alignof(T) != 0)
      return Status::Corruption("misaligned view");
    const size_t n = rows * width;
    *out = {reinterpret_cast<const T*>(at), n};
    pos_ += n * sizeof(T);
    return Status::Ok();
  }

  size_t remaining() const { return in_.size() - pos_; }

 private:
  std::string_view in_;
  size_t pos_ = 0;
};

}  // namespace blendhouse::common
