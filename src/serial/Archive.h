//===- serial/Archive.h - Byte-level serialisation --------------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Binary archives: the byte-level layer of the serialisation stack.  All
/// remoting stacks encode calls through these, so wire sizes in the network
/// model are the sizes of real encoded buffers.
///
/// Encoding: little-endian fixed-width integers, IEEE doubles via bit_cast,
/// strings and vectors length-prefixed with uint32.  Numeric arrays are
/// copied as one byte block on little-endian hosts, where the in-memory
/// bytes are already the wire bytes.  Reads are
/// bounds-checked: InputArchive never reads past the buffer and turns
/// malformed input into a sticky failure state (checked via ok() or the
/// per-read bool), since wire bytes are *input*, not trusted state.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_SERIAL_ARCHIVE_H
#define PARCS_SERIAL_ARCHIVE_H

#include "support/Error.h"

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace parcs::serial {

using Bytes = std::vector<uint8_t>;

/// Element types whose std::vector is encoded and decoded as one byte block:
/// fixed-width numbers on a little-endian host, whose memory already holds
/// the wire bytes.  bool keeps the element loop, since any nonzero wire byte
/// must decode to a canonical true.
template <typename T>
inline constexpr bool IsBlockCopyable =
    std::endian::native == std::endian::little &&
    ((std::is_integral_v<T> && !std::is_same_v<T, bool>) ||
     std::is_same_v<T, float> || std::is_same_v<T, double>);

namespace detail {
/// Bulk byte moves for the archives, kept out of line: once a bulk vector
/// insert or memcpy is inlined into its callers (coroutine bodies, tests
/// with constant-size buffers), GCC 12 raises -Wstringop-overflow,
/// -Wstringop-overread and -Warray-bounds false positives on it.
void appendBytes(Bytes &Out, const uint8_t *Data, size_t Size);
void copyBytes(void *Dst, const uint8_t *Src, size_t Size);
} // namespace detail

/// Appends encoded values to a byte buffer.
class OutputArchive {
public:
  OutputArchive() = default;

  /// Continues an existing buffer: writes append after its current
  /// contents, and take() returns the whole thing.  Lets framing code
  /// encode straight into a reused scratch buffer (capacity survives the
  /// round trip) instead of concatenating intermediate vectors.
  explicit OutputArchive(Bytes &&Seed) : Buffer(std::move(Seed)) {}

  /// Unit (void stand-in) occupies no bytes.
  void write(Unit) {}

  void write(bool Value) { write(static_cast<uint8_t>(Value ? 1 : 0)); }

  /// Writes any non-bool integral type little-endian.
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  void write(T Value) {
    auto U = static_cast<std::make_unsigned_t<T>>(Value);
    for (size_t I = 0; I < sizeof(T); ++I)
      Buffer.push_back(static_cast<uint8_t>(U >> (8 * I)));
  }

  void write(double Value) {
    uint64_t Bits;
    std::memcpy(&Bits, &Value, sizeof(Bits));
    write(Bits);
  }

  void write(float Value) {
    uint32_t Bits;
    std::memcpy(&Bits, &Value, sizeof(Bits));
    write(Bits);
  }

  void write(const std::string &Value) { write(std::string_view(Value)); }

  /// Byte-identical to write(const std::string &) -- lets the envelope
  /// encoders write names without materialising a std::string temporary.
  void write(std::string_view Value) {
    write(static_cast<uint32_t>(Value.size()));
    writeRaw(reinterpret_cast<const uint8_t *>(Value.data()), Value.size());
  }

  template <typename T> void write(const std::vector<T> &Values) {
    write(static_cast<uint32_t>(Values.size()));
    if constexpr (IsBlockCopyable<T>) {
      writeRaw(reinterpret_cast<const uint8_t *>(Values.data()),
               Values.size() * sizeof(T));
    } else {
      for (const T &Value : Values)
        write(Value);
    }
  }

  template <typename A, typename B> void write(const std::pair<A, B> &Value) {
    write(Value.first);
    write(Value.second);
  }

  template <typename K, typename V> void write(const std::map<K, V> &Values) {
    write(static_cast<uint32_t>(Values.size()));
    for (const auto &[Key, Value] : Values) {
      write(Key);
      write(Value);
    }
  }

  /// Structured types opt in by providing `void encode(OutputArchive&)
  /// const` (e.g. scoopp::ParallelRef).
  template <typename T>
    requires requires(const T &Value, OutputArchive &Archive) {
      Value.encode(Archive);
    }
  void write(const T &Value) {
    Value.encode(*this);
  }

  /// Appends raw bytes without a length prefix.
  void writeRaw(const uint8_t *Data, size_t Size) {
    detail::appendBytes(Buffer, Data, Size);
  }
  void writeRaw(const Bytes &Data) { writeRaw(Data.data(), Data.size()); }

  size_t size() const { return Buffer.size(); }
  const Bytes &bytes() const { return Buffer; }
  Bytes take() { return std::move(Buffer); }

private:
  Bytes Buffer;
};

/// Reads encoded values back out of a byte buffer.  All reads are
/// bounds-checked; after any failure the archive is sticky-failed and all
/// further reads return defaults.
class InputArchive {
public:
  explicit InputArchive(const Bytes &Buffer)
      : Data(Buffer.data()), Size(Buffer.size()) {}
  InputArchive(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {}

  bool ok() const { return !Failed; }
  size_t remaining() const { return Size - Pos; }
  bool atEnd() const { return Pos == Size; }

  bool read(Unit &) { return !Failed; }

  bool read(bool &Out) {
    uint8_t Raw = 0;
    if (!read(Raw))
      return false;
    Out = Raw != 0;
    return true;
  }

  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  bool read(T &Out) {
    if (!require(sizeof(T)))
      return false;
    std::make_unsigned_t<T> U = 0;
    for (size_t I = 0; I < sizeof(T); ++I)
      U |= static_cast<std::make_unsigned_t<T>>(Data[Pos + I]) << (8 * I);
    Out = static_cast<T>(U);
    Pos += sizeof(T);
    return true;
  }

  bool read(double &Out) {
    uint64_t Bits = 0;
    if (!read(Bits))
      return false;
    std::memcpy(&Out, &Bits, sizeof(Out));
    return true;
  }

  bool read(float &Out) {
    uint32_t Bits = 0;
    if (!read(Bits))
      return false;
    std::memcpy(&Out, &Bits, sizeof(Out));
    return true;
  }

  bool read(std::string &Out) {
    uint32_t Len = 0;
    if (!read(Len) || !require(Len))
      return false;
    Out.assign(reinterpret_cast<const char *>(Data + Pos), Len);
    Pos += Len;
    return true;
  }

  template <typename T> bool read(std::vector<T> &Out) {
    uint32_t Count = 0;
    if (!read(Count))
      return false;
    // Reject counts that cannot possibly fit in the remaining bytes, so a
    // corrupt length cannot trigger a huge allocation.  Every element
    // encoding occupies at least one byte.
    if constexpr (IsBlockCopyable<T>) {
      size_t Len = static_cast<size_t>(Count) * sizeof(T);
      if (!require(Len))
        return false;
      Out.resize(Count);
      detail::copyBytes(Out.data(), Data + Pos, Len);
      Pos += Len;
      return true;
    } else if constexpr (std::is_arithmetic_v<T>) {
      if (!require(static_cast<size_t>(Count) * sizeof(T)))
        return false;
    } else if (Count > remaining()) {
      Failed = true;
      return false;
    }
    Out.clear();
    Out.reserve(Count);
    for (uint32_t I = 0; I < Count; ++I) {
      T Value{};
      if (!read(Value))
        return false;
      Out.push_back(std::move(Value));
    }
    return true;
  }

  template <typename A, typename B> bool read(std::pair<A, B> &Out) {
    return read(Out.first) && read(Out.second);
  }

  template <typename K, typename V> bool read(std::map<K, V> &Out) {
    uint32_t Count = 0;
    if (!read(Count))
      return false;
    if (Count > remaining()) { // Each entry occupies at least one byte.
      Failed = true;
      return false;
    }
    Out.clear();
    for (uint32_t I = 0; I < Count; ++I) {
      K Key{};
      V Value{};
      if (!read(Key) || !read(Value))
        return false;
      Out.emplace(std::move(Key), std::move(Value));
    }
    return true;
  }

  /// Structured types opt in by providing a static
  /// `bool decode(InputArchive&, T&)` (e.g. scoopp::ParallelRef).
  template <typename T>
    requires requires(InputArchive &Archive, T &Out) {
      { T::decode(Archive, Out) } -> std::convertible_to<bool>;
    }
  bool read(T &Out) {
    if (Failed)
      return false;
    if (!T::decode(*this, Out)) {
      Failed = true;
      return false;
    }
    return true;
  }

  /// Reads \p Count raw bytes.
  bool readRaw(Bytes &Out, size_t Count) {
    if (!require(Count))
      return false;
    Out.assign(Data + Pos, Data + Pos + Count);
    Pos += Count;
    return true;
  }

  /// Reads all remaining bytes.
  bool readRemaining(Bytes &Out) { return readRaw(Out, remaining()); }

  /// Convenience: read-or-default for use in expression contexts; check
  /// ok() afterwards.
  template <typename T> T readOr(T Default) {
    T Value{};
    if (!read(Value))
      return Default;
    return Value;
  }

private:
  bool require(size_t Count) {
    if (Failed || Count > Size - Pos) {
      Failed = true;
      return false;
    }
    return true;
  }

  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
  bool Failed = false;
};

/// Encodes a fixed sequence of values into one buffer (method-call
/// argument packing).
template <typename... Ts> Bytes encodeValues(const Ts &...Values) {
  OutputArchive Archive;
  (Archive.write(Values), ...);
  return Archive.take();
}

/// Decodes exactly the values encoded by encodeValues; fails on trailing
/// bytes so truncation/corruption cannot pass silently.
template <typename... Ts> bool decodeValues(const Bytes &Data, Ts &...Out) {
  InputArchive Archive(Data);
  bool Ok = (Archive.read(Out) && ...);
  return Ok && Archive.atEnd();
}

} // namespace parcs::serial

#endif // PARCS_SERIAL_ARCHIVE_H
