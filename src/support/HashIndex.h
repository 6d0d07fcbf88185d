//===- support/HashIndex.h - Open-addressing (hash -> id) index -*- C++ -*-===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A flat open-addressing index from a caller-computed 64-bit hash to a
/// 32-bit id, with linear probing. It stores no keys: the caller keeps each
/// id's key elsewhere (the value arena, a table's rows, a snapshot's rows)
/// and passes an equality predicate over candidate ids, which runs only
/// when the stored hash matches. That lets one structure serve both the
/// ValueFactory's hash-consing tables and every keyed lookup of the
/// engine, and lets a lookup key be an unmaterialized element span. These
/// are the hottest structures of the solver, and the flat layout beats
/// node-based maps by a wide margin.
///
//===----------------------------------------------------------------------===//

#ifndef FLIX_SUPPORT_HASHINDEX_H
#define FLIX_SUPPORT_HASHINDEX_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace flix {

class HashIndex {
public:
  static constexpr uint32_t NoId = UINT32_MAX;

  /// Heap bytes of the slot arrays.
  size_t memoryBytes() const {
    return capacity() * (sizeof(uint64_t) + sizeof(uint32_t));
  }

  /// The id stored under hash \p H for which \p Eq(id) holds, or NoId.
  template <typename EqFn> uint32_t find(uint64_t H, EqFn Eq) const {
    if (Count == 0)
      return NoId;
    size_t Mask = capacity() - 1;
    for (size_t Slot = H & Mask; Ids[Slot] != NoId; Slot = (Slot + 1) & Mask)
      if (Hashes[Slot] == H && Eq(Ids[Slot]))
        return Ids[Slot];
    return NoId;
  }

  /// Like find(), but on a miss stores the id returned by \p MakeNew()
  /// under \p H and returns it.
  template <typename EqFn, typename MakeFn>
  uint32_t findOrInsert(uint64_t H, EqFn Eq, MakeFn MakeNew) {
    growFor(Count + 1);
    size_t Mask = capacity() - 1;
    size_t Slot = H & Mask;
    for (; Ids[Slot] != NoId; Slot = (Slot + 1) & Mask)
      if (Hashes[Slot] == H && Eq(Ids[Slot]))
        return Ids[Slot];
    uint32_t Id = MakeNew();
    Hashes[Slot] = H;
    Ids[Slot] = Id;
    ++Count;
    return Id;
  }

  /// Stores \p Id under \p H; the caller knows no equal key is present.
  void insert(uint64_t H, uint32_t Id) {
    growFor(Count + 1);
    place(H, Id);
    ++Count;
  }

  /// Removes every entry. The slot arrays are kept for reuse unless the
  /// entries filled less than an eighth of them, so one large use does
  /// not make every later clear() cost its size.
  void clear() {
    if (Count * 8 < capacity()) {
      Hashes = {};
      Ids = {};
    } else {
      std::fill(Ids.begin(), Ids.end(), NoId);
    }
    Count = 0;
  }

  /// Grows the slot arrays so \p N entries fit without a rehash.
  void reserve(size_t N) {
    if (N)
      growFor(N);
  }

private:
  size_t capacity() const { return Ids.size(); }

  /// Makes room for \p N entries (N >= 1), doubling the capacity while
  /// the other N - 1 would fill 70% of it or more.
  void growFor(size_t N) {
    if ((N - 1) * 10 < capacity() * 7)
      return;
    size_t NewCap = std::max<size_t>(64, capacity() * 2);
    while ((N - 1) * 10 >= NewCap * 7)
      NewCap *= 2;
    std::vector<uint64_t> OldHashes =
        std::exchange(Hashes, std::vector<uint64_t>(NewCap, 0));
    std::vector<uint32_t> OldIds =
        std::exchange(Ids, std::vector<uint32_t>(NewCap, NoId));
    for (size_t I = 0; I < OldIds.size(); ++I)
      if (OldIds[I] != NoId)
        place(OldHashes[I], OldIds[I]);
  }

  void place(uint64_t H, uint32_t Id) {
    size_t Mask = capacity() - 1;
    size_t Slot = H & Mask;
    while (Ids[Slot] != NoId)
      Slot = (Slot + 1) & Mask;
    Hashes[Slot] = H;
    Ids[Slot] = Id;
  }

  std::vector<uint64_t> Hashes;
  std::vector<uint32_t> Ids; ///< NoId marks an empty slot
  size_t Count = 0;
};

} // namespace flix

#endif // FLIX_SUPPORT_HASHINDEX_H
