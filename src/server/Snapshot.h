//===- server/Snapshot.h - Immutable per-db query snapshots ---*- C++ -*-===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Snapshot isolation for the daemon's query path (DESIGN.md S14):
/// readers never touch the live solver tables — they read an immutable
/// DbSnapshot published after each committed update batch. A snapshot
/// shares per-predicate sub-snapshots with its predecessor for every
/// predicate the batch did not touch (UpdateStats::ChangedPreds), and a
/// touched predicate's sub-snapshot is its predecessor's shared base plus
/// an overlay of the cells changed since that base. Publishing therefore
/// costs O(overlay + changed cells), the derivative of the model the
/// incremental update computed, not O(rows) of every changed predicate.
///
/// A base is a copy of the table indexed by table row id over every row,
/// tombstones included. Row ids are stable for the life of one inner
/// solver (a tombstoned row revives in place), so the overlay holds the
/// changed rows sorted by id, and a cell's current state is its overlay
/// row if it has one and its base row otherwise. A predicate re-bases —
/// its table is captured afresh — when the overlay would outgrow a fixed
/// fraction of the base (rebaseBound()), and every predicate re-bases
/// after a full solve, which replaces the solver and with it the row ids.
///
/// Readers resolve a snapshot with one mutex-protected shared_ptr copy
/// and then run lock-free. A point lookup makes one probe of the base's
/// HashIndex over the key hashes (ValueFactory::hashSeq, as in the
/// solver's tables) and one binary search of the overlay by the row id it
/// found; only keys the base does not hold probe the overlay's own index
/// of rows newer than the base. A scan walks base and overlay merged by
/// row id, which is the table's insertion order. A lookup takes the key as
/// an element span and interns nothing, so queries for absent keys cost no
/// arena memory. The Value handles inside are interned in the session's
/// ValueFactory (concurrent-interning mode), so dereferencing them while a
/// solve runs is safe.
///
//===----------------------------------------------------------------------===//

#ifndef FLIX_SERVER_SNAPSHOT_H
#define FLIX_SERVER_SNAPSHOT_H

#include "fixpoint/Table.h"
#include "support/HashIndex.h"

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

namespace flix {
namespace server {

/// One predicate's cells at some generation: a shared immutable base plus
/// the rows changed since it (see the file comment).
class PredSnapshot {
public:
  /// A fresh base holding every row of \p T, with an empty overlay.
  static std::shared_ptr<const PredSnapshot> capture(const Table &T) {
    auto B = std::make_shared<Base>();
    B->Rows = T.rows();
    B->Bot = T.botValue();
    B->ByKey.reserve(T.size());
    for (uint32_t Id = 0; Id < T.size(); ++Id)
      B->ByKey.insert(ValueFactory::hashSeq(T.rowKey(Id)), Id);
    auto S = std::make_shared<PredSnapshot>();
    S->Live = T.liveSize();
    S->B = std::move(B);
    return S;
  }

  /// The most overlay rows a snapshot over a base of \p BaseRows rows
  /// keeps before its predicate re-bases. Publishing copies the overlay,
  /// so the fraction trades that copy against re-capture frequency.
  static size_t rebaseBound(size_t BaseRows) {
    return std::max<size_t>(64, BaseRows / 8);
  }

  /// Whether advancing by \p Touched more rows could outgrow the bound.
  bool wantsRebase(size_t Touched) const {
    return OverIds.size() + Touched > rebaseBound(B->Rows.size());
  }

  /// This snapshot advanced to the current state of \p T, where
  /// \p Touched (sorted, duplicate-free) lists every row of \p T changed
  /// since this snapshot was taken. Shares the base.
  std::shared_ptr<const PredSnapshot> advance(
      const Table &T, std::span<const uint32_t> Touched) const {
    auto S = std::make_shared<PredSnapshot>();
    S->B = B;
    S->Live = Live;
    S->NewByKey = NewByKey;
    S->OverIds.reserve(OverIds.size() + Touched.size());
    S->OverRows.reserve(OverIds.size() + Touched.size());
    size_t I = 0;
    for (uint32_t Id : Touched) {
      for (; I < OverIds.size() && OverIds[I] < Id; ++I) {
        S->OverIds.push_back(OverIds[I]);
        S->OverRows.push_back(OverRows[I]);
      }
      const Table::Row *Was = nullptr;
      if (I < OverIds.size() && OverIds[I] == Id)
        Was = &OverRows[I++];
      else if (Id < B->Rows.size())
        Was = &B->Rows[Id];
      else // a row the table appended since: new to the overlay index
        S->NewByKey.insert(ValueFactory::hashSeq(T.rowKey(Id)), Id);
      const Table::Row &Now = T.row(Id);
      S->Live += Now.Lat != B->Bot;
      S->Live -= Was && Was->Lat != B->Bot;
      S->OverIds.push_back(Id);
      S->OverRows.push_back(Now);
    }
    S->OverIds.insert(S->OverIds.end(), OverIds.begin() + I, OverIds.end());
    S->OverRows.insert(S->OverRows.end(), OverRows.begin() + I,
                       OverRows.end());
    return S;
  }

  /// The live row with key columns \p Key, or nullptr.
  const Table::Row *find(const ValueFactory &F,
                         std::span<const Value> Key) const {
    uint64_t H = ValueFactory::hashSeq(Key);
    const Table::Row *R = nullptr;
    uint32_t Id = B->ByKey.find(H, [&](uint32_t Cand) {
      return std::ranges::equal(F.tupleElems(B->Rows[Cand].Key), Key);
    });
    if (Id != HashIndex::NoId) {
      R = overlayRow(Id);
      if (!R)
        R = &B->Rows[Id];
    } else {
      NewByKey.find(H, [&](uint32_t Cand) {
        const Table::Row *O = overlayRow(Cand);
        if (!std::ranges::equal(F.tupleElems(O->Key), Key))
          return false;
        R = O;
        return true;
      });
    }
    return R && R->Lat != B->Bot ? R : nullptr;
  }

  /// Calls \p Visit(const Table::Row &) on every live row in the table's
  /// insertion order, stopping early when it returns false.
  template <class Fn> void forEachLive(Fn &&Visit) const {
    auto visit = [&](const Table::Row &R) {
      return R.Lat == B->Bot || Visit(R);
    };
    size_t I = 0;
    for (uint32_t Id = 0; Id < B->Rows.size(); ++Id) {
      const Table::Row *R = &B->Rows[Id];
      if (I < OverIds.size() && OverIds[I] == Id)
        R = &OverRows[I++];
      if (!visit(*R))
        return;
    }
    for (; I < OverIds.size(); ++I)
      if (!visit(OverRows[I]))
        return;
  }

  /// Live (non-tombstone) cells.
  size_t liveCount() const { return Live; }
  /// Rows changed since the base.
  size_t overlaySize() const { return OverIds.size(); }

private:
  struct Base {
    std::vector<Table::Row> Rows; ///< by table row id, tombstones included
    HashIndex ByKey;              ///< key hash -> row id
    Value Bot;                    ///< the table's ⊥: marks tombstones
  };

  /// The overlay row of row id \p Id, or nullptr.
  const Table::Row *overlayRow(uint32_t Id) const {
    auto It = std::lower_bound(OverIds.begin(), OverIds.end(), Id);
    return It != OverIds.end() && *It == Id
               ? &OverRows[size_t(It - OverIds.begin())]
               : nullptr;
  }

  std::shared_ptr<const Base> B;
  std::vector<uint32_t> OverIds;    ///< changed row ids, ascending
  std::vector<Table::Row> OverRows; ///< their rows, parallel to OverIds
  HashIndex NewByKey; ///< key hash -> row id of rows newer than the base
  size_t Live = 0;
};

/// The whole database at one committed generation: one PredSnapshot per
/// predicate, shared with earlier generations where unchanged.
struct DbSnapshot {
  uint64_t Generation = 0;
  /// Predicate re-bases forced by the overlay bound so far (captures at
  /// load and after a full solve not counted).
  uint64_t Rebases = 0;
  std::vector<std::shared_ptr<const PredSnapshot>> Preds;
};

} // namespace server
} // namespace flix

#endif // FLIX_SERVER_SNAPSHOT_H
