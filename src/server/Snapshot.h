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
/// predicate the batch did not touch (UpdateStats::ChangedPreds), so
/// maintaining it costs O(changed predicates' rows), tracking the
/// affected cone like the incremental update itself, not the database.
///
/// Readers resolve a snapshot with one mutex-protected shared_ptr copy
/// and then run lock-free: point lookups through the per-predicate
/// HashIndex over the rows' key hashes (ValueFactory::hashSeq, as in the
/// solver's tables), scans over the dense row vector. A point lookup takes
/// the key as an element span and interns nothing, so queries for absent
/// keys cost no arena memory. The Value handles inside are interned in
/// the session's ValueFactory (concurrent-interning mode), so
/// dereferencing them while a solve runs is safe.
///
//===----------------------------------------------------------------------===//

#ifndef FLIX_SERVER_SNAPSHOT_H
#define FLIX_SERVER_SNAPSHOT_H

#include "fixpoint/Table.h"
#include "support/HashIndex.h"

#include <algorithm>
#include <memory>
#include <vector>

namespace flix {
namespace server {

/// One predicate's live rows at some generation. Rows preserves the
/// table's insertion order for scans; ByKey indexes it for point queries.
struct PredSnapshot {
  std::vector<Table::Row> Rows; ///< live (non-tombstone) cells
  HashIndex ByKey;              ///< key hash -> position in Rows

  /// The live row with key columns \p Key, or nullptr.
  const Table::Row *find(const ValueFactory &F,
                         std::span<const Value> Key) const {
    uint32_t Pos =
        ByKey.find(ValueFactory::hashSeq(Key), [&](uint32_t Pos) {
          return std::ranges::equal(F.tupleElems(Rows[Pos].Key), Key);
        });
    return Pos == HashIndex::NoId ? nullptr : &Rows[Pos];
  }

  static std::shared_ptr<const PredSnapshot> capture(const Table &T) {
    auto S = std::make_shared<PredSnapshot>();
    S->Rows.reserve(T.liveSize());
    S->ByKey.reserve(T.liveSize());
    for (uint32_t Id = 0; Id < T.size(); ++Id) {
      if (T.isTombstone(Id))
        continue; // tombstoned or never-present
      S->ByKey.insert(ValueFactory::hashSeq(T.rowKey(Id)),
                      static_cast<uint32_t>(S->Rows.size()));
      S->Rows.push_back(T.row(Id));
    }
    return S;
  }
};

/// The whole database at one committed generation: one PredSnapshot per
/// predicate, shared with earlier generations where unchanged.
struct DbSnapshot {
  uint64_t Generation = 0;
  std::vector<std::shared_ptr<const PredSnapshot>> Preds;
};

} // namespace server
} // namespace flix

#endif // FLIX_SERVER_SNAPSHOT_H
