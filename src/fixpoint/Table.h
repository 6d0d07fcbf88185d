//===- fixpoint/Table.h - Lattice-aware indexed tables --------*- C++ -*-===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The indexed database backing the solver. A Table stores the compact
/// interpretation of one predicate: one row per §3.2 *cell* (key tuple),
/// carrying the cell's current lattice element. Joining a derived fact
/// into the table computes the per-cell least upper bound, maintaining
/// compactness; ⊥-valued cells are never materialized (see DESIGN.md).
///
/// A row's key tuple is interned in the ValueFactory when join() inserts
/// the row; that is the only time the table interns anything. The primary
/// index and every secondary index are HashIndexes over the structural
/// hash of the key (or projected key) elements, ValueFactory::hashSeq, so
/// lookups and probes take the key as an element span: they hash it in
/// place and compare elements only when a stored hash matches. An absent
/// key therefore costs no arena memory. Secondary indexes over subsets of
/// the key columns are created lazily from the bound-variable patterns the
/// solver encounters — the paper's automatic index selection (§4.5).
///
//===----------------------------------------------------------------------===//

#ifndef FLIX_FIXPOINT_TABLE_H
#define FLIX_FIXPOINT_TABLE_H

#include "runtime/Lattice.h"
#include "support/HashIndex.h"
#include "support/SmallVector.h"

#include <deque>
#include <vector>

namespace flix {

/// One predicate's rows: compact map from key tuple to lattice element.
class Table {
public:
  struct Row {
    Value Key; ///< interned Tuple of the key columns
    Value Lat; ///< current lattice element of this cell
  };

  /// Ids of the rows sharing one projected key, ascending.
  using Bucket = std::vector<uint32_t>;

  /// \p KeyArity key columns; \p Lat is the lattice of the value column
  /// (the BoolLattice for relational predicates). Key arities above 63
  /// cannot be indexed (bound-column masks are 64-bit); Program::validate
  /// rejects such predicates before any solver evaluates them, so a Table
  /// with KeyArity > 63 may be constructed but never probed or joined.
  Table(unsigned KeyArity, const Lattice &Lat, ValueFactory &F)
      : KeyArity(KeyArity), Lat(Lat), F(F), Bot(Lat.bot()) {}

  unsigned keyArity() const { return KeyArity; }
  const Lattice &lattice() const { return Lat; }

  size_t size() const { return Rows.size(); }
  const Row &row(uint32_t Id) const { return Rows[Id]; }
  const std::vector<Row> &rows() const { return Rows; }

  /// The lattice's ⊥ element (cached; handle comparison against it is how
  /// tombstoned rows are recognized — hash-consing makes that exact).
  Value botValue() const { return Bot; }

  /// True if row \p Id has been reset to ⊥ by the incremental engine's
  /// over-delete pass. Tombstoned rows keep their id and stay in every
  /// index so they can be revived in place, but all lookups and the
  /// solvers' scan/probe paths treat them as absent.
  bool isTombstone(uint32_t Id) const { return Rows[Id].Lat == Bot; }

  /// Rows whose cell is currently present (size() minus tombstones).
  size_t liveSize() const { return Rows.size() - NumTombstones; }

  /// Resets row \p Id to ⊥ (the incremental over-delete). The row id stays
  /// valid and indexed; a later join() on its key revives it in place.
  void resetRow(uint32_t Id);

  /// Key columns of row \p Id.
  std::span<const Value> rowKey(uint32_t Id) const {
    return F.tupleElems(Rows[Id].Key);
  }

  /// Result of a join: the row id and whether the cell's value strictly
  /// increased (i.e. the row belongs in the next delta, §3.7).
  struct JoinResult {
    uint32_t RowId;
    bool Changed;
  };
  static constexpr uint32_t NoRow = UINT32_MAX;

  /// Joins (\p KeyTuple, \p LatVal) into the table: new cells are inserted,
  /// existing cells are updated to old ⊔ new. ⊥ values into absent cells
  /// are dropped (RowId == NoRow, Changed == false).
  JoinResult join(Value KeyTuple, Value LatVal);

  /// Returns the lattice value of the cell with key columns \p Key, or
  /// nullptr if the cell is absent (i.e. implicitly ⊥, including
  /// tombstoned rows).
  const Value *lookup(std::span<const Value> Key) const;

  /// Returns the row id of the cell with key columns \p Key, or NoRow if
  /// absent (including tombstoned rows, which are logically ⊥).
  uint32_t lookupRow(std::span<const Value> Key) const;
  /// The same for a caller that holds the interned key tuple.
  uint32_t lookupRow(Value KeyTuple) const;

  /// Probes the secondary index for \p BoundMask (bit i set = key column i
  /// bound), returning ids of rows whose bound columns equal \p Proj (the
  /// bound columns' values, in column order). Builds the index on first
  /// use. \p BoundMask must be neither empty nor full.
  ///
  /// The returned bucket stays at its address for the table's lifetime:
  /// later joins append to it in place and creating further indexes never
  /// moves it. So a caller may keep the pointer across in-place joins and
  /// walk the prefix of the size it saw at probe time.
  const Bucket &probe(uint64_t BoundMask, std::span<const Value> Proj);

  /// Read-only probe for concurrent readers (the parallel solver's
  /// workers): returns the bucket for \p BoundMask/\p Proj, an empty
  /// bucket if the index exists but has no such key, or nullptr if the
  /// index itself does not exist (callers fall back to a full scan).
  /// Never builds an index, so it is safe while other threads read the
  /// table — indexes must be prepared up front with prepareIndex().
  const Bucket *probeExisting(uint64_t BoundMask,
                              std::span<const Value> Proj) const;

  /// Eagerly creates the secondary index for \p BoundMask (a no-op if it
  /// already exists); used by index hints and Solver::prepareIndexes.
  void prepareIndex(uint64_t BoundMask) { ensureIndex(BoundMask); }

  /// Number of secondary indexes created so far (for stats/tests).
  size_t numIndexes() const { return Indexes.size(); }

  /// Cheap maintained statistics of one secondary index, read by the
  /// cost-based planner (Plan.cpp): the number of distinct projected keys,
  /// the largest bucket's row count and Σ bucket size², the skew measure
  /// plan::estimateAccess prices probes with. All are maintained in O(1)
  /// as rows are appended, so reading them costs nothing. Tombstoned rows
  /// stay counted: they stay in their buckets, and probes walk them.
  struct IndexStats {
    uint64_t Mask;
    size_t Buckets;     ///< distinct projected keys (bucket count)
    size_t MaxBucket;   ///< rows in the largest bucket
    uint64_t SumSq = 0; ///< Σ over buckets of (rows in the bucket)²
  };

  /// Statistics for the index on \p Mask, or false if no such index
  /// exists yet (the planner then prices the mask from column samples
  /// for a static predicate, or with its sqrt(N) guess).
  bool indexStats(uint64_t Mask, IndexStats &Out) const;

  /// Appends statistics for every existing secondary index to \p Out.
  void collectIndexStats(std::vector<IndexStats> &Out) const;

  /// Per key column, the probability that two live rows agree on it
  /// (Σ over the column's values of count² / N², N live rows), estimated
  /// from a strided sample of at most \p MaxSample rows, tombstones
  /// skipped; exact when the table has at most \p MaxSample rows. Only the
  /// columns in \p Cols are sampled; the others read 1 (no selectivity
  /// known). Costs O(MaxSample log MaxSample) per sampled column,
  /// whatever the table's size.
  void sampleCollisions(uint64_t Cols, size_t MaxSample,
                        SmallVector<double, 4> &Out) const;

  /// Approximate heap bytes used by rows and indexes. Index cost is
  /// tracked at bucket-vector granularity including unused capacity from
  /// growth, so the estimate no longer drifts low as buckets grow.
  size_t memoryBytes() const;

private:
  struct Index {
    uint64_t Mask;
    HashIndex ByHash; ///< projected-key hash → position in Buckets
    /// A deque, so buckets keep their address as buckets are added.
    std::deque<Bucket> Buckets;
    /// Capacity-aware byte estimate of Buckets (vector objects and
    /// capacity), maintained by append().
    size_t Bytes = 0;
    /// Rows in the largest bucket and Σ bucket size², maintained by
    /// append(); read by indexStats() for the cost model.
    size_t MaxBucket = 0;
    uint64_t SumSq = 0;
  };

  /// Structural hash of the \p Mask columns of \p KeyElems: hashSeq of the
  /// projected key, which is what a probe hashes.
  static uint64_t hashProj(std::span<const Value> KeyElems, uint64_t Mask);
  /// Whether the \p Mask columns of row \p Id equal \p Proj.
  bool projEquals(uint32_t Id, uint64_t Mask,
                  std::span<const Value> Proj) const;
  /// The row holding interned key \p KeyTuple (hash \p H), tombstoned
  /// or not; HashIndex::NoId if none.
  uint32_t findRow(Value KeyTuple, uint64_t H) const;
  /// The bucket of projected key \p Proj in \p Ix, or nullptr.
  const Bucket *findBucket(const Index &Ix,
                           std::span<const Value> Proj) const;
  /// Appends row \p Id, whose projection hashes to \p H, to its bucket,
  /// creating the bucket if needed.
  void append(Index &Ix, uint64_t H, uint32_t Id);
  Index &ensureIndex(uint64_t Mask);
  Index *findIndex(uint64_t Mask);

  unsigned KeyArity;
  const Lattice &Lat;
  ValueFactory &F;
  Value Bot;
  size_t NumTombstones = 0;

  std::vector<Row> Rows;
  HashIndex Primary; ///< key hash → row id
  /// A deque, so creating an index never moves another one's buckets.
  std::deque<Index> Indexes;
  static const Bucket EmptyBucket;
};

} // namespace flix

#endif // FLIX_FIXPOINT_TABLE_H
