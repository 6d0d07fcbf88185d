//===- fixpoint/Table.cpp - Lattice-aware indexed tables ------------------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//

#include "fixpoint/Table.h"

#include "support/SmallVector.h"

#include <algorithm>
#include <cassert>

using namespace flix;

const Table::Bucket Table::EmptyBucket;

uint64_t Table::hashProj(std::span<const Value> KeyElems, uint64_t Mask) {
  SmallVector<Value, 4> Proj;
  for (size_t I = 0; I < KeyElems.size(); ++I)
    if (Mask & (uint64_t(1) << I))
      Proj.push_back(KeyElems[I]);
  return ValueFactory::hashSeq(
      std::span<const Value>(Proj.data(), Proj.size()));
}

bool Table::projEquals(uint32_t Id, uint64_t Mask,
                       std::span<const Value> Proj) const {
  std::span<const Value> KeyElems = rowKey(Id);
  size_t J = 0;
  for (size_t I = 0; I < KeyElems.size(); ++I)
    if (Mask & (uint64_t(1) << I))
      if (J >= Proj.size() || KeyElems[I] != Proj[J++])
        return false;
  return J == Proj.size();
}

/// Whether full keys \p A and \p B agree on the \p Mask columns.
static bool sameCols(std::span<const Value> A, std::span<const Value> B,
                     uint64_t Mask) {
  for (size_t I = 0; I < A.size(); ++I)
    if ((Mask & (uint64_t(1) << I)) && A[I] != B[I])
      return false;
  return true;
}

uint32_t Table::findRow(Value KeyTuple, uint64_t H) const {
  return Primary.find(
      H, [&](uint32_t Id) { return Rows[Id].Key == KeyTuple; });
}

const Table::Bucket *Table::findBucket(const Index &Ix,
                                       std::span<const Value> Proj) const {
  uint32_t B = Ix.ByHash.find(ValueFactory::hashSeq(Proj), [&](uint32_t B) {
    return projEquals(Ix.Buckets[B].front(), Ix.Mask, Proj);
  });
  return B == HashIndex::NoId ? nullptr : &Ix.Buckets[B];
}

void Table::append(Index &Ix, uint64_t H, uint32_t Id) {
  std::span<const Value> KeyElems = rowKey(Id);
  uint32_t B = Ix.ByHash.findOrInsert(
      H,
      [&](uint32_t B) {
        return sameCols(rowKey(Ix.Buckets[B].front()), KeyElems, Ix.Mask);
      },
      [&] {
        Ix.Buckets.emplace_back();
        Ix.Bytes += sizeof(Bucket);
        return static_cast<uint32_t>(Ix.Buckets.size() - 1);
      });
  Bucket &Bk = Ix.Buckets[B];
  size_t OldCap = Bk.capacity();
  Bk.push_back(Id);
  if (Bk.capacity() != OldCap)
    Ix.Bytes += (Bk.capacity() - OldCap) * sizeof(uint32_t);
  Ix.MaxBucket = std::max(Ix.MaxBucket, Bk.size());
  Ix.SumSq += 2 * Bk.size() - 1; // (b+1)² - b²
}

Table::JoinResult Table::join(Value KeyTuple, Value LatVal) {
  std::span<const Value> KeyElems = F.tupleElems(KeyTuple);
  uint64_t H = ValueFactory::hashSeq(KeyElems);
  uint32_t Id = findRow(KeyTuple, H);
  if (Id != HashIndex::NoId) {
    Row &R = Rows[Id];
    Value Joined = Lat.lub(R.Lat, LatVal);
    assert(Lat.leq(R.Lat, Joined) && Lat.leq(LatVal, Joined) &&
           "lub not an upper bound; malformed lattice");
    if (Joined == R.Lat)
      return {Id, false};
    if (R.Lat == Bot)
      --NumTombstones; // tombstoned row revived in place
    R.Lat = Joined;
    return {Id, true};
  }
  // New cell. ⊥ cells are not materialized.
  if (LatVal == Bot)
    return {NoRow, false};
  Id = static_cast<uint32_t>(Rows.size());
  Rows.push_back({KeyTuple, LatVal});
  Primary.insert(H, Id);
  // Keep existing secondary indexes in sync.
  for (Index &Ix : Indexes)
    append(Ix, hashProj(KeyElems, Ix.Mask), Id);
  return {Id, true};
}

void Table::resetRow(uint32_t Id) {
  assert(Id < Rows.size());
  Row &R = Rows[Id];
  if (R.Lat == Bot)
    return;
  R.Lat = Bot;
  ++NumTombstones;
}

const Value *Table::lookup(std::span<const Value> Key) const {
  uint32_t Id = lookupRow(Key);
  return Id == NoRow ? nullptr : &Rows[Id].Lat;
}

uint32_t Table::lookupRow(std::span<const Value> Key) const {
  uint32_t Id = Primary.find(ValueFactory::hashSeq(Key), [&](uint32_t Id) {
    return std::ranges::equal(rowKey(Id), Key);
  });
  if (Id == HashIndex::NoId || Rows[Id].Lat == Bot)
    return NoRow;
  return Id;
}

uint32_t Table::lookupRow(Value KeyTuple) const {
  uint32_t Id =
      findRow(KeyTuple, ValueFactory::hashSeq(F.tupleElems(KeyTuple)));
  if (Id == HashIndex::NoId || Rows[Id].Lat == Bot)
    return NoRow;
  return Id;
}

Table::Index *Table::findIndex(uint64_t Mask) {
  for (Index &Ix : Indexes)
    if (Ix.Mask == Mask)
      return &Ix;
  return nullptr;
}

Table::Index &Table::ensureIndex(uint64_t Mask) {
  if (Index *Ix = findIndex(Mask))
    return *Ix;
  Index &Ix = Indexes.emplace_back();
  Ix.Mask = Mask;
  for (uint32_t Id = 0; Id < Rows.size(); ++Id)
    append(Ix, hashProj(rowKey(Id), Mask), Id);
  return Ix;
}

bool Table::indexStats(uint64_t Mask, IndexStats &Out) const {
  for (const Index &Ix : Indexes) {
    if (Ix.Mask != Mask)
      continue;
    Out = {Ix.Mask, Ix.Buckets.size(), Ix.MaxBucket, Ix.SumSq};
    return true;
  }
  return false;
}

void Table::collectIndexStats(std::vector<IndexStats> &Out) const {
  for (const Index &Ix : Indexes)
    Out.push_back({Ix.Mask, Ix.Buckets.size(), Ix.MaxBucket, Ix.SumSq});
}

const Table::Bucket &Table::probe(uint64_t BoundMask,
                                  std::span<const Value> Proj) {
  assert(BoundMask != 0 && "use a full scan for unbound probes");
  // Mirrors the solvers' Full computation; KeyArity > 63 never reaches a
  // probe (rejected by Program::validate), so the shift is defined.
  assert(KeyArity <= 63 && "unindexable key arity must be rejected earlier");
  assert(BoundMask != (KeyArity == 0 ? 0 : (uint64_t(1) << KeyArity) - 1) &&
         "use the primary index for fully bound probes");
  const Bucket *B = findBucket(ensureIndex(BoundMask), Proj);
  return B ? *B : EmptyBucket;
}

const Table::Bucket *Table::probeExisting(uint64_t BoundMask,
                                          std::span<const Value> Proj) const {
  for (const Index &Ix : Indexes) {
    if (Ix.Mask != BoundMask)
      continue;
    const Bucket *B = findBucket(Ix, Proj);
    return B ? B : &EmptyBucket;
  }
  return nullptr;
}

void Table::sampleCollisions(uint64_t Cols, size_t MaxSample,
                             SmallVector<double, 4> &Out) const {
  Out.clear();
  Out.resize(KeyArity, 1.0);
  double N = static_cast<double>(liveSize());
  if (!Cols || N < 2 || MaxSample < 2)
    return;
  // Row K·Stride mod size for K < MaxSample: distinct rows (the prime
  // stride is invertible modulo any table size below it), the whole table
  // when it is small, and spread so that a key pattern periodic in the
  // row id does not alias with the sample.
  constexpr uint64_t Stride = 2654435761u;
  uint64_t Size = Rows.size();
  std::vector<uint32_t> Sample;
  for (uint64_t K = 0; K < std::min<uint64_t>(Size, MaxSample); ++K) {
    uint32_t Id = static_cast<uint32_t>(K * Stride % Size);
    if (!isTombstone(Id))
      Sample.push_back(Id);
  }
  double S = static_cast<double>(Sample.size());
  if (S < 2)
    return;
  std::vector<Value> Col(Sample.size());
  for (unsigned C = 0; C < KeyArity; ++C) {
    if (!(Cols & (uint64_t(1) << C)))
      continue;
    for (size_t I = 0; I < Sample.size(); ++I)
      Col[I] = rowKey(Sample[I])[C];
    std::sort(Col.begin(), Col.end());
    double SumSq = 0; // Σ count² over the sample's distinct values
    for (size_t I = 0, J; I < Col.size(); I = J) {
      for (J = I + 1; J < Col.size() && Col[J] == Col[I]; ++J)
        ;
      SumSq += double(J - I) * double(J - I);
    }
    // Q: the chance that two distinct sampled rows agree, an unbiased
    // estimate of the same for two distinct table rows. Then
    // Σ count²/N² = Q + (1 - Q)/N, exact when the sample is the table;
    // a column unique in the sample reads 1/N, not 1/sample size.
    double Q = (SumSq - S) / (S * (S - 1));
    Out[C] = Q + (1 - Q) / N;
  }
}

size_t Table::memoryBytes() const {
  size_t Bytes = Rows.capacity() * sizeof(Row) + Primary.memoryBytes();
  for (const Index &Ix : Indexes)
    Bytes += Ix.Bytes + Ix.ByHash.memoryBytes();
  return Bytes;
}
