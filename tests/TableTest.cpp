//===- tests/TableTest.cpp - Table unit tests ------------------------------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//

#include "fixpoint/Program.h"
#include "fixpoint/Table.h"

#include "runtime/Lattices.h"
#include "support/SmallVector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <random>
#include <set>

using namespace flix;

namespace {

//===----------------------------------------------------------------------===//
// Table
//===----------------------------------------------------------------------===//

class TableTest : public ::testing::Test {
protected:
  ValueFactory F;
  ParityLattice L{F};

  Value key(int A, int B) { return F.tuple({F.integer(A), F.integer(B)}); }
  /// Key columns for the span lookups (interning nothing).
  std::array<Value, 2> cols(int A, int B) {
    return {F.integer(A), F.integer(B)};
  }
  std::array<Value, 1> proj(int A) { return {F.integer(A)}; }
};

TEST_F(TableTest, InsertAndLookup) {
  Table T(2, L, F);
  auto [Id, Changed] = T.join(key(1, 2), L.odd());
  EXPECT_TRUE(Changed);
  EXPECT_EQ(T.size(), 1u);
  ASSERT_NE(T.lookup(cols(1, 2)), nullptr);
  EXPECT_EQ(*T.lookup(cols(1, 2)), L.odd());
  EXPECT_EQ(T.lookup(cols(2, 1)), nullptr);
  EXPECT_EQ(T.lookupRow(key(1, 2)), Id);
}

TEST_F(TableTest, JoinComputesLubPerCell) {
  Table T(2, L, F);
  T.join(key(1, 2), L.odd());
  auto R1 = T.join(key(1, 2), L.odd());
  EXPECT_FALSE(R1.Changed); // no increase
  auto R2 = T.join(key(1, 2), L.even());
  EXPECT_TRUE(R2.Changed); // odd ⊔ even = ⊤
  EXPECT_EQ(*T.lookup(cols(1, 2)), L.top());
  EXPECT_EQ(T.size(), 1u); // still one compact cell
}

TEST_F(TableTest, BottomCellsNotMaterialized) {
  Table T(2, L, F);
  auto R = T.join(key(1, 2), L.bot());
  EXPECT_FALSE(R.Changed);
  EXPECT_EQ(R.RowId, Table::NoRow);
  EXPECT_EQ(T.size(), 0u);
}

TEST_F(TableTest, JoinBottomIntoExistingCellIsNoop) {
  Table T(2, L, F);
  T.join(key(1, 2), L.odd());
  auto R = T.join(key(1, 2), L.bot());
  EXPECT_FALSE(R.Changed);
  EXPECT_EQ(*T.lookup(cols(1, 2)), L.odd());
}

TEST_F(TableTest, SecondaryIndexProbing) {
  Table T(2, L, F);
  for (int A = 0; A < 5; ++A)
    for (int B = 0; B < 3; ++B)
      T.join(key(A, B), L.odd());
  // Probe on column 0 = 2.
  std::array<Value, 1> Proj = proj(2);
  const std::vector<uint32_t> &Bucket = T.probe(0b01, Proj);
  EXPECT_EQ(Bucket.size(), 3u);
  for (uint32_t Id : Bucket)
    EXPECT_EQ(T.rowKey(Id)[0].asInt(), 2);
  // Probe on column 1 = 0.
  const std::vector<uint32_t> &B2 = T.probe(0b10, proj(0));
  EXPECT_EQ(B2.size(), 5u);
  EXPECT_EQ(T.numIndexes(), 2u);
}

TEST_F(TableTest, IndexStaysInSyncWithNewRows) {
  Table T(2, L, F);
  T.join(key(1, 1), L.odd());
  std::array<Value, 1> Proj = proj(1);
  EXPECT_EQ(T.probe(0b01, Proj).size(), 1u);
  // Insert after the index exists; the index must pick it up.
  T.join(key(1, 2), L.odd());
  EXPECT_EQ(T.probe(0b01, Proj).size(), 2u);
}

TEST_F(TableTest, ProbeMissReturnsEmpty) {
  Table T(2, L, F);
  T.join(key(1, 1), L.odd());
  EXPECT_TRUE(T.probe(0b01, proj(9)).empty());
}

/// Σ over the \p Mask buckets of T of (rows in the bucket)², tombstoned
/// rows included, by brute force over every row.
uint64_t bruteSumSq(const Table &T, uint64_t Mask) {
  std::map<std::vector<Value>, uint64_t> Count;
  for (uint32_t Id = 0; Id < T.size(); ++Id) {
    std::vector<Value> Proj;
    for (size_t C = 0; C < T.keyArity(); ++C)
      if (Mask & (uint64_t(1) << C))
        Proj.push_back(T.rowKey(Id)[C]);
    ++Count[Proj];
  }
  uint64_t Sum = 0;
  for (const auto &[Proj, N] : Count)
    Sum += N * N;
  return Sum;
}

TEST_F(TableTest, IndexStatsSumSqIsSumOfBucketSquares) {
  // Skewed keys: column 0 is 0 for half the rows, so its index has one
  // heavy bucket. SumSq must equal Σ bucket² for an index built before
  // the rows (maintained by appends), one built over existing rows
  // (prepareIndex), and after tombstones, which stay in their buckets.
  Table T(2, L, F);
  T.prepareIndex(0b01);
  std::mt19937 Rng(3);
  for (int I = 0; I < 400; ++I)
    T.join(key(I % 2 ? 0 : int(Rng() % 50), int(Rng() % 30)), L.odd());
  Table::IndexStats S;
  ASSERT_TRUE(T.indexStats(0b01, S));
  EXPECT_EQ(S.SumSq, bruteSumSq(T, 0b01));
  EXPECT_GT(S.SumSq, uint64_t(T.size()) * T.size() / S.Buckets)
      << "one heavy bucket puts Σ bucket² above the uniform N²/buckets";

  T.prepareIndex(0b10);
  ASSERT_TRUE(T.indexStats(0b10, S));
  EXPECT_EQ(S.SumSq, bruteSumSq(T, 0b10));

  for (uint32_t Id = 0; Id < T.size(); Id += 3)
    T.resetRow(Id);
  for (int I = 0; I < 50; ++I)
    T.join(key(0, 100 + I), L.odd());
  ASSERT_LT(T.liveSize(), T.size());
  for (uint64_t Mask : {0b01, 0b10}) {
    ASSERT_TRUE(T.indexStats(Mask, S));
    EXPECT_EQ(S.SumSq, bruteSumSq(T, Mask)) << "mask " << Mask;
  }
  std::vector<Table::IndexStats> All;
  T.collectIndexStats(All);
  ASSERT_EQ(All.size(), 2u);
  EXPECT_EQ(All[1].SumSq, bruteSumSq(T, All[1].Mask));
}

TEST_F(TableTest, SampleCollisionsExactWhenTheSampleIsTheTable) {
  // 6 live rows: column 0 takes 1,1,1,2,2,3 (Σ count² = 9 + 4 + 1 = 14),
  // column 1 is unique. A tombstoned row is not sampled, and an
  // unrequested column reads 1.
  Table T(2, L, F);
  int Col0[] = {1, 1, 1, 2, 2, 3};
  for (int I = 0; I < 6; ++I)
    T.join(key(Col0[I], I), L.odd());
  T.resetRow(T.join(key(1, 99), L.odd()).RowId);
  SmallVector<double, 4> P;
  T.sampleCollisions(0b11, /*MaxSample=*/512, P);
  ASSERT_EQ(P.size(), 2u);
  EXPECT_NEAR(P[0], 14.0 / 36.0, 1e-12);
  EXPECT_NEAR(P[1], 1.0 / 6.0, 1e-12);
  T.sampleCollisions(0b01, 512, P);
  EXPECT_DOUBLE_EQ(P[1], 1.0);

  // A strided sample of a large table: a unique column still reads about
  // 1/N, not 1/(sample size), and a two-valued column about 1/2.
  Table Big(2, L, F);
  for (int I = 0; I < 20000; ++I)
    Big.join(key(I, I % 2), L.odd());
  Big.sampleCollisions(0b11, 512, P);
  EXPECT_NEAR(P[0], 1.0 / 20000, 1e-9);
  EXPECT_NEAR(P[1], 0.5, 0.01);
}

TEST_F(TableTest, MemoryAccountingGrows) {
  Table T(2, L, F);
  size_t Before = T.memoryBytes();
  for (int I = 0; I < 1000; ++I)
    T.join(key(I, I), L.odd());
  T.probe(0b01, proj(0));
  EXPECT_GT(T.memoryBytes(), Before);
}

TEST_F(TableTest, MemoryAccountingMonotoneUnderJoins) {
  // Joins only ever add rows or lub existing cells in place, so the
  // reported footprint must never decrease across a join sequence.
  Table T(2, L, F);
  size_t Prev = T.memoryBytes();
  for (int I = 0; I < 256; ++I) {
    T.join(key(I % 16, I), L.odd());
    size_t Now = T.memoryBytes();
    EXPECT_GE(Now, Prev) << "at join " << I;
    Prev = Now;
  }
}

TEST_F(TableTest, MemoryAccountingCoversBucketCapacity) {
  // All rows share key column 0, so the mask-0b01 index is one bucket of
  // N ids. The old flat per-entry estimate ignored the bucket vector's
  // geometric capacity growth; the fix accounts capacity, so the reported
  // index memory must bound the payload bytes from below and stay within
  // a small constant factor of them from above.
  constexpr int N = 4096;
  Table T(2, L, F);
  for (int I = 0; I < N; ++I)
    T.join(key(7, I), L.odd());
  size_t RowsOnly = T.memoryBytes();
  T.probe(0b01, proj(7));
  size_t WithIndex = T.memoryBytes();
  size_t IndexBytes = WithIndex - RowsOnly;
  // Lower bound: the ids actually stored (capacity >= size).
  EXPECT_GE(IndexBytes, N * sizeof(uint32_t));
  // Upper bound: capacity of a doubling vector is < 2x size; node and
  // map overhead for a single bucket is small. 4x payload is generous.
  EXPECT_LE(IndexBytes, 4u * N * sizeof(uint32_t));
}

TEST_F(TableTest, SpanLookupsMatchBruteForceScan) {
  // Random keys over a small domain (so projections collide a lot), some
  // rows tombstoned; every lookup path, on every mask, against a scan.
  constexpr unsigned Arity = 3;
  constexpr int Domain = 5;
  std::mt19937 Rng(7);
  auto randKey = [&] {
    std::array<Value, Arity> K;
    for (Value &V : K)
      V = F.integer(static_cast<int64_t>(Rng() % Domain));
    return K;
  };
  Table T(Arity, L, F);
  for (int I = 0; I < 80; ++I) {
    std::array<Value, Arity> K = randKey();
    T.join(F.tuple(K), Rng() % 2 ? L.odd() : L.even());
  }
  for (uint32_t Id = 0; Id < T.size(); Id += 3)
    T.resetRow(Id);
  // Indexes on half the masks exist before the probes, the rest are
  // built by probe(); probeExisting must answer only for built ones.
  std::set<uint64_t> Built = {0b001, 0b110};
  for (uint64_t Mask : Built)
    T.prepareIndex(Mask);

  auto sameCols = [&](uint32_t Id, uint64_t Mask,
                      std::span<const Value> Proj) {
    std::span<const Value> Key = T.rowKey(Id);
    size_t J = 0;
    for (unsigned C = 0; C < Arity; ++C)
      if (Mask & (uint64_t(1) << C))
        if (Key[C] != Proj[J++])
          return false;
    return true;
  };

  for (int Trial = 0; Trial < 400; ++Trial) {
    std::array<Value, Arity> K = randKey();
    // Full-key lookups: the live row with this key, if any.
    uint32_t Want = Table::NoRow;
    for (uint32_t Id = 0; Id < T.size(); ++Id)
      if (!T.isTombstone(Id) && sameCols(Id, 0b111, K))
        Want = Id;
    EXPECT_EQ(T.lookupRow(K), Want);
    const Value *Lat = T.lookup(K);
    if (Want == Table::NoRow)
      EXPECT_EQ(Lat, nullptr);
    else
      EXPECT_EQ(*Lat, T.row(Want).Lat);

    // Partial masks: buckets hold every matching row id, tombstones
    // included (the solvers skip those), ascending.
    for (uint64_t Mask = 1; Mask < 0b111; ++Mask) {
      SmallVector<Value, 3> Proj;
      for (unsigned C = 0; C < Arity; ++C)
        if (Mask & (uint64_t(1) << C))
          Proj.push_back(K[C]);
      std::span<const Value> ProjS(Proj.data(), Proj.size());
      Table::Bucket Scan;
      for (uint32_t Id = 0; Id < T.size(); ++Id)
        if (sameCols(Id, Mask, ProjS))
          Scan.push_back(Id);
      const Table::Bucket *Existing = T.probeExisting(Mask, ProjS);
      EXPECT_EQ(Existing != nullptr, Built.contains(Mask))
          << "mask " << Mask;
      EXPECT_EQ(T.probe(Mask, ProjS), Scan) << "mask " << Mask;
      Built.insert(Mask);
      ASSERT_NE(T.probeExisting(Mask, ProjS), nullptr);
      EXPECT_EQ(*T.probeExisting(Mask, ProjS), Scan) << "mask " << Mask;
    }
  }
}

TEST_F(TableTest, HashSeqIsTheInterningHash) {
  // Interning shards a tuple by the top three bits of its hash and keeps
  // the shard in the handle's low three bits (ValueFactory::encodeId), so
  // the tables' lookup hash must predict every handle's shard.
  for (int A = 0; A < 64; ++A)
    for (int B = 0; B < 16; ++B) {
      std::array<Value, 3> Elems = {F.integer(A), F.string("s"),
                                    F.integer(B)};
      Value T = F.tuple(Elems);
      EXPECT_EQ(T.rawBits() & 7, ValueFactory::hashSeq(Elems) >> 61);
      EXPECT_EQ(ValueFactory::hashSeq(F.tupleElems(T)),
                ValueFactory::hashSeq(Elems));
    }
}

TEST_F(TableTest, ProbedBucketSurvivesJoinsRehashAndNewIndexes) {
  // The sequential solver keeps a probed bucket's address open while its
  // own in-place joins append to that bucket, add buckets (rehashing the
  // bucket index) and create further indexes; the bucket must stay put
  // and keep the prefix the cursor captured.
  Table T(2, L, F);
  for (int I = 0; I < 8; ++I)
    T.join(key(1, I), L.odd());
  const Table::Bucket *B = &T.probe(0b01, proj(1));
  Table::Bucket Captured = *B;
  ASSERT_EQ(Captured.size(), 8u);

  for (int I = 0; I < 2000; ++I) {
    T.join(key(1, 100 + I), L.odd()); // grows B's storage
    T.join(key(10 + I, I), L.even()); // new buckets: rehashes the index
    if (I == 1000)
      T.prepareIndex(0b10); // a second index on the same table
  }
  EXPECT_EQ(&T.probe(0b01, proj(1)), B);
  ASSERT_EQ(B->size(), Captured.size() + 2000);
  EXPECT_TRUE(std::equal(Captured.begin(), Captured.end(), B->begin()));
  EXPECT_EQ(T.numIndexes(), 2u);
  EXPECT_EQ(T.probe(0b10, proj(5)).size(), 2u); // (1, 5) and (15, 5)
}

TEST_F(TableTest, RelationalTableViaBoolLattice) {
  BoolLattice BL(F);
  Table T(2, BL, F);
  auto R1 = T.join(key(1, 2), F.boolean(true));
  EXPECT_TRUE(R1.Changed);
  auto R2 = T.join(key(1, 2), F.boolean(true));
  EXPECT_FALSE(R2.Changed); // duplicate tuple
  EXPECT_EQ(T.size(), 1u);
}

//===----------------------------------------------------------------------===//
// Program dump (round-trip sanity for diagnostics)
//===----------------------------------------------------------------------===//

TEST(ProgramDumpTest, RendersRulesAndFacts) {
  ValueFactory F;
  ParityLattice L(F);
  Program P(F);
  PredId A = P.relation("A", 2);
  PredId V = P.lattice("V", 2, &L);
  FnId Sum = P.function("sum", 2, FnRole::Transfer,
                        [&](std::span<const Value> Args) {
                          return L.sum(Args[0], Args[1]);
                        });
  P.addFact(A, {F.integer(1), F.integer(2)});
  P.addLatFact(V, {F.string("x")}, L.odd());
  RuleBuilder()
      .headFn(V, {"k"}, Sum, {"p", "q"})
      .atom(V, {"k", "p"})
      .atom(V, {"k", "q"})
      .addTo(P);
  RuleBuilder()
      .head(A, {"x", "y"})
      .atom(A, {"y", "x"})
      .negated(A, {"x", "x"})
      .addTo(P);
  std::string D = P.dump();
  EXPECT_NE(D.find("rel A/2"), std::string::npos);
  EXPECT_NE(D.find("lat V/2 <Parity>"), std::string::npos);
  EXPECT_NE(D.find("A(1, 2)."), std::string::npos);
  EXPECT_NE(D.find("Parity.Odd"), std::string::npos);
  EXPECT_NE(D.find("sum(p, q)"), std::string::npos);
  EXPECT_NE(D.find("!A(x, x)"), std::string::npos);
}

TEST(ProgramValidateTest, DetectsRoleMisuse) {
  ValueFactory F;
  Program P(F);
  PredId A = P.relation("A", 1);
  PredId B = P.relation("B", 1);
  FnId T = P.function("t", 1, FnRole::Transfer,
                      [&](std::span<const Value> Args) { return Args[0]; });
  // Transfer function used as a filter.
  RuleBuilder().head(B, {"x"}).atom(A, {"x"}).filter(T, {"x"}).addTo(P);
  auto Err = P.validate();
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->find("not declared Filter"), std::string::npos);
}

TEST(ProgramValidateTest, RejectsKeyArityAbove63) {
  // 64 key columns would make `uint64_t(1) << KeyArity` UB in the
  // solvers' bound-mask computation; validate() must reject the program
  // with a diagnostic instead (regression for the mask-overflow bug).
  ValueFactory F;
  Program P(F);
  P.relation("Wide", 64);
  auto Err = P.validate();
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->find("Wide"), std::string::npos);
  EXPECT_NE(Err->find("key arity 64"), std::string::npos);
  EXPECT_NE(Err->find("63"), std::string::npos);
}

TEST(ProgramValidateTest, KeyArity63IsAccepted) {
  ValueFactory F;
  Program P(F);
  P.relation("JustFits", 63);
  EXPECT_FALSE(P.validate().has_value());
}

TEST(ProgramValidateTest, DetectsArityMismatch) {
  ValueFactory F;
  Program P(F);
  PredId A = P.relation("A", 2);
  PredId B = P.relation("B", 1);
  Rule R;
  R.Head.Pred = B;
  R.Head.LastTerm = Term::var(0);
  BodyAtom At;
  At.Pred = A;
  At.Terms.push_back(Term::var(0)); // A used with arity 1
  R.Body.emplace_back(std::move(At));
  R.NumVars = 1;
  P.addRule(std::move(R));
  auto Err = P.validate();
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->find("expected 2"), std::string::npos);
}

} // namespace
