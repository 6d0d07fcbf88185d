//===- tests/SupportTest.cpp - Support library tests ----------------------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//

#include "support/Deadline.h"
#include "support/Diagnostics.h"
#include "support/HashIndex.h"
#include "support/Hashing.h"
#include "support/SmallVector.h"
#include "support/SourceManager.h"
#include "support/StringInterner.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

using namespace flix;

//===----------------------------------------------------------------------===//
// SmallVector
//===----------------------------------------------------------------------===//

TEST(SmallVectorTest, StartsEmptyInline) {
  SmallVector<int, 4> V;
  EXPECT_TRUE(V.empty());
  EXPECT_EQ(V.size(), 0u);
  EXPECT_EQ(V.capacity(), 4u);
}

TEST(SmallVectorTest, PushWithinInlineCapacity) {
  SmallVector<int, 4> V;
  for (int I = 0; I < 4; ++I)
    V.push_back(I);
  EXPECT_EQ(V.size(), 4u);
  EXPECT_EQ(V.capacity(), 4u);
  for (int I = 0; I < 4; ++I)
    EXPECT_EQ(V[I], I);
}

TEST(SmallVectorTest, GrowsPastInlineCapacity) {
  SmallVector<int, 2> V;
  for (int I = 0; I < 100; ++I)
    V.push_back(I);
  EXPECT_EQ(V.size(), 100u);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(V[I], I);
}

TEST(SmallVectorTest, InitializerListAndEquality) {
  SmallVector<int, 4> A = {1, 2, 3};
  SmallVector<int, 4> B = {1, 2, 3};
  SmallVector<int, 4> C = {1, 2, 4};
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  EXPECT_LT(A, C);
}

TEST(SmallVectorTest, CopyPreservesElements) {
  SmallVector<std::string, 2> V = {"a", "b", "c", "d"};
  SmallVector<std::string, 2> W(V);
  EXPECT_EQ(V, W);
  W.push_back("e");
  EXPECT_EQ(V.size(), 4u);
  EXPECT_EQ(W.size(), 5u);
}

TEST(SmallVectorTest, MoveStealsHeapBuffer) {
  SmallVector<std::string, 2> V;
  for (int I = 0; I < 10; ++I)
    V.push_back("s" + std::to_string(I));
  const std::string *Data = V.data();
  SmallVector<std::string, 2> W(std::move(V));
  EXPECT_EQ(W.data(), Data); // heap buffer moved, not copied
  EXPECT_EQ(W.size(), 10u);
  EXPECT_TRUE(V.empty());
}

TEST(SmallVectorTest, MoveInlineElements) {
  SmallVector<std::string, 8> V = {"x", "y"};
  SmallVector<std::string, 8> W(std::move(V));
  EXPECT_EQ(W.size(), 2u);
  EXPECT_EQ(W[0], "x");
  EXPECT_TRUE(V.empty());
}

TEST(SmallVectorTest, NonTrivialDestructorsRun) {
  auto P = std::make_shared<int>(42);
  {
    SmallVector<std::shared_ptr<int>, 2> V;
    for (int I = 0; I < 5; ++I)
      V.push_back(P);
    EXPECT_EQ(P.use_count(), 6);
  }
  EXPECT_EQ(P.use_count(), 1);
}

TEST(SmallVectorTest, PopBackAndClear) {
  SmallVector<int, 4> V = {1, 2, 3};
  V.pop_back();
  EXPECT_EQ(V.size(), 2u);
  EXPECT_EQ(V.back(), 2);
  V.clear();
  EXPECT_TRUE(V.empty());
}

TEST(SmallVectorTest, ResizeGrowsAndShrinks) {
  SmallVector<int, 2> V;
  V.resize(5, 7);
  EXPECT_EQ(V.size(), 5u);
  EXPECT_EQ(V[4], 7);
  V.resize(1);
  EXPECT_EQ(V.size(), 1u);
  EXPECT_EQ(V[0], 7);
}

TEST(SmallVectorTest, EraseShiftsLeft) {
  SmallVector<int, 4> V = {1, 2, 3, 4};
  V.erase(V.begin() + 1);
  EXPECT_EQ(V, (SmallVector<int, 4>{1, 3, 4}));
}

TEST(SmallVectorTest, CopyAssignSelfHeapToInline) {
  SmallVector<int, 2> V = {1, 2, 3, 4, 5};
  SmallVector<int, 2> W = {9};
  W = V;
  EXPECT_EQ(W, V);
  V = V; // self-assignment
  EXPECT_EQ(V.size(), 5u);
}

//===----------------------------------------------------------------------===//
// Hashing
//===----------------------------------------------------------------------===//

TEST(HashingTest, MixSpreadsBits) {
  EXPECT_NE(hashMix(0), hashMix(1));
  EXPECT_NE(hashMix(1), hashMix(2));
}

TEST(HashingTest, CombineOrderSensitive) {
  EXPECT_NE(hashValues(1, 2), hashValues(2, 1));
  EXPECT_EQ(hashValues(1, 2), hashValues(1, 2));
}

TEST(HashingTest, RangeMatchesValues) {
  uint64_t Data[] = {3, 1, 4};
  EXPECT_EQ(hashRange(std::begin(Data), std::end(Data)),
            hashValues(3, 1, 4));
}

//===----------------------------------------------------------------------===//
// StringInterner
//===----------------------------------------------------------------------===//

//===----------------------------------------------------------------------===//
// HashIndex
//===----------------------------------------------------------------------===//

TEST(HashIndexTest, ClearEmptiesAndStaysUsable) {
  // Ids are their own keys; seven distinct hashes force collisions, so
  // lookups must run the equality predicate. A large fill (cleared by
  // resetting its slots) and a small one in large slot arrays (cleared by
  // freeing them) take both clear() paths.
  HashIndex Ix;
  auto Eq = [](uint32_t Want) {
    return [Want](uint32_t Id) { return Id == Want; };
  };
  for (uint32_t N : {1000u, 1000u, 3u, 3u}) {
    for (uint32_t I = 0; I < N; ++I)
      Ix.insert(hashMix(I % 7), I);
    for (uint32_t I = 0; I < N; ++I)
      EXPECT_EQ(Ix.find(hashMix(I % 7), Eq(I)), I);
    Ix.clear();
    for (uint32_t I = 0; I < N; ++I)
      EXPECT_EQ(Ix.find(hashMix(I % 7), Eq(I)), HashIndex::NoId);
  }
}

TEST(StringInternerTest, SameStringSameSymbol) {
  StringInterner SI;
  Symbol A = SI.intern("hello");
  Symbol B = SI.intern("hello");
  EXPECT_EQ(A, B);
  EXPECT_EQ(SI.text(A), "hello");
}

TEST(StringInternerTest, DistinctStringsDistinctSymbols) {
  StringInterner SI;
  EXPECT_NE(SI.intern("a"), SI.intern("b"));
}

TEST(StringInternerTest, EmptyStringIsSymbolZero) {
  StringInterner SI;
  EXPECT_EQ(SI.intern("").Id, 0u);
  EXPECT_EQ(Symbol{}.Id, 0u);
}

TEST(StringInternerTest, LookupWithoutInterning) {
  StringInterner SI;
  EXPECT_EQ(SI.lookup("nope"), StringInterner::NotInterned);
  Symbol S = SI.intern("yes");
  EXPECT_EQ(SI.lookup("yes"), S.Id);
}

TEST(StringInternerTest, ManyStringsStableText) {
  StringInterner SI;
  std::vector<Symbol> Syms;
  for (int I = 0; I < 1000; ++I)
    Syms.push_back(SI.intern("str" + std::to_string(I)));
  for (int I = 0; I < 1000; ++I)
    EXPECT_EQ(SI.text(Syms[I]), "str" + std::to_string(I));
}

//===----------------------------------------------------------------------===//
// SourceManager and Diagnostics
//===----------------------------------------------------------------------===//

TEST(SourceManagerTest, LineColumnResolution) {
  SourceManager SM;
  uint32_t B = SM.addBuffer("<t>", "abc\ndef\nghi");
  EXPECT_EQ(SM.lineColumn({B, 0}).Line, 1u);
  EXPECT_EQ(SM.lineColumn({B, 0}).Column, 1u);
  EXPECT_EQ(SM.lineColumn({B, 4}).Line, 2u);
  EXPECT_EQ(SM.lineColumn({B, 6}).Column, 3u);
  EXPECT_EQ(SM.lineColumn({B, 10}).Line, 3u);
}

TEST(SourceManagerTest, LineTextExtraction) {
  SourceManager SM;
  uint32_t B = SM.addBuffer("<t>", "first\nsecond\nthird");
  EXPECT_EQ(SM.lineText({B, 7}), "second");
  EXPECT_EQ(SM.lineText({B, 0}), "first");
  EXPECT_EQ(SM.lineText({B, 17}), "third");
}

TEST(DiagnosticsTest, RenderWithCaret) {
  SourceManager SM;
  uint32_t B = SM.addBuffer("test.flix", "rel Foo(x: Int)\nbogus here\n");
  DiagnosticEngine DE(SM);
  DE.error({B, 16}, "unexpected identifier");
  EXPECT_TRUE(DE.hasErrors());
  std::string R = DE.render();
  EXPECT_NE(R.find("test.flix:2:1: error: unexpected identifier"),
            std::string::npos);
  EXPECT_NE(R.find("bogus here"), std::string::npos);
}

TEST(DiagnosticsTest, ErrorsCountedWarningsNot) {
  SourceManager SM;
  DiagnosticEngine DE(SM);
  DE.warning(SourceLoc::invalid(), "just a warning");
  EXPECT_FALSE(DE.hasErrors());
  DE.error(SourceLoc::invalid(), "boom");
  EXPECT_EQ(DE.numErrors(), 1u);
}

//===----------------------------------------------------------------------===//
// Deadline
//===----------------------------------------------------------------------===//

TEST(DeadlineTest, DefaultIsInactiveAndNeverExpires) {
  Deadline D;
  EXPECT_FALSE(D.active());
  EXPECT_FALSE(D.expired());
}

TEST(DeadlineTest, NonPositiveSecondsMeansNoDeadline) {
  EXPECT_FALSE(Deadline::after(0).active());
  EXPECT_FALSE(Deadline::after(-1.5).active());
  EXPECT_FALSE(Deadline::after(0).expired());
}

TEST(DeadlineTest, FutureDeadlineActiveButNotExpired) {
  Deadline D = Deadline::after(3600.0);
  EXPECT_TRUE(D.active());
  EXPECT_FALSE(D.expired());
}

TEST(DeadlineTest, TinyDeadlineExpires) {
  Deadline D = Deadline::after(1e-9);
  EXPECT_TRUE(D.active());
  // steady_clock must advance past a nanosecond eventually.
  while (!D.expired()) {
  }
  EXPECT_TRUE(D.expired());
}
