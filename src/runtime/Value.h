//===- runtime/Value.h - Hash-consed runtime values -----------*- C++ -*-===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime value representation shared by the fixpoint engine and the
/// FLIX interpreter. A Value is a 1+8 byte immutable handle; compound
/// values (strings, tags, tuples, sets) are hash-consed in a ValueFactory,
/// so structural equality and hashing are O(1) handle operations. This is
/// the C++ answer to the boxed-objects inefficiency the paper reports for
/// its Scala implementation (§4.5).
///
//===----------------------------------------------------------------------===//

#ifndef FLIX_RUNTIME_VALUE_H
#define FLIX_RUNTIME_VALUE_H

#include "support/HashIndex.h"
#include "support/Hashing.h"
#include "support/SegmentedVector.h"
#include "support/StringInterner.h"

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace flix {

/// Discriminator for Value.
enum class ValueKind : uint8_t {
  Unit,  ///< the unit value
  Bool,  ///< true / false
  Int,   ///< 64-bit signed integer
  Str,   ///< interned string (payload: Symbol id)
  Tag,   ///< enum constructor applied to a payload (payload: factory index)
  Tuple, ///< fixed-arity tuple (payload: factory index)
  Set,   ///< finite set of values (payload: factory index)
};

/// An immutable runtime value. Values are meaningful only relative to the
/// ValueFactory that created them; two values from the same factory are
/// structurally equal iff their handles are equal.
class Value {
public:
  Value() : Kind(ValueKind::Unit), Bits(0) {}

  ValueKind kind() const { return Kind; }

  bool isUnit() const { return Kind == ValueKind::Unit; }
  bool isBool() const { return Kind == ValueKind::Bool; }
  bool isInt() const { return Kind == ValueKind::Int; }
  bool isStr() const { return Kind == ValueKind::Str; }
  bool isTag() const { return Kind == ValueKind::Tag; }
  bool isTuple() const { return Kind == ValueKind::Tuple; }
  bool isSet() const { return Kind == ValueKind::Set; }

  bool asBool() const {
    assert(isBool() && "not a Bool value");
    return Bits != 0;
  }
  int64_t asInt() const {
    assert(isInt() && "not an Int value");
    return static_cast<int64_t>(Bits);
  }
  Symbol asStr() const {
    assert(isStr() && "not a Str value");
    return Symbol{static_cast<uint32_t>(Bits)};
  }

  bool operator==(const Value &O) const {
    return Kind == O.Kind && Bits == O.Bits;
  }
  bool operator!=(const Value &O) const { return !(*this == O); }

  /// Arbitrary-but-deterministic total order within one factory; used to
  /// canonicalize set elements and as a map key order.
  bool operator<(const Value &O) const {
    if (Kind != O.Kind)
      return Kind < O.Kind;
    return Bits < O.Bits;
  }

  uint64_t hash() const {
    return hashValues(static_cast<uint64_t>(Kind), Bits);
  }

  /// Raw payload bits, exposed for the ValueFactory and hashing only.
  uint64_t rawBits() const { return Bits; }

private:
  friend class ValueFactory;
  Value(ValueKind K, uint64_t B) : Kind(K), Bits(B) {}

  ValueKind Kind;
  uint64_t Bits;
};

/// Creates and interns values. All compound values are hash-consed: building
/// the same tag/tuple/set twice yields the identical handle.
///
/// hashSeq() is the one definition of a tuple's (or set's) structural hash:
/// interning files a tuple under hashSeq of its elements, and every keyed
/// index of the engine (Table rows and secondary indexes, flixd snapshots)
/// hashes its key elements with it too, so a lookup can hash an element
/// span in place and never has to intern the key it is looking for.
///
/// By default a ValueFactory is single-threaded. Calling
/// enableConcurrentInterning() switches it to *lock-sharded* operation for
/// the parallel solver: the hash-consing tables are split into power-of-two
/// shards keyed by the structural hash, interning takes only the owning
/// shard's mutex, and read accessors (tupleElems, setElems, tagName, ...)
/// stay entirely lock-free — payload storage is a SegmentedVector, so any
/// handle a thread can legitimately hold refers to memory written before
/// the handle escaped its shard lock (see DESIGN.md §S11 for the tradeoff
/// against per-worker scratch factories).
class ValueFactory {
public:
  ValueFactory() = default;
  ValueFactory(const ValueFactory &) = delete;
  ValueFactory &operator=(const ValueFactory &) = delete;

  Value unit() const { return Value(ValueKind::Unit, 0); }
  Value boolean(bool B) const { return Value(ValueKind::Bool, B ? 1 : 0); }
  Value integer(int64_t I) const {
    return Value(ValueKind::Int, static_cast<uint64_t>(I));
  }

  /// Interns \p Text and returns the corresponding Str value.
  Value string(std::string_view Text) {
    return Value(ValueKind::Str, Strings.intern(Text).Id);
  }
  Value string(Symbol Sym) const { return Value(ValueKind::Str, Sym.Id); }

  /// Builds `TagName(Payload)`. Nullary enum cases use a Unit payload.
  Value tag(Symbol TagName, Value Payload);
  Value tag(std::string_view TagName, Value Payload) {
    return tag(Strings.intern(TagName), Payload);
  }
  Value tag(std::string_view TagName) { return tag(TagName, unit()); }
  /// Looks up `TagName(Payload)` without interning it: false if no such
  /// tag was ever built (then no stored value can equal it).
  bool findTag(Symbol TagName, Value Payload, Value &Out) const;

  /// Builds an n-ary tuple.
  Value tuple(std::span<const Value> Elems);
  Value tuple(std::initializer_list<Value> Elems) {
    return tuple(std::span<const Value>(Elems.begin(), Elems.size()));
  }

  /// Structural hash of the tuple or set with elements \p Elems (see the
  /// class comment).
  static uint64_t hashSeq(std::span<const Value> Elems) {
    uint64_t H = 0x7c0fa1d2b3e4f596ULL;
    for (const Value &V : Elems)
      H = hashCombine(H, V.hash());
    return H;
  }

  /// Builds a set; duplicates are removed and the representation is
  /// canonically ordered so equal sets have equal handles.
  Value set(std::vector<Value> Elems);
  Value emptySet() { return set({}); }

  Symbol tagName(Value V) const;
  Value tagPayload(Value V) const;
  std::span<const Value> tupleElems(Value V) const;
  std::span<const Value> setElems(Value V) const;

  /// Returns a set with \p Elem inserted.
  Value setInsert(Value SetV, Value Elem);
  /// Returns the union of two set values.
  Value setUnion(Value A, Value B);
  /// Returns the intersection of two set values.
  Value setIntersect(Value A, Value B);
  /// True if \p Elem is a member of set \p SetV.
  bool setContains(Value SetV, Value Elem) const;
  /// True if set \p A is a subset of set \p B.
  bool setSubsetOf(Value A, Value B) const;

  /// The interner backing Str values and tag names.
  StringInterner &strings() { return Strings; }
  const StringInterner &strings() const { return Strings; }

  /// Renders \p V for debugging and test assertions, e.g.
  /// `Parity.Odd`, `("x", 3)`, `{1, 2}`.
  std::string toString(Value V) const;

  /// Approximate heap footprint of all interned compound values, used by
  /// the benchmark harness as a deterministic memory metric.
  size_t memoryBytes() const;

  /// Switches interning to lock-sharded concurrent operation (see class
  /// comment). One-way: once enabled it stays enabled, so concurrent
  /// solvers sharing this factory cannot race on the mode itself.
  void enableConcurrentInterning() {
    Strings.enableConcurrent();
    Concurrent.store(true, std::memory_order_release);
  }
  bool concurrentInterning() const {
    return Concurrent.load(std::memory_order_relaxed);
  }

private:
  struct TagRecord {
    Symbol Name;
    Value Payload;
  };

  /// Compound-value ids are sharded by structural hash: handle payload
  /// bits encode (shard, per-shard index) as Local·NumShards + Shard.
  /// Structurally equal values hash equal, so consing stays canonical;
  /// interning locks only the owning shard (and only in concurrent mode).
  static constexpr uint64_t NumShards = 8;
  static unsigned shardOfHash(uint64_t H) {
    // High bits: the HashIndex slot uses the low bits, and reusing them
    // for shard selection would leave 7/8 of each shard's slots unused.
    return static_cast<unsigned>(H >> 61);
  }
  static uint64_t encodeId(unsigned Shard, size_t Local) {
    return static_cast<uint64_t>(Local) * NumShards + Shard;
  }
  static unsigned shardOfId(uint64_t Bits) {
    return static_cast<unsigned>(Bits & (NumShards - 1));
  }
  static size_t localOfId(uint64_t Bits) { return Bits / NumShards; }

  struct Shard {
    mutable std::mutex Mu;
    HashIndex TagIx;
    HashIndex SeqIx;
    SegmentedVector<TagRecord> Tags;
    // Tuples and sets share the element-vector storage; sets are stored
    // in canonical (sorted, unique) order.
    SegmentedVector<std::vector<Value>> Seqs;
    /// Incrementally maintained heap estimate of Tags/Seqs payloads.
    size_t PayloadBytes = 0;
  };

  std::unique_lock<std::mutex> lockShard(const Shard &S) const {
    if (Concurrent.load(std::memory_order_relaxed))
      return std::unique_lock<std::mutex>(S.Mu);
    return {};
  }

  Value internSeq(std::span<const Value> Elems, ValueKind K);

  const std::vector<Value> &seq(Value V) const {
    const Shard &S = Shards[shardOfId(V.rawBits())];
    return S.Seqs[localOfId(V.rawBits())];
  }

  StringInterner Strings;
  std::array<Shard, NumShards> Shards;
  std::atomic<bool> Concurrent{false};
};

} // namespace flix

namespace std {
template <> struct hash<flix::Value> {
  size_t operator()(const flix::Value &V) const noexcept { return V.hash(); }
};
} // namespace std

#endif // FLIX_RUNTIME_VALUE_H
