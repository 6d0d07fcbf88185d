//===- runtime/Value.cpp - Hash-consed runtime values ---------------------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//

#include "runtime/Value.h"

#include <algorithm>
#include <sstream>

using namespace flix;

static_assert(sizeof(void *) >= 8, "Value handles assume a 64-bit host");

Value ValueFactory::tag(Symbol TagName, Value Payload) {
  uint64_t H = hashValues(static_cast<uint64_t>(TagName.Id), Payload.hash());
  unsigned ShardId = shardOfHash(H);
  Shard &S = Shards[ShardId];
  auto Lock = lockShard(S);
  uint32_t Id = S.TagIx.findOrInsert(
      H,
      [&](uint32_t Enc) {
        const TagRecord &R = S.Tags[localOfId(Enc)];
        return R.Name == TagName && R.Payload == Payload;
      },
      [&] {
        S.PayloadBytes += sizeof(TagRecord);
        return static_cast<uint32_t>(
            encodeId(ShardId, S.Tags.push_back({TagName, Payload})));
      });
  return Value(ValueKind::Tag, Id);
}

bool ValueFactory::findTag(Symbol TagName, Value Payload, Value &Out) const {
  uint64_t H = hashValues(static_cast<uint64_t>(TagName.Id), Payload.hash());
  const Shard &S = Shards[shardOfHash(H)];
  auto Lock = lockShard(S);
  uint32_t Id = S.TagIx.find(H, [&](uint32_t Enc) {
    const TagRecord &R = S.Tags[localOfId(Enc)];
    return R.Name == TagName && R.Payload == Payload;
  });
  if (Id == HashIndex::NoId)
    return false;
  Out = Value(ValueKind::Tag, Id);
  return true;
}

Value ValueFactory::internSeq(std::span<const Value> Elems, ValueKind K) {
  uint64_t H = hashSeq(Elems);
  unsigned ShardId = shardOfHash(H);
  Shard &S = Shards[ShardId];
  auto Lock = lockShard(S);
  uint32_t Id = S.SeqIx.findOrInsert(
      H,
      [&](uint32_t Enc) {
        const std::vector<Value> &Sq = S.Seqs[localOfId(Enc)];
        return Sq.size() == Elems.size() &&
               std::equal(Sq.begin(), Sq.end(), Elems.begin());
      },
      [&] {
        S.PayloadBytes += Elems.size() * sizeof(Value) +
                          sizeof(std::vector<Value>);
        return static_cast<uint32_t>(encodeId(
            ShardId,
            S.Seqs.push_back(std::vector<Value>(Elems.begin(), Elems.end()))));
      });
  return Value(K, Id);
}

Value ValueFactory::tuple(std::span<const Value> Elems) {
  return internSeq(Elems, ValueKind::Tuple);
}

Value ValueFactory::set(std::vector<Value> Elems) {
  std::sort(Elems.begin(), Elems.end());
  Elems.erase(std::unique(Elems.begin(), Elems.end()), Elems.end());
  return internSeq(Elems, ValueKind::Set);
}

Symbol ValueFactory::tagName(Value V) const {
  assert(V.isTag() && "not a Tag value");
  const Shard &S = Shards[shardOfId(V.rawBits())];
  return S.Tags[localOfId(V.rawBits())].Name;
}

Value ValueFactory::tagPayload(Value V) const {
  assert(V.isTag() && "not a Tag value");
  const Shard &S = Shards[shardOfId(V.rawBits())];
  return S.Tags[localOfId(V.rawBits())].Payload;
}

std::span<const Value> ValueFactory::tupleElems(Value V) const {
  assert(V.isTuple() && "not a Tuple value");
  return seq(V);
}

std::span<const Value> ValueFactory::setElems(Value V) const {
  assert(V.isSet() && "not a Set value");
  return seq(V);
}

Value ValueFactory::setInsert(Value SetV, Value Elem) {
  std::span<const Value> Old = setElems(SetV);
  if (std::binary_search(Old.begin(), Old.end(), Elem))
    return SetV;
  std::vector<Value> Elems(Old.begin(), Old.end());
  Elems.insert(std::upper_bound(Elems.begin(), Elems.end(), Elem), Elem);
  return internSeq(Elems, ValueKind::Set);
}

Value ValueFactory::setUnion(Value A, Value B) {
  std::span<const Value> EA = setElems(A), EB = setElems(B);
  std::vector<Value> Out;
  Out.reserve(EA.size() + EB.size());
  std::set_union(EA.begin(), EA.end(), EB.begin(), EB.end(),
                 std::back_inserter(Out));
  return internSeq(Out, ValueKind::Set);
}

Value ValueFactory::setIntersect(Value A, Value B) {
  std::span<const Value> EA = setElems(A), EB = setElems(B);
  std::vector<Value> Out;
  std::set_intersection(EA.begin(), EA.end(), EB.begin(), EB.end(),
                        std::back_inserter(Out));
  return internSeq(Out, ValueKind::Set);
}

bool ValueFactory::setContains(Value SetV, Value Elem) const {
  std::span<const Value> E = setElems(SetV);
  return std::binary_search(E.begin(), E.end(), Elem);
}

bool ValueFactory::setSubsetOf(Value A, Value B) const {
  std::span<const Value> EA = setElems(A), EB = setElems(B);
  return std::includes(EB.begin(), EB.end(), EA.begin(), EA.end());
}

std::string ValueFactory::toString(Value V) const {
  std::ostringstream OS;
  switch (V.kind()) {
  case ValueKind::Unit:
    OS << "()";
    break;
  case ValueKind::Bool:
    OS << (V.asBool() ? "true" : "false");
    break;
  case ValueKind::Int:
    OS << V.asInt();
    break;
  case ValueKind::Str:
    OS << '"' << Strings.text(V.asStr()) << '"';
    break;
  case ValueKind::Tag: {
    OS << Strings.text(tagName(V));
    Value P = tagPayload(V);
    if (!P.isUnit())
      OS << '(' << toString(P) << ')';
    break;
  }
  case ValueKind::Tuple: {
    OS << '(';
    bool First = true;
    for (const Value &E : tupleElems(V)) {
      if (!First)
        OS << ", ";
      First = false;
      OS << toString(E);
    }
    OS << ')';
    break;
  }
  case ValueKind::Set: {
    OS << '{';
    bool First = true;
    for (const Value &E : setElems(V)) {
      if (!First)
        OS << ", ";
      First = false;
      OS << toString(E);
    }
    OS << '}';
    break;
  }
  }
  return OS.str();
}

size_t ValueFactory::memoryBytes() const {
  size_t Bytes = 0;
  for (const Shard &S : Shards) {
    // Lock so a concurrently interning solver cannot race this read (the
    // stress path: several solvers sharing one factory).
    auto Lock = lockShard(S);
    Bytes += S.PayloadBytes + S.TagIx.memoryBytes() + S.SeqIx.memoryBytes();
  }
  return Bytes;
}
