#include "storage/codec.h"

#include "util/numeric.h"

namespace verso {

namespace {

// Value tags.
constexpr uint8_t kTagSymbol = 0;
constexpr uint8_t kTagNumber = 1;
constexpr uint8_t kTagString = 2;

void EncodeOid(BufferWriter& writer, Oid oid, const SymbolTable& symbols) {
  switch (symbols.kind(oid)) {
    case OidKind::kSymbol:
      writer.Byte(kTagSymbol);
      writer.Str(symbols.SymbolName(oid));
      break;
    case OidKind::kNumber: {
      writer.Byte(kTagNumber);
      const Numeric& n = symbols.NumberValue(oid);
      writer.ZigZag(n.numerator());
      writer.Varint(static_cast<uint64_t>(n.denominator()));
      break;
    }
    case OidKind::kString:
      writer.Byte(kTagString);
      writer.Str(symbols.StringValue(oid));
      break;
  }
}

Result<Oid> DecodeOid(BufferReader& reader, SymbolTable& symbols) {
  VERSO_ASSIGN_OR_RETURN(uint8_t tag, reader.Byte());
  switch (tag) {
    case kTagSymbol: {
      VERSO_ASSIGN_OR_RETURN(std::string name, reader.Str());
      return symbols.Symbol(name);
    }
    case kTagNumber: {
      VERSO_ASSIGN_OR_RETURN(int64_t num, reader.ZigZag());
      VERSO_ASSIGN_OR_RETURN(uint64_t den, reader.Varint());
      if (den == 0 || den > static_cast<uint64_t>(INT64_MAX)) {
        return Status::Corruption("codec: invalid denominator");
      }
      VERSO_ASSIGN_OR_RETURN(
          Numeric value,
          Numeric::FromRatio(num, static_cast<int64_t>(den)));
      return symbols.Number(value);
    }
    case kTagString: {
      VERSO_ASSIGN_OR_RETURN(std::string text, reader.Str());
      return symbols.String(text);
    }
    default:
      return Status::Corruption("codec: unknown value tag " +
                                std::to_string(tag));
  }
}

}  // namespace

void BufferWriter::Varint(uint64_t v) {
  while (v >= 0x80) {
    Byte(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  Byte(static_cast<uint8_t>(v));
}

void BufferWriter::ZigZag(int64_t v) {
  Varint((static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63));
}

void BufferWriter::Str(std::string_view s) {
  Varint(s.size());
  out_.append(s.data(), s.size());
}

Result<uint8_t> BufferReader::Byte() {
  if (pos_ >= data_.size()) {
    return Status::Corruption("codec: truncated buffer");
  }
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<uint64_t> BufferReader::Varint() {
  uint64_t value = 0;
  int shift = 0;
  while (true) {
    VERSO_ASSIGN_OR_RETURN(uint8_t byte, Byte());
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
    if (shift >= 64) return Status::Corruption("codec: varint too long");
  }
}

Result<int64_t> BufferReader::ZigZag() {
  VERSO_ASSIGN_OR_RETURN(uint64_t raw, Varint());
  return static_cast<int64_t>((raw >> 1) ^ (~(raw & 1) + 1));
}

Result<std::string> BufferReader::Str() {
  VERSO_ASSIGN_OR_RETURN(uint64_t length, Varint());
  if (length > remaining()) {
    return Status::Corruption("codec: string overruns buffer");
  }
  std::string out(data_.substr(pos_, length));
  pos_ += length;
  return out;
}

void EncodeFact(BufferWriter& writer, Vid vid, MethodId method,
                const GroundApp& app, const SymbolTable& symbols,
                const VersionTable& versions) {
  // Version: functor chain depth, ops outermost-first, then the root OID.
  writer.Varint(versions.depth(vid));
  const std::vector<UpdateKind>& ops = versions.ShapeOps(versions.shape(vid));
  for (UpdateKind op : ops) writer.Byte(static_cast<uint8_t>(op));
  EncodeOid(writer, versions.root(vid), symbols);
  writer.Str(symbols.MethodName(method));
  writer.Varint(app.args.size());
  for (Oid arg : app.args) EncodeOid(writer, arg, symbols);
  EncodeOid(writer, app.result, symbols);
}

Result<DecodedFact> DecodeFact(BufferReader& reader, SymbolTable& symbols,
                               VersionTable& versions) {
  VERSO_ASSIGN_OR_RETURN(uint64_t depth, reader.Varint());
  if (depth > 1024) {
    return Status::Corruption("codec: implausible version depth");
  }
  std::vector<UpdateKind> ops;
  ops.reserve(depth);
  for (uint64_t i = 0; i < depth; ++i) {
    VERSO_ASSIGN_OR_RETURN(uint8_t op, reader.Byte());
    if (op > 2) return Status::Corruption("codec: bad update functor");
    ops.push_back(static_cast<UpdateKind>(op));
  }
  VERSO_ASSIGN_OR_RETURN(Oid root, DecodeOid(reader, symbols));
  Vid vid = versions.OfOid(root);
  for (auto it = ops.rbegin(); it != ops.rend(); ++it) {
    vid = versions.Child(vid, *it);
  }
  VERSO_ASSIGN_OR_RETURN(std::string method_name, reader.Str());
  DecodedFact fact;
  fact.vid = vid;
  fact.method = symbols.Method(method_name);
  VERSO_ASSIGN_OR_RETURN(uint64_t argc, reader.Varint());
  if (argc > reader.remaining()) {
    return Status::Corruption("codec: implausible arg count");
  }
  fact.app.args.reserve(argc);
  for (uint64_t i = 0; i < argc; ++i) {
    VERSO_ASSIGN_OR_RETURN(Oid arg, DecodeOid(reader, symbols));
    fact.app.args.push_back(arg);
  }
  VERSO_ASSIGN_OR_RETURN(fact.app.result, DecodeOid(reader, symbols));
  return fact;
}

std::string EncodeVersionKey(Vid vid, const SymbolTable& symbols,
                             const VersionTable& versions) {
  BufferWriter writer;
  writer.Varint(versions.depth(vid));
  const std::vector<UpdateKind>& ops = versions.ShapeOps(versions.shape(vid));
  for (UpdateKind op : ops) writer.Byte(static_cast<uint8_t>(op));
  EncodeOid(writer, versions.root(vid), symbols);
  return writer.Take();
}

std::string EncodeVersionRecord(Vid vid, const VersionState& state,
                                const SymbolTable& symbols,
                                const VersionTable& versions) {
  BufferWriter writer;
  writer.Varint(state.fact_count());
  for (const auto& [method, apps] : state.methods()) {
    for (const GroundApp& app : apps) {
      EncodeFact(writer, vid, method, app, symbols, versions);
    }
  }
  return writer.Take();
}

Status DecodeVersionRecordInto(std::string_view data, SymbolTable& symbols,
                               VersionTable& versions, ObjectBase& base) {
  BufferReader reader(data);
  VERSO_ASSIGN_OR_RETURN(uint64_t count, reader.Varint());
  for (uint64_t i = 0; i < count; ++i) {
    VERSO_ASSIGN_OR_RETURN(DecodedFact fact,
                           DecodeFact(reader, symbols, versions));
    base.Insert(fact.vid, fact.method, std::move(fact.app));
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("version record has trailing bytes");
  }
  return Status::Ok();
}

FactDelta ComputeDelta(const ObjectBase& before, const ObjectBase& after) {
  // Structural sharing makes this O(changed state): a version whose state
  // handle both bases share — and, below that, a method whose application
  // storage both states share — cannot contribute a delta fact, so whole
  // subtrees of the comparison are skipped by pointer equality. Bases
  // that share nothing degrade to the original per-fact membership scan.
  FactDelta delta;
  for (const auto& [vid, state] : after.versions()) {
    const VersionState* other = before.StateOf(vid);
    if (other == state.get()) continue;  // shared state: unchanged
    for (const auto& [method, apps] : state->methods()) {
      if (other != nullptr) {
        const SharedApps* shared = other->FindShared(method);
        if (shared != nullptr && SharesStorage(*shared, apps)) continue;
      }
      for (const GroundApp& app : apps) {
        if (other == nullptr || !other->ContainsApp(method, app)) {
          delta.added.push_back({vid, method, app});
        }
      }
    }
  }
  for (const auto& [vid, state] : before.versions()) {
    const VersionState* other = after.StateOf(vid);
    if (other == state.get()) continue;
    for (const auto& [method, apps] : state->methods()) {
      if (other != nullptr) {
        const SharedApps* shared = other->FindShared(method);
        if (shared != nullptr && SharesStorage(*shared, apps)) continue;
      }
      for (const GroundApp& app : apps) {
        if (other == nullptr || !other->ContainsApp(method, app)) {
          delta.removed.push_back({vid, method, app});
        }
      }
    }
  }
  return delta;
}

void ApplyDelta(const FactDelta& delta, ObjectBase& base) {
  for (const DecodedFact& fact : delta.removed) {
    base.Erase(fact.vid, fact.method, fact.app);
  }
  for (const DecodedFact& fact : delta.added) {
    base.Insert(fact.vid, fact.method, fact.app);
  }
}

namespace {

void EncodeDeltaInto(BufferWriter& writer, const FactDelta& delta,
                     const SymbolTable& symbols,
                     const VersionTable& versions) {
  writer.Varint(delta.added.size());
  for (const DecodedFact& fact : delta.added) {
    EncodeFact(writer, fact.vid, fact.method, fact.app, symbols, versions);
  }
  writer.Varint(delta.removed.size());
  for (const DecodedFact& fact : delta.removed) {
    EncodeFact(writer, fact.vid, fact.method, fact.app, symbols, versions);
  }
}

Result<FactDelta> DecodeDeltaFrom(BufferReader& reader, SymbolTable& symbols,
                                  VersionTable& versions) {
  FactDelta delta;
  VERSO_ASSIGN_OR_RETURN(uint64_t added, reader.Varint());
  for (uint64_t i = 0; i < added; ++i) {
    VERSO_ASSIGN_OR_RETURN(DecodedFact fact,
                           DecodeFact(reader, symbols, versions));
    delta.added.push_back(std::move(fact));
  }
  VERSO_ASSIGN_OR_RETURN(uint64_t removed, reader.Varint());
  for (uint64_t i = 0; i < removed; ++i) {
    VERSO_ASSIGN_OR_RETURN(DecodedFact fact,
                           DecodeFact(reader, symbols, versions));
    delta.removed.push_back(std::move(fact));
  }
  return delta;
}

}  // namespace

std::string EncodeDeltaBatch(const std::vector<FactDelta>& deltas,
                             const SymbolTable& symbols,
                             const VersionTable& versions) {
  BufferWriter writer;
  writer.Varint(deltas.size());
  for (const FactDelta& delta : deltas) {
    EncodeDeltaInto(writer, delta, symbols, versions);
  }
  return writer.Take();
}

std::string EncodeDeltaBatch(const FactDelta& delta,
                             const SymbolTable& symbols,
                             const VersionTable& versions) {
  BufferWriter writer;
  writer.Varint(1);
  EncodeDeltaInto(writer, delta, symbols, versions);
  return writer.Take();
}

Result<std::vector<FactDelta>> DecodeDeltaBatch(std::string_view data,
                                                SymbolTable& symbols,
                                                VersionTable& versions) {
  BufferReader reader(data);
  VERSO_ASSIGN_OR_RETURN(uint64_t count, reader.Varint());
  if (count > data.size()) {
    return Status::Corruption("codec: implausible batch transaction count");
  }
  std::vector<FactDelta> deltas;
  deltas.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    VERSO_ASSIGN_OR_RETURN(FactDelta delta,
                           DecodeDeltaFrom(reader, symbols, versions));
    deltas.push_back(std::move(delta));
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("batch payload has trailing bytes");
  }
  return deltas;
}

DeltaLog ToDeltaLog(const FactDelta& delta) {
  DeltaLog log;
  log.reserve(delta.added.size() + delta.removed.size());
  for (const DecodedFact& fact : delta.removed) {
    log.push_back({fact.vid, fact.method, fact.app, /*added=*/false});
  }
  for (const DecodedFact& fact : delta.added) {
    log.push_back({fact.vid, fact.method, fact.app, /*added=*/true});
  }
  return log;
}

}  // namespace verso
