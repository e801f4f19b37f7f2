#include "src/corpus/format.h"

#include <cstdint>
#include <fstream>
#include <sstream>
#include <utility>

#include "src/ast/parser.h"
#include "src/util/strings.h"

namespace datalog {
namespace corpus {
namespace {

// Structural sanity bounds enforced by the validating walk. Generous
// for anything the generators emit; small enough that a corrupted
// length field fails fast instead of driving a multi-gigabyte resize.
constexpr std::uint32_t kMaxNames = 1u << 24;
constexpr std::uint32_t kMaxNameBytes = 1u << 20;
constexpr std::uint32_t kMaxRules = 1u << 20;
constexpr std::uint32_t kMaxDisjuncts = 1u << 20;
constexpr std::uint32_t kMaxBodyAtoms = 1u << 16;
constexpr std::uint32_t kMaxArity = 1u << 12;

void PutU32(std::string* out, std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    out->push_back(static_cast<char>((value >> shift) & 0xffu));
  }
}

void PutU64(std::string* out, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    out->push_back(static_cast<char>((value >> shift) & 0xffu));
  }
}

std::uint64_t Fnv1a64Range(const char* data, std::size_t length) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < length; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// Bounds-checked little-endian cursor over a byte range of the file
// image. Every reader-side walk goes through this, so a truncated file
// surfaces as a diagnostic Status naming the offset, never as an
// out-of-range read.
class Cursor {
 public:
  Cursor(const std::string& bytes, std::size_t offset, std::size_t end)
      : bytes_(bytes), offset_(offset), end_(end) {}

  std::size_t offset() const { return offset_; }
  std::size_t remaining() const { return end_ - offset_; }

  Status ReadU32(std::uint32_t* value) {
    if (remaining() < 4) return Truncated("u32");
    std::uint32_t out = 0;
    for (int shift = 0; shift < 32; shift += 8) {
      out |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(bytes_[offset_++]))
             << shift;
    }
    *value = out;
    return OkStatus();
  }

  Status ReadU64(std::uint64_t* value) {
    if (remaining() < 8) return Truncated("u64");
    std::uint64_t out = 0;
    for (int shift = 0; shift < 64; shift += 8) {
      out |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(bytes_[offset_++]))
             << shift;
    }
    *value = out;
    return OkStatus();
  }

  Status ReadBytes(std::size_t length, std::string* out) {
    if (remaining() < length) return Truncated("name bytes");
    out->assign(bytes_, offset_, length);
    offset_ += length;
    return OkStatus();
  }

 private:
  Status Truncated(const char* what) const {
    return InvalidArgumentError(StrCat("corpus: truncated file (need ", what,
                                       " at offset ", offset_, ", ",
                                       remaining(), " bytes remain)"));
  }

  const std::string& bytes_;
  std::size_t offset_;
  std::size_t end_;
};

Status CheckBound(const char* what, std::uint64_t value, std::uint64_t bound,
                  std::size_t offset) {
  if (value > bound) {
    return InvalidArgumentError(StrCat("corpus: implausible ", what, " ",
                                       value, " (limit ", bound,
                                       ") at offset ", offset));
  }
  return OkStatus();
}

Status NameIdOutOfRange(const char* what, std::uint32_t id,
                        std::uint32_t name_count, std::size_t offset) {
  return InvalidArgumentError(StrCat("corpus: ", what, " name id ", id,
                                     " out of range (", name_count,
                                     " names) at offset ", offset));
}

// A predicate (or goal) name must be one the parser reads as a predicate,
// so a decoded instance can name nothing a parsed one cannot — in
// particular no auxiliary relation such as the canonical-database check's
// `__domain`.
Status CheckPredicateName(const char* what, const std::string& name,
                          std::size_t offset) {
  if (IsPredicateName(name)) return OkStatus();
  return InvalidArgumentError(StrCat("corpus: ", what, " name '", name,
                                     "' is not a predicate name the parser "
                                     "reads, at offset ", offset));
}

// Walks one term span; decodes into `*decode` when non-null.
Status WalkTerm(Cursor* cursor, std::uint32_t name_count,
                const std::vector<std::string>* names, Term* decode) {
  std::uint32_t encoded = 0;
  Status status = cursor->ReadU32(&encoded);
  if (!status.ok()) return status;
  std::uint32_t name_id = encoded >> 1;
  if (name_id >= name_count) {
    return NameIdOutOfRange("term", name_id, name_count, cursor->offset());
  }
  if (decode != nullptr) {
    const std::string& name = (*names)[name_id];
    *decode = (encoded & 1u) != 0 ? Term::Variable(name)
                                  : Term::Constant(name);
  }
  return OkStatus();
}

// Walks one atom span, checking name ids against `name_count` and the
// predicate's name. Used by both the validation pass (decode == nullptr)
// and Decode.
Status WalkAtom(Cursor* cursor, std::uint32_t name_count,
                const std::vector<std::string>* names, Atom* decode) {
  std::uint32_t predicate = 0;
  std::uint32_t arity = 0;
  Status status = cursor->ReadU32(&predicate);
  if (!status.ok()) return status;
  if (predicate >= name_count) {
    return NameIdOutOfRange("predicate", predicate, name_count,
                            cursor->offset());
  }
  status = CheckPredicateName("predicate", (*names)[predicate],
                              cursor->offset());
  if (!status.ok()) return status;
  status = cursor->ReadU32(&arity);
  if (!status.ok()) return status;
  status = CheckBound("arity", arity, kMaxArity, cursor->offset());
  if (!status.ok()) return status;
  std::vector<Term> args;
  if (decode != nullptr) args.reserve(arity);
  for (std::uint32_t i = 0; i < arity; ++i) {
    Term term = Term::Constant("");
    status = WalkTerm(cursor, name_count, names,
                      decode != nullptr ? &term : nullptr);
    if (!status.ok()) return status;
    if (decode != nullptr) args.push_back(std::move(term));
  }
  if (decode != nullptr) {
    *decode = Atom((*names)[predicate], std::move(args));
  }
  return OkStatus();
}

// Walks one instance record over the dictionary `names`. With `decode`
// null this is the structural validation pass; with `decode` set it
// rebuilds the instance.
Status WalkInstance(Cursor* cursor, std::uint32_t name_count,
                    const std::vector<std::string>* names,
                    CorpusInstance* decode) {
  std::uint64_t id = 0;
  std::uint32_t flags = 0;
  std::uint32_t goal = 0;
  Status status = cursor->ReadU64(&id);
  if (!status.ok()) return status;
  status = cursor->ReadU32(&flags);
  if (!status.ok()) return status;
  status = cursor->ReadU32(&goal);
  if (!status.ok()) return status;
  if (goal >= name_count) {
    return NameIdOutOfRange("goal", goal, name_count, cursor->offset());
  }
  status = CheckPredicateName("goal", (*names)[goal], cursor->offset());
  if (!status.ok()) return status;
  if (decode != nullptr) {
    decode->id = id;
    decode->flags = flags;
    decode->goal = (*names)[goal];
  }

  std::uint32_t num_rules = 0;
  status = cursor->ReadU32(&num_rules);
  if (!status.ok()) return status;
  status = CheckBound("rule count", num_rules, kMaxRules, cursor->offset());
  if (!status.ok()) return status;
  for (std::uint32_t r = 0; r < num_rules; ++r) {
    std::uint32_t body_count = 0;
    status = cursor->ReadU32(&body_count);
    if (!status.ok()) return status;
    status = CheckBound("body atom count", body_count, kMaxBodyAtoms,
                        cursor->offset());
    if (!status.ok()) return status;
    Atom head("", {});
    status = WalkAtom(cursor, name_count, names,
                      decode != nullptr ? &head : nullptr);
    if (!status.ok()) return status;
    std::vector<Atom> body;
    if (decode != nullptr) body.reserve(body_count);
    for (std::uint32_t b = 0; b < body_count; ++b) {
      Atom atom("", {});
      status = WalkAtom(cursor, name_count, names,
                        decode != nullptr ? &atom : nullptr);
      if (!status.ok()) return status;
      if (decode != nullptr) body.push_back(std::move(atom));
    }
    if (decode != nullptr) {
      decode->program.AddRule(Rule(std::move(head), std::move(body)));
    }
  }

  std::uint32_t num_disjuncts = 0;
  status = cursor->ReadU32(&num_disjuncts);
  if (!status.ok()) return status;
  status = CheckBound("disjunct count", num_disjuncts, kMaxDisjuncts,
                      cursor->offset());
  if (!status.ok()) return status;
  for (std::uint32_t d = 0; d < num_disjuncts; ++d) {
    std::uint32_t head_arity = 0;
    status = cursor->ReadU32(&head_arity);
    if (!status.ok()) return status;
    status = CheckBound("disjunct head arity", head_arity, kMaxArity,
                        cursor->offset());
    if (!status.ok()) return status;
    std::vector<Term> head_args;
    if (decode != nullptr) head_args.reserve(head_arity);
    for (std::uint32_t i = 0; i < head_arity; ++i) {
      Term term = Term::Constant("");
      status = WalkTerm(cursor, name_count, names,
                        decode != nullptr ? &term : nullptr);
      if (!status.ok()) return status;
      if (decode != nullptr) head_args.push_back(std::move(term));
    }
    std::uint32_t body_count = 0;
    status = cursor->ReadU32(&body_count);
    if (!status.ok()) return status;
    status = CheckBound("body atom count", body_count, kMaxBodyAtoms,
                        cursor->offset());
    if (!status.ok()) return status;
    std::vector<Atom> body;
    if (decode != nullptr) body.reserve(body_count);
    for (std::uint32_t b = 0; b < body_count; ++b) {
      Atom atom("", {});
      status = WalkAtom(cursor, name_count, names,
                        decode != nullptr ? &atom : nullptr);
      if (!status.ok()) return status;
      if (decode != nullptr) body.push_back(std::move(atom));
    }
    if (decode != nullptr) {
      decode->theta.Add(
          ConjunctiveQuery(std::move(head_args), std::move(body)));
    }
  }
  return OkStatus();
}

}  // namespace

std::uint64_t Fnv1a64(const std::string& data) {
  return Fnv1a64Range(data.data(), data.size());
}

std::uint32_t CorpusWriter::NameId(const std::string& name) {
  auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  auto id = static_cast<std::uint32_t>(names_.size());
  names_.push_back(name);
  name_ids_.emplace(name, id);
  return id;
}

void CorpusWriter::PutTerm(const Term& term) {
  std::uint32_t encoded = NameId(term.name()) << 1;
  if (term.is_variable()) encoded |= 1u;
  PutU32(&records_, encoded);
}

void CorpusWriter::PutAtom(const Atom& atom) {
  PutU32(&records_, NameId(atom.predicate()));
  PutU32(&records_, static_cast<std::uint32_t>(atom.arity()));
  for (const Term& term : atom.args()) PutTerm(term);
}

void CorpusWriter::Add(const CorpusInstance& instance) {
  PutU64(&records_, instance.id);
  PutU32(&records_, instance.flags);
  PutU32(&records_, NameId(instance.goal));
  PutU32(&records_,
         static_cast<std::uint32_t>(instance.program.rules().size()));
  for (const Rule& rule : instance.program.rules()) {
    PutU32(&records_, static_cast<std::uint32_t>(rule.body().size()));
    PutAtom(rule.head());
    for (const Atom& atom : rule.body()) PutAtom(atom);
  }
  PutU32(&records_, static_cast<std::uint32_t>(instance.theta.size()));
  for (const ConjunctiveQuery& disjunct : instance.theta.disjuncts()) {
    PutU32(&records_, static_cast<std::uint32_t>(disjunct.arity()));
    for (const Term& term : disjunct.head_args()) PutTerm(term);
    PutU32(&records_, static_cast<std::uint32_t>(disjunct.body().size()));
    for (const Atom& atom : disjunct.body()) PutAtom(atom);
  }
  ++count_;
}

std::string CorpusWriter::Serialize() const {
  std::string out;
  PutU32(&out, kCorpusMagic);
  PutU32(&out, kCorpusVersion);
  PutU64(&out, count_);
  PutU32(&out, static_cast<std::uint32_t>(names_.size()));
  PutU32(&out, 0);  // reserved
  for (const std::string& name : names_) {
    PutU32(&out, static_cast<std::uint32_t>(name.size()));
    out.append(name);
  }
  out.append(records_);
  PutU64(&out, Fnv1a64(out));
  return out;
}

Status CorpusWriter::WriteFile(const std::string& path) const {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    return InvalidArgumentError(StrCat("corpus: cannot open ", path,
                                       " for writing"));
  }
  std::string bytes = Serialize();
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  file.flush();
  if (!file) {
    return InternalError(StrCat("corpus: short write to ", path));
  }
  return OkStatus();
}

StatusOr<CorpusReader> CorpusReader::FromBytes(std::string bytes,
                                               FaultInjector* fault) {
  CorpusReader reader;
  reader.bytes_ = std::move(bytes);
  if (fault != nullptr) fault->ApplyReaderFaults(&reader.bytes_);

  // The checksum trailer covers everything before it, so verify it
  // first: any later diagnostic then describes genuine structure, not
  // bit rot.
  if (reader.bytes_.size() < 8) {
    return InvalidArgumentError(
        StrCat("corpus: file too small (", reader.bytes_.size(), " bytes)"));
  }
  std::size_t body_end = reader.bytes_.size() - 8;
  Cursor trailer(reader.bytes_, body_end, reader.bytes_.size());
  std::uint64_t stored_checksum = 0;
  Status status = trailer.ReadU64(&stored_checksum);
  if (!status.ok()) return status;
  std::uint64_t computed = Fnv1a64Range(reader.bytes_.data(), body_end);
  if (stored_checksum != computed) {
    std::ostringstream message;
    message << "corpus: checksum mismatch (stored 0x" << std::hex
            << stored_checksum << ", computed 0x" << computed << ")";
    return InvalidArgumentError(message.str());
  }

  Cursor cursor(reader.bytes_, 0, body_end);
  std::uint32_t magic = 0;
  status = cursor.ReadU32(&magic);
  if (!status.ok()) return status;
  if (magic != kCorpusMagic) {
    std::ostringstream message;
    message << "corpus: bad magic 0x" << std::hex << magic << " (want 0x"
            << kCorpusMagic << ")";
    return InvalidArgumentError(message.str());
  }
  std::uint32_t version = 0;
  status = cursor.ReadU32(&version);
  if (!status.ok()) return status;
  if (version != kCorpusVersion) {
    return InvalidArgumentError(StrCat("corpus: unsupported version ", version,
                                       " (reader supports ", kCorpusVersion,
                                       ")"));
  }
  std::uint64_t instance_count = 0;
  status = cursor.ReadU64(&instance_count);
  if (!status.ok()) return status;
  std::uint32_t name_count = 0;
  status = cursor.ReadU32(&name_count);
  if (!status.ok()) return status;
  status = CheckBound("name count", name_count, kMaxNames, cursor.offset());
  if (!status.ok()) return status;
  std::uint32_t reserved = 0;
  status = cursor.ReadU32(&reserved);
  if (!status.ok()) return status;
  if (reserved != 0) {
    return InvalidArgumentError(
        StrCat("corpus: nonzero reserved header field ", reserved));
  }

  reader.names_.reserve(name_count);
  for (std::uint32_t i = 0; i < name_count; ++i) {
    std::uint32_t length = 0;
    status = cursor.ReadU32(&length);
    if (!status.ok()) return status;
    status = CheckBound("name length", length, kMaxNameBytes, cursor.offset());
    if (!status.ok()) return status;
    std::string name;
    status = cursor.ReadBytes(length, &name);
    if (!status.ok()) return status;
    reader.names_.push_back(std::move(name));
  }

  reader.offsets_.reserve(instance_count);
  for (std::uint64_t i = 0; i < instance_count; ++i) {
    reader.offsets_.push_back(cursor.offset());
    status = WalkInstance(&cursor, name_count, &reader.names_, nullptr);
    if (!status.ok()) {
      return InvalidArgumentError(StrCat("corpus: instance record ", i, ": ",
                                         status.message()));
    }
  }
  if (cursor.remaining() != 0) {
    return InvalidArgumentError(
        StrCat("corpus: ", cursor.remaining(),
               " trailing bytes after the last instance record"));
  }
  return reader;
}

StatusOr<CorpusReader> CorpusReader::Open(const std::string& path,
                                          FaultInjector* fault) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return InvalidArgumentError(StrCat("corpus: cannot open ", path));
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return FromBytes(buffer.str(), fault);
}

StatusOr<CorpusInstance> CorpusReader::Decode(std::size_t index) const {
  if (index >= offsets_.size()) {
    return InvalidArgumentError(StrCat("corpus: instance index ", index,
                                       " out of range (", offsets_.size(),
                                       " instances)"));
  }
  Cursor cursor(bytes_, offsets_[index], bytes_.size() - 8);
  CorpusInstance instance;
  Status status = WalkInstance(
      &cursor, static_cast<std::uint32_t>(names_.size()), &names_, &instance);
  if (!status.ok()) return status;
  return instance;
}

StatusOr<std::vector<CorpusInstance>> CorpusReader::DecodeAll() const {
  std::vector<CorpusInstance> instances;
  instances.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) {
    StatusOr<CorpusInstance> instance = Decode(i);
    if (!instance.ok()) return instance.status();
    instances.push_back(*std::move(instance));
  }
  return instances;
}

}  // namespace corpus
}  // namespace datalog
