// Round-trip and rejection tests for the binary corpus format
// (src/corpus/format.h): randomized corpora must serialize and
// deserialize bit-identically (dictionary order, atom spans, flags),
// and truncated or corrupted input must be rejected with a diagnostic
// before any instance decodes.
#include "src/corpus/format.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "src/corpus/generate.h"
#include "src/util/strings.h"
#include "tests/test_util.h"

namespace datalog {
namespace corpus {
namespace {

void ExpectInstancesEqual(const CorpusInstance& want,
                          const CorpusInstance& got) {
  EXPECT_EQ(want.id, got.id);
  EXPECT_EQ(want.flags, got.flags);
  EXPECT_EQ(want.goal, got.goal);
  EXPECT_TRUE(want.program == got.program)
      << "want:\n"
      << want.program.ToString() << "got:\n"
      << got.program.ToString();
  ASSERT_EQ(want.theta.size(), got.theta.size());
  for (std::size_t i = 0; i < want.theta.size(); ++i) {
    EXPECT_TRUE(want.theta.disjuncts()[i] == got.theta.disjuncts()[i])
        << "disjunct " << i << ": want " << want.theta.disjuncts()[i].ToString()
        << " got " << got.theta.disjuncts()[i].ToString();
  }
}

// Serializes, reads back, re-serializes through a fresh writer, and
// requires byte equality plus field equality of every decoded instance.
void ExpectRoundTripBitIdentical(const std::vector<CorpusInstance>& instances) {
  CorpusWriter writer;
  for (const CorpusInstance& instance : instances) writer.Add(instance);
  std::string bytes = writer.Serialize();

  StatusOr<CorpusReader> reader = CorpusReader::FromBytes(bytes);
  ASSERT_TRUE(reader.ok()) << reader.status();
  ASSERT_EQ(reader->size(), instances.size());

  CorpusWriter again;
  for (std::size_t i = 0; i < reader->size(); ++i) {
    StatusOr<CorpusInstance> decoded = reader->Decode(i);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    ExpectInstancesEqual(instances[i], *decoded);
    again.Add(*decoded);
  }
  EXPECT_EQ(bytes, again.Serialize());
}

// A structurally diverse hand-built batch: empty program, empty theta,
// 0-ary atoms, constants, and dictionary-hostile term spellings ('@' and
// '$' prefixed names are meaningful elsewhere in the repo and must
// survive as raw bytes here; predicate names must be ones the parser
// reads, see PredicateNamesMustParse).
std::vector<CorpusInstance> HandBuiltInstances() {
  std::vector<CorpusInstance> instances;

  CorpusInstance tc;
  tc.id = 7;
  tc.flags = kFlagForwardResolved | kFlagForwardContained;
  tc.program = MustParseProgram(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- e(X, Z), p(Z, Y).
  )");
  tc.goal = "p";
  tc.theta.Add(MustParseCq("q(X, Y) :- e(X, Y)."));
  tc.theta.Add(MustParseCq("q(X, Y) :- e(X, Z), e(Z, Y)."));
  instances.push_back(tc);

  CorpusInstance odd;
  odd.id = 0xffffffffffull;
  odd.flags = kFlagInvalid;
  odd.program.AddRule(
      Rule(Atom("w", {}), {Atom("frozen", {Term::Constant("@v0")}),
                           Atom("sym_1", {Term::Variable("$1")})}));
  odd.goal = "w";
  instances.push_back(odd);  // empty theta

  CorpusInstance empty;
  empty.id = 1;
  empty.goal = "nothing";
  empty.theta.Add(ConjunctiveQuery({Term::Variable("X")}, {}));
  instances.push_back(empty);  // empty program, body-free disjunct

  return instances;
}

// Seeded random instances exercising the span walker: random arities,
// variable/constant mixes, shared and fresh names.
std::vector<CorpusInstance> RandomInstances(std::uint64_t seed,
                                            std::size_t count) {
  std::mt19937_64 rng(seed);
  // Term names may be anything; predicate names share the dictionary with
  // them but must be ones the parser reads.
  const std::vector<std::string> names = {"p", "q",  "e",     "edge",
                                          "a", "@c", "weird", "x$y"};
  const std::vector<std::string> predicates = {"p", "q", "e", "edge",
                                               "a", "weird"};
  auto pick_name = [&]() { return names[rng() % names.size()]; };
  auto pick_predicate = [&]() {
    return predicates[rng() % predicates.size()];
  };
  auto random_term = [&]() {
    return rng() % 2 == 0 ? Term::Variable(pick_name())
                          : Term::Constant(pick_name());
  };
  auto random_atom = [&]() {
    std::vector<Term> args;
    std::size_t arity = rng() % 4;
    args.reserve(arity);
    for (std::size_t i = 0; i < arity; ++i) args.push_back(random_term());
    return Atom(pick_predicate(), std::move(args));
  };

  std::vector<CorpusInstance> instances;
  instances.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    CorpusInstance instance;
    instance.id = rng();
    instance.flags = static_cast<std::uint32_t>(rng() & 0x3fu);
    instance.goal = pick_predicate();
    std::size_t num_rules = rng() % 4;
    for (std::size_t r = 0; r < num_rules; ++r) {
      std::vector<Atom> body;
      std::size_t body_count = rng() % 3;
      for (std::size_t b = 0; b < body_count; ++b) {
        body.push_back(random_atom());
      }
      instance.program.AddRule(Rule(random_atom(), std::move(body)));
    }
    std::size_t num_disjuncts = rng() % 3;
    for (std::size_t d = 0; d < num_disjuncts; ++d) {
      std::vector<Term> head;
      std::size_t head_arity = rng() % 3;
      for (std::size_t h = 0; h < head_arity; ++h) {
        head.push_back(random_term());
      }
      std::vector<Atom> body;
      std::size_t body_count = rng() % 3;
      for (std::size_t b = 0; b < body_count; ++b) {
        body.push_back(random_atom());
      }
      instance.theta.Add(ConjunctiveQuery(std::move(head), std::move(body)));
    }
    instances.push_back(std::move(instance));
  }
  return instances;
}

// Rewrites one byte and refreshes the checksum trailer, so the
// corruption reaches the structural validator instead of tripping the
// checksum comparison.
std::string CorruptByteRefreshChecksum(std::string bytes, std::size_t offset,
                                       char value) {
  bytes[offset] = value;
  std::string body = bytes.substr(0, bytes.size() - 8);
  std::uint64_t checksum = Fnv1a64(body);
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[body.size() + i] = static_cast<char>((checksum >> (8 * i)) & 0xffu);
  }
  return bytes;
}

TEST(CorpusFormatTest, HandBuiltRoundTripBitIdentical) {
  ExpectRoundTripBitIdentical(HandBuiltInstances());
}

TEST(CorpusFormatTest, RandomizedRoundTripBitIdentical) {
  for (std::uint64_t seed : {1ull, 42ull, 20260808ull}) {
    ExpectRoundTripBitIdentical(RandomInstances(seed, 60));
  }
}

TEST(CorpusFormatTest, GeneratorCorpusRoundTripBitIdentical) {
  CorpusGenOptions options;
  options.seed = 11;
  options.count = 120;
  ExpectRoundTripBitIdentical(GenerateCorpus(options));
  ExpectRoundTripBitIdentical(GoldenCorpus());
}

TEST(CorpusFormatTest, SameSeedSerializesIdentically) {
  CorpusGenOptions options;
  options.seed = 99;
  options.count = 80;
  CorpusWriter first;
  for (const CorpusInstance& instance : GenerateCorpus(options)) {
    first.Add(instance);
  }
  CorpusWriter second;
  for (const CorpusInstance& instance : GenerateCorpus(options)) {
    second.Add(instance);
  }
  EXPECT_EQ(first.Serialize(), second.Serialize());
}

TEST(CorpusFormatTest, TruncationsRejectedWithDiagnostics) {
  CorpusWriter writer;
  for (const CorpusInstance& instance : HandBuiltInstances()) {
    writer.Add(instance);
  }
  std::string bytes = writer.Serialize();
  for (std::size_t length :
       {std::size_t{0}, std::size_t{4}, std::size_t{9}, bytes.size() / 2,
        bytes.size() - 9, bytes.size() - 1}) {
    StatusOr<CorpusReader> reader =
        CorpusReader::FromBytes(bytes.substr(0, length));
    EXPECT_FALSE(reader.ok()) << "prefix of " << length << " bytes accepted";
    EXPECT_NE(reader.status().message().find("corpus:"), std::string::npos)
        << reader.status();
  }
}

TEST(CorpusFormatTest, CorruptionsRejectedWithDiagnostics) {
  CorpusWriter writer;
  for (const CorpusInstance& instance : HandBuiltInstances()) {
    writer.Add(instance);
  }
  std::string bytes = writer.Serialize();

  // A flipped payload byte without a refreshed trailer is bit rot: the
  // checksum comparison must catch it.
  {
    std::string corrupt = bytes;
    corrupt[corrupt.size() / 2] = static_cast<char>(
        static_cast<unsigned char>(corrupt[corrupt.size() / 2]) ^ 0x5a);
    StatusOr<CorpusReader> reader = CorpusReader::FromBytes(corrupt);
    ASSERT_FALSE(reader.ok());
    EXPECT_NE(reader.status().message().find("checksum mismatch"),
              std::string::npos)
        << reader.status();
  }
  // Bad magic (checksum refreshed so the header check sees it).
  {
    StatusOr<CorpusReader> reader = CorpusReader::FromBytes(
        CorruptByteRefreshChecksum(bytes, 0, 'X'));
    ASSERT_FALSE(reader.ok());
    EXPECT_NE(reader.status().message().find("bad magic"), std::string::npos)
        << reader.status();
  }
  // Unsupported version.
  {
    StatusOr<CorpusReader> reader = CorpusReader::FromBytes(
        CorruptByteRefreshChecksum(bytes, 4, 0x7f));
    ASSERT_FALSE(reader.ok());
    EXPECT_NE(reader.status().message().find("unsupported version"),
              std::string::npos)
        << reader.status();
  }
  // Nonzero reserved field.
  {
    StatusOr<CorpusReader> reader = CorpusReader::FromBytes(
        CorruptByteRefreshChecksum(bytes, 20, 1));
    ASSERT_FALSE(reader.ok());
    EXPECT_NE(reader.status().message().find("reserved"), std::string::npos)
        << reader.status();
  }
  // An implausible dictionary size fails the structural walk with an
  // offset-bearing diagnostic rather than an allocation.
  {
    StatusOr<CorpusReader> reader = CorpusReader::FromBytes(
        CorruptByteRefreshChecksum(bytes, 19, 0x7f));
    ASSERT_FALSE(reader.ok());
    EXPECT_NE(reader.status().message().find("corpus:"), std::string::npos)
        << reader.status();
  }
}

// A corpus encoded by hand, byte by byte: one instance whose body atom
// names the predicate `name`, or whose goal is `name`.
std::string HandEncodedCorpus(const std::string& name, bool as_goal) {
  std::string bytes;
  auto u32 = [&](std::uint32_t v) {
    for (int shift = 0; shift < 32; shift += 8) {
      bytes.push_back(static_cast<char>((v >> shift) & 0xffu));
    }
  };
  auto u64 = [&](std::uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8) {
      bytes.push_back(static_cast<char>((v >> shift) & 0xffu));
    }
  };
  u32(kCorpusMagic);
  u32(kCorpusVersion);
  u64(1);  // instances
  // Dictionary: 0 "p", 1 `name`, 2 "X".
  const std::vector<std::string> names = {"p", name, "X"};
  u32(static_cast<std::uint32_t>(names.size()));
  u32(0);  // reserved
  for (const std::string& n : names) {
    u32(static_cast<std::uint32_t>(n.size()));
    bytes += n;
  }
  // The instance: p(X) :- name(X), goal p (or `name`), no disjuncts.
  const std::uint32_t var_x = (2u << 1) | 1u;
  u64(42);               // id
  u32(0);                // flags
  u32(as_goal ? 1 : 0);  // goal
  u32(1);                // rules
  u32(1);                // body count
  u32(0);                // head: p, arity 1, X
  u32(1);
  u32(var_x);
  u32(as_goal ? 0 : 1);  // body atom: `name` (or p), arity 1, X
  u32(1);
  u32(var_x);
  u32(0);  // disjuncts
  u64(Fnv1a64(bytes));
  return bytes;
}

// Predicate and goal names must be ones the parser reads as predicates,
// so a decoded instance cannot name an auxiliary relation such as the
// canonical-database check's `__domain`, which the parser reads as a
// variable. The same bytes with a parser-readable name decode.
TEST(CorpusFormatTest, PredicateNamesMustParse) {
  StatusOr<CorpusReader> good =
      CorpusReader::FromBytes(HandEncodedCorpus("domain", false));
  ASSERT_TRUE(good.ok()) << good.status();
  StatusOr<CorpusInstance> decoded = good->Decode(0);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->program.ToString(), "p(X) :- domain(X).");
  EXPECT_EQ(decoded->goal, "p");

  for (bool as_goal : {false, true}) {
    for (const std::string& name :
         {std::string("__domain"), std::string("Edge"), std::string("@e"),
          std::string("e-f"), std::string("")}) {
      StatusOr<CorpusReader> reader =
          CorpusReader::FromBytes(HandEncodedCorpus(name, as_goal));
      ASSERT_FALSE(reader.ok()) << "'" << name << "' accepted";
      EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(reader.status().message().find(
                    StrCat(as_goal ? "goal" : "predicate", " name '", name,
                           "' is not a predicate name")),
                std::string::npos)
          << reader.status();
    }
  }
}

TEST(CorpusFormatTest, DecodeOutOfRangeRejected) {
  CorpusWriter writer;
  writer.Add(HandBuiltInstances()[0]);
  StatusOr<CorpusReader> reader = CorpusReader::FromBytes(writer.Serialize());
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_FALSE(reader->Decode(1).ok());
}

TEST(CorpusFormatTest, EmptyCorpusRoundTrips) {
  ExpectRoundTripBitIdentical({});
}

}  // namespace
}  // namespace corpus
}  // namespace datalog
