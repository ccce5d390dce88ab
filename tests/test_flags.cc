#include "common/flags.h"

#include <gtest/gtest.h>

namespace cad {
namespace {

std::vector<char*> MakeArgv(std::vector<std::string>& storage) {
  std::vector<char*> argv;
  argv.reserve(storage.size());
  for (std::string& arg : storage) argv.push_back(arg.data());
  return argv;
}

TEST(FlagParserTest, ParsesEqualsForm) {
  FlagParser flags;
  int64_t trials = 10;
  double rate = 0.5;
  std::string name = "default";
  bool verbose = false;
  flags.AddInt64("trials", &trials, "");
  flags.AddDouble("rate", &rate, "");
  flags.AddString("name", &name, "");
  flags.AddBool("verbose", &verbose, "");

  std::vector<std::string> storage = {"prog", "--trials=20", "--rate=0.25",
                                      "--name=run1", "--verbose=true"};
  auto argv = MakeArgv(storage);
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_EQ(trials, 20);
  EXPECT_DOUBLE_EQ(rate, 0.25);
  EXPECT_EQ(name, "run1");
  EXPECT_TRUE(verbose);
}

TEST(FlagParserTest, ParsesSpaceSeparatedForm) {
  FlagParser flags;
  int64_t n = 0;
  flags.AddInt64("n", &n, "");
  std::vector<std::string> storage = {"prog", "--n", "123"};
  auto argv = MakeArgv(storage);
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_EQ(n, 123);
}

TEST(FlagParserTest, BareBooleanSetsTrue) {
  FlagParser flags;
  bool full = false;
  flags.AddBool("full", &full, "");
  std::vector<std::string> storage = {"prog", "--full"};
  auto argv = MakeArgv(storage);
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_TRUE(full);
}

TEST(FlagParserTest, BooleanFalseForms) {
  FlagParser flags;
  bool opt = true;
  flags.AddBool("opt", &opt, "");
  std::vector<std::string> storage = {"prog", "--opt=false"};
  auto argv = MakeArgv(storage);
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_FALSE(opt);
}

TEST(FlagParserTest, RejectsUnknownFlag) {
  FlagParser flags;
  std::vector<std::string> storage = {"prog", "--mystery=1"};
  auto argv = MakeArgv(storage);
  EXPECT_EQ(flags.Parse(static_cast<int>(argv.size()), argv.data()).code(),
            StatusCode::kNotFound);
}

TEST(FlagParserTest, RejectsPositionalArgument) {
  FlagParser flags;
  std::vector<std::string> storage = {"prog", "stray"};
  auto argv = MakeArgv(storage);
  EXPECT_FALSE(flags.Parse(static_cast<int>(argv.size()), argv.data()).ok());
}

TEST(FlagParserTest, RejectsMalformedValue) {
  FlagParser flags;
  int64_t n = 0;
  flags.AddInt64("n", &n, "");
  std::vector<std::string> storage = {"prog", "--n=notanumber"};
  auto argv = MakeArgv(storage);
  EXPECT_FALSE(flags.Parse(static_cast<int>(argv.size()), argv.data()).ok());
}

TEST(FlagParserTest, MissingValueForNonBool) {
  FlagParser flags;
  int64_t n = 0;
  flags.AddInt64("n", &n, "");
  std::vector<std::string> storage = {"prog", "--n"};
  auto argv = MakeArgv(storage);
  EXPECT_FALSE(flags.Parse(static_cast<int>(argv.size()), argv.data()).ok());
}

TEST(FlagParserTest, HelpRequested) {
  FlagParser flags;
  int64_t n = 5;
  flags.AddInt64("n", &n, "node count");
  std::vector<std::string> storage = {"prog", "--help"};
  auto argv = MakeArgv(storage);
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_TRUE(flags.help_requested());
  EXPECT_NE(flags.Usage().find("node count"), std::string::npos);
  EXPECT_NE(flags.Usage().find("default: 5"), std::string::npos);
}

TEST(FlagParserTest, EmptyArgvIsOk) {
  FlagParser flags;
  std::vector<std::string> storage = {"prog"};
  auto argv = MakeArgv(storage);
  EXPECT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_FALSE(flags.help_requested());
}

Status ParseArgs(FlagParser* flags, std::vector<std::string> storage) {
  storage.insert(storage.begin(), "prog");
  auto argv = MakeArgv(storage);
  return flags->Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagParserTest, CountBindsUnsignedFields) {
  FlagParser flags;
  size_t k = 50;
  uint64_t seed = 1;
  flags.AddCount("k", &k, "");
  flags.AddCount("seed", &seed, "");
  ASSERT_TRUE(ParseArgs(&flags, {"--k", "8", "--seed=0"}).ok());
  EXPECT_EQ(k, 8u);
  EXPECT_EQ(seed, 0u);
}

TEST(FlagParserTest, CountRejectsNegativeOrNonIntegerNamingTheFlag) {
  for (const std::string value : {"-1", "1.5", "abc", "", "9e99"}) {
    FlagParser flags;
    size_t warmup = 2;
    flags.AddCount("warmup", &warmup, "");
    const Status parsed = ParseArgs(&flags, {"--warmup=" + value});
    ASSERT_FALSE(parsed.ok()) << value;
    EXPECT_EQ(parsed.code(), StatusCode::kInvalidArgument) << value;
    EXPECT_NE(parsed.message().find("--warmup"), std::string::npos)
        << parsed.ToString();
    EXPECT_EQ(warmup, 2u) << "a rejected value must not be stored";
  }
}

TEST(FlagParserTest, CountEnforcesItsMinimum) {
  FlagParser flags;
  size_t threads = 4;
  flags.AddCount("threads", &threads, "", 1);
  const Status zero = ParseArgs(&flags, {"--threads", "0"});
  ASSERT_FALSE(zero.ok());
  EXPECT_NE(zero.message().find(">= 1"), std::string::npos) << zero;
  ASSERT_TRUE(ParseArgs(&flags, {"--threads", "1"}).ok());
  EXPECT_EQ(threads, 1u);
}

TEST(FlagParserTest, CountWithStoreWritesEveryField) {
  FlagParser flags;
  size_t a = 3;
  size_t b = 3;
  flags.AddCount("threads", a, "", 1, [&](uint64_t value) {
    a = value;
    b = value;
  });
  ASSERT_TRUE(ParseArgs(&flags, {"--threads=2"}).ok());
  EXPECT_EQ(a, 2u);
  EXPECT_EQ(b, 2u);
  EXPECT_NE(flags.Usage().find("--threads (default: 3)"), std::string::npos);
}

enum class Fruit { kApple, kPear, kPlum };

TEST(FlagParserTest, ChoiceBindsAnEnum) {
  FlagParser flags;
  Fruit fruit = Fruit::kApple;
  flags.AddChoice("fruit", &fruit,
                  {{"apple", Fruit::kApple},
                   {"pear", Fruit::kPear},
                   {"plum", Fruit::kPlum}},
                  "");
  ASSERT_TRUE(ParseArgs(&flags, {"--fruit", "plum"}).ok());
  EXPECT_EQ(fruit, Fruit::kPlum);
  ASSERT_TRUE(ParseArgs(&flags, {"--fruit=pear"}).ok());
  EXPECT_EQ(fruit, Fruit::kPear);
}

TEST(FlagParserTest, ChoiceRejectsUnknownNameListingTheAllowedOnes) {
  FlagParser flags;
  Fruit fruit = Fruit::kPear;
  flags.AddChoice("fruit", &fruit,
                  {{"apple", Fruit::kApple}, {"pear", Fruit::kPear}}, "");
  const Status parsed = ParseArgs(&flags, {"--fruit", "Apple"});
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.message().find("--fruit 'Apple'"), std::string::npos)
      << parsed;
  EXPECT_NE(parsed.message().find("apple, pear"), std::string::npos)
      << parsed;
  EXPECT_EQ(fruit, Fruit::kPear);
}

TEST(FlagParserTest, UsageShowsCountAndChoiceDefaults) {
  FlagParser flags;
  size_t k = 50;
  Fruit fruit = Fruit::kPear;
  flags.AddCount("k", &k, "embedding dimension");
  flags.AddChoice("fruit", &fruit,
                  {{"apple", Fruit::kApple}, {"pear", Fruit::kPear}},
                  "which fruit");
  const std::string usage = flags.Usage();
  EXPECT_NE(usage.find("  --k (default: 50)  embedding dimension\n"),
            std::string::npos)
      << usage;
  EXPECT_NE(usage.find("  --fruit (default: pear)  which fruit\n"),
            std::string::npos)
      << usage;
}

}  // namespace
}  // namespace cad
