// Tests for src/common/cli_args: the strict `--key value` parser the
// CLI and benches share. The regressions pinned here: a trailing flag
// with no value used to be silently dropped (`--samples` at the end of
// the line fell back to the default), and a misspelt flag
// (`--sampels 8`) used to be ignored; both are now UsageErrors.

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "common/cli_args.hpp"

namespace sparsenn {
namespace {

CliArgs parse(std::initializer_list<const char*> argv, int first = 0) {
  std::vector<const char*> v(argv);
  return CliArgs(static_cast<int>(v.size()), v.data(), first);
}

TEST(CliArgs, ParsesKeyValuePairs) {
  const CliArgs args =
      parse({"--samples", "12", "--uv", "off", "--model", "m.bin"});
  EXPECT_EQ(args.get_size("samples", 3), 12u);
  EXPECT_EQ(args.get("uv", "on"), "off");
  EXPECT_EQ(args.get("model", ""), "m.bin");
  EXPECT_TRUE(args.has("samples"));
  EXPECT_FALSE(args.has("threads"));
}

TEST(CliArgs, MissingKeysFallBackToDefaults) {
  const CliArgs args = parse({"--uv", "on"});
  EXPECT_EQ(args.get_size("samples", 7), 7u);
  EXPECT_EQ(args.get("model", "default.bin"), "default.bin");
}

TEST(CliArgs, SkipsLeadingPositionals) {
  // The CLI passes first=2 to skip "prog subcommand".
  const CliArgs args = parse({"prog", "batch", "--threads", "4"},
                             /*first=*/2);
  EXPECT_EQ(args.get_size("threads", 0), 4u);
}

TEST(CliArgs, TrailingFlagWithoutValueIsUsageError) {
  // Regression: this used to silently fall back to the default.
  EXPECT_THROW(parse({"--model", "m.bin", "--samples"}), UsageError);
  EXPECT_THROW(parse({"--samples"}), UsageError);
}

TEST(CliArgs, RejectsMalformedIntegers) {
  EXPECT_THROW(parse({"--samples", "-3"}).get_size("samples", 0),
               UsageError);
  EXPECT_THROW(parse({"--samples", "12x"}).get_size("samples", 0),
               UsageError);
  EXPECT_THROW(parse({"--samples", ""}).get_size("samples", 0),
               UsageError);
  EXPECT_THROW(parse({"--samples", "many"}).get_size("samples", 0),
               UsageError);
}

TEST(CliArgs, RejectsUnknownFlagsByName) {
  const std::string_view known[] = {"model", "samples", "threads"};
  EXPECT_NO_THROW(parse({"--model", "m.bin", "--samples", "8"})
                      .reject_unknown(known));
  EXPECT_NO_THROW(parse({}).reject_unknown(known));
  try {
    parse({"--model", "m.bin", "--sampels", "8", "--threads", "2"})
        .reject_unknown(known);
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find("--sampels"), std::string::npos)
        << e.what();
  }
  // A bare word in flag position is parsed as a key, and unknown too.
  EXPECT_THROW(parse({"samples", "8", "verbose", "1"}).reject_unknown(known),
               UsageError);
}

TEST(CliArgs, UsageErrorIsARuntimeError) {
  // main() catches UsageError before std::exception to exit 2.
  try {
    parse({"--samples"});
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find("--samples"), std::string::npos);
  }
}

}  // namespace
}  // namespace sparsenn
