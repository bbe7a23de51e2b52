// Tests for the tool-facing utilities: the flag parser and the decision trace
// writer/reader round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "src/pipeline/trace.h"
#include "src/platform/device.h"
#include "src/util/flags.h"

namespace litereconfig {
namespace {

std::vector<const char*> Argv(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"tool"};
  argv.insert(argv.end(), args.begin(), args.end());
  return argv;
}

TEST(FlagSetTest, DefaultsApply) {
  FlagSet flags("test");
  flags.Define("device", "tx2", "device");
  flags.Define("slo", "33.3", "objective");
  auto argv = Argv({});
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(flags.GetString("device"), "tx2");
  EXPECT_DOUBLE_EQ(flags.GetDouble("slo"), 33.3);
}

TEST(FlagSetTest, EqualsAndSpaceSyntax) {
  FlagSet flags("test");
  flags.Define("device", "tx2", "device");
  flags.Define("slo", "33.3", "objective");
  auto argv = Argv({"--device=xavier", "--slo", "50"});
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(flags.GetString("device"), "xavier");
  EXPECT_DOUBLE_EQ(flags.GetDouble("slo"), 50.0);
}

TEST(FlagSetTest, BooleanFlagWithoutValue) {
  FlagSet flags("test");
  flags.Define("verbose", "false", "chatty");
  auto argv = Argv({"--verbose"});
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(flags.GetString("verbose"), "true");
}

TEST(FlagSetTest, UnknownFlagFails) {
  FlagSet flags("test");
  flags.Define("device", "tx2", "device");
  auto argv = Argv({"--nope=1"});
  EXPECT_FALSE(flags.Parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_FALSE(flags.help_requested());
  EXPECT_NE(flags.error().find("nope"), std::string::npos);
}

TEST(FlagSetTest, HelpRequested) {
  FlagSet flags("test");
  auto argv = Argv({"--help"});
  EXPECT_FALSE(flags.Parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_TRUE(flags.help_requested());
}

TEST(FlagSetTest, MissingValueFails) {
  FlagSet flags("test");
  flags.Define("slo", "33.3", "objective");
  auto argv = Argv({"--slo"});
  EXPECT_FALSE(flags.Parse(static_cast<int>(argv.size()), argv.data()));
}

TEST(FlagSetTest, PositionalArguments) {
  FlagSet flags("test");
  flags.Define("top", "5", "top");
  auto argv = Argv({"trace.jsonl", "--top=3", "extra"});
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()));
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "trace.jsonl");
  EXPECT_EQ(flags.positional()[1], "extra");
  EXPECT_EQ(flags.GetInt("top"), 3);
}

TEST(FlagSetTest, PrintHelpListsFlags) {
  FlagSet flags("my tool");
  flags.Define("device", "tx2", "target device");
  std::ostringstream os;
  flags.PrintHelp(os);
  EXPECT_NE(os.str().find("my tool"), std::string::npos);
  EXPECT_NE(os.str().find("--device"), std::string::npos);
  EXPECT_NE(os.str().find("target device"), std::string::npos);
}

// One flag set to `value`, for the getter tests below.
FlagSet OneFlag(const char* name, const char* value) {
  FlagSet flags("test");
  flags.Define(name, "0", "flag");
  std::string arg = std::string("--") + name + "=" + value;
  auto argv = Argv({arg.c_str()});
  EXPECT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()));
  return flags;
}

TEST(FlagSetTest, SeedsAreReadAsUint64) {
  // Read through int, 2^32 + 1 would run seed 1.
  FlagSet flags = OneFlag("fault_seed", "4294967297");
  EXPECT_EQ(flags.GetUint64("fault_seed"), 4294967297ull);
  EXPECT_TRUE(flags.ok());
  EXPECT_EQ(OneFlag("seed", "18446744073709551615").GetUint64("seed"),
            18446744073709551615ull);
}

TEST(FlagSetTest, DoubleMustParseWhole) {
  // A prefix parse would stop at the comma and run at 33 ms.
  FlagSet flags = OneFlag("lat_req", "33,3");
  EXPECT_EQ(flags.GetDouble("lat_req"), 0.0);
  EXPECT_FALSE(flags.ok());
  EXPECT_NE(flags.error().find("--lat_req"), std::string::npos);
  EXPECT_NE(flags.error().find("33,3"), std::string::npos);
}

TEST(FlagSetTest, IntMustParseWhole) {
  // A prefix parse would read 0, which runs the whole validation set.
  FlagSet flags = OneFlag("videos", "abc");
  EXPECT_EQ(flags.GetInt("videos"), 0);
  EXPECT_FALSE(flags.ok());
  EXPECT_NE(flags.error().find("--videos"), std::string::npos);
}

TEST(FlagSetTest, NumericGettersRejectOutOfRangeAndMalformedValues) {
  for (const char* value : {"4294967296", "2147483648", "-2147483649", "12abc", "",
                            " 5", "1.5", "0x10"}) {
    FlagSet flags = OneFlag("n", value);
    flags.GetInt("n");
    EXPECT_FALSE(flags.ok()) << "int '" << value << "'";
  }
  for (const char* value : {"-1", "18446744073709551616", "1e3", "", "+1"}) {
    FlagSet flags = OneFlag("seed", value);
    flags.GetUint64("seed");
    EXPECT_FALSE(flags.ok()) << "uint64 '" << value << "'";
  }
  for (const char* value : {"1e999", "nan", "inf", "-inf", "", " 1", "33.3ms"}) {
    FlagSet flags = OneFlag("slo", value);
    flags.GetDouble("slo");
    EXPECT_FALSE(flags.ok()) << "double '" << value << "'";
  }
  EXPECT_EQ(OneFlag("n", "-7").GetInt("n"), -7);
  EXPECT_EQ(OneFlag("n", "2147483647").GetInt("n"), 2147483647);
  EXPECT_EQ(OneFlag("slo", "-2.5e1").GetDouble("slo"), -25.0);
}

TEST(FlagSetTest, FirstRejectedValueIsTheError) {
  FlagSet flags("test");
  flags.Define("a", "x", "a");
  flags.Define("b", "y", "b");
  auto argv = Argv({});
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()));
  flags.GetInt("a");
  flags.GetDouble("b");
  EXPECT_NE(flags.error().find("--a"), std::string::npos);
  std::ostringstream help;
  flags.PrintHelp(help);
  EXPECT_NE(help.str().find("error: flag --a"), std::string::npos);
}

TEST(FlagSetTest, DeviceNamesAreExact) {
  EXPECT_EQ(DeviceTypeFromName("tx2"), DeviceType::kTx2);
  EXPECT_EQ(DeviceTypeFromName("xavier"), DeviceType::kXavier);
  // A case or spelling slip must not fall back to TX2.
  for (const char* name : {"Xavier", "TX2", "xavier ", "nano", ""}) {
    EXPECT_FALSE(DeviceTypeFromName(name).has_value()) << name;
  }
}

// Every default litereconfig_run, serve_run and trace_summary declare parses
// through the getter the tool reads it with.
TEST(FlagSetTest, ToolDefaultsParse) {
  struct Default {
    const char* name;
    const char* value;
    char kind;  // 'i' int, 'u' uint64, 'd' double
  };
  const Default kDefaults[] = {
      {"lat_req", "33.3", 'd'}, {"gl", "0", 'd'},        {"videos", "0", 'i'},
      {"run_salt", "1", 'u'},   {"threads", "0", 'i'},   {"fault_seed", "1", 'u'},
      {"degrade", "1", 'i'},    {"predictive", "0", 'i'}, {"cpu_family", "0", 'i'},
      {"streams", "8", 'i'},    {"arrival_seed", "1", 'u'}, {"frames", "120", 'i'},
      {"slo", "33.3", 'd'},     {"interarrival", "2", 'd'}, {"capacity", "0.9", 'd'},
      {"max_streams", "16", 'i'}, {"top", "12", 'i'},
  };
  FlagSet flags("defaults");
  for (const Default& d : kDefaults) {
    flags.Define(d.name, d.value, "default");
  }
  auto argv = Argv({});
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()));
  for (const Default& d : kDefaults) {
    double value = d.kind == 'i'   ? flags.GetInt(d.name)
                   : d.kind == 'u' ? static_cast<double>(flags.GetUint64(d.name))
                                   : flags.GetDouble(d.name);
    EXPECT_EQ(value, std::stod(d.value)) << d.name;
  }
  EXPECT_TRUE(flags.ok()) << flags.error();
  EXPECT_EQ(DeviceTypeFromName("tx2"), DeviceType::kTx2);
}

DecisionRecord SampleRecord() {
  DecisionRecord record;
  record.video_seed = 12345;
  record.frame = 40;
  record.branch_id = "s448_n100_g8_kcf_ds2";
  record.features = {"HoC", "ResNet50"};
  record.predicted_accuracy = 0.6123;
  record.predicted_frame_ms = 21.5;
  record.scheduler_cost_ms = 4.2;
  record.switch_cost_ms = 6.75;
  record.actual_frame_ms = 23.875;
  record.gof_length = 8;
  record.switched = true;
  record.infeasible = false;
  record.gpu_cal = 1.7423;
  return record;
}

TEST(TraceTest, WriterEmitsOneLinePerRecord) {
  std::ostringstream os;
  TraceWriter writer(os);
  writer.Write(SampleRecord());
  writer.Write(SampleRecord());
  EXPECT_EQ(writer.count(), 2u);
  // Records are buffered per video until Flush.
  EXPECT_TRUE(os.str().empty());
  writer.Flush();
  std::string out = os.str();
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
}

TEST(TraceTest, RoundTripPreservesFields) {
  std::ostringstream os;
  TraceWriter writer(os);
  DecisionRecord original = SampleRecord();
  writer.Write(original);
  writer.Flush();
  std::istringstream is(os.str());
  std::optional<std::vector<DecisionRecord>> records =
      TraceReader::ReadAllStrict(is, nullptr);
  ASSERT_TRUE(records.has_value());
  ASSERT_EQ(records->size(), 1u);
  const DecisionRecord& record = (*records)[0];
  EXPECT_EQ(record.video_seed, original.video_seed);
  EXPECT_EQ(record.frame, original.frame);
  EXPECT_EQ(record.branch_id, original.branch_id);
  EXPECT_EQ(record.features, original.features);
  EXPECT_NEAR(record.predicted_accuracy, original.predicted_accuracy, 1e-3);
  EXPECT_NEAR(record.predicted_frame_ms, original.predicted_frame_ms, 1e-3);
  EXPECT_NEAR(record.scheduler_cost_ms, original.scheduler_cost_ms, 1e-3);
  EXPECT_NEAR(record.switch_cost_ms, original.switch_cost_ms, 1e-3);
  EXPECT_NEAR(record.actual_frame_ms, original.actual_frame_ms, 1e-3);
  EXPECT_EQ(record.gof_length, original.gof_length);
  EXPECT_TRUE(record.switched);
  EXPECT_FALSE(record.infeasible);
  EXPECT_NEAR(record.gpu_cal, original.gpu_cal, 1e-3);
}

TEST(TraceTest, EmptyFeaturesRoundTrip) {
  std::ostringstream os;
  TraceWriter writer(os);
  DecisionRecord record = SampleRecord();
  record.features.clear();
  writer.Write(record);
  writer.Flush();
  std::istringstream is(os.str());
  std::optional<std::vector<DecisionRecord>> records =
      TraceReader::ReadAllStrict(is, nullptr);
  ASSERT_TRUE(records.has_value());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_TRUE((*records)[0].features.empty());
}

TEST(TraceTest, ParseLineRejectsMissingCoreFields) {
  EXPECT_FALSE(TraceReader::ParseLine("{\"video\":1,\"frame\":2}").has_value());
}

TEST(TraceTest, StrictReaderAcceptsCleanTraceWithBlankLines) {
  std::ostringstream os;
  TraceWriter writer(os);
  writer.Write(SampleRecord());
  writer.Write(SampleRecord());
  writer.Flush();
  std::istringstream is(os.str() + "\n  \n");
  std::string error;
  auto records = TraceReader::ReadAllStrict(is, &error);
  ASSERT_TRUE(records.has_value()) << error;
  EXPECT_EQ(records->size(), 2u);
  EXPECT_TRUE(error.empty());
}

TEST(TraceTest, StrictReaderFailsOnMalformedLineWithLineNumber) {
  std::ostringstream os;
  TraceWriter writer(os);
  writer.Write(SampleRecord());
  writer.Flush();
  std::istringstream is(os.str() + "garbage that is not json\n");
  std::string error;
  auto records = TraceReader::ReadAllStrict(is, &error);
  EXPECT_FALSE(records.has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("garbage"), std::string::npos) << error;
}

TEST(TraceTest, StrictReaderFailsOnTruncatedRecord) {
  // A record missing its core fields is corruption, not data to skip.
  std::istringstream is("{\"video\":1,\"frame\":2}\n");
  std::string error;
  EXPECT_FALSE(TraceReader::ReadAllStrict(is, &error).has_value());
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
}

}  // namespace
}  // namespace litereconfig
