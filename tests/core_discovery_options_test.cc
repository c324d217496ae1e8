#include "core/discovery_options.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/job.h"
#include "core/resume.h"
#include "core/strategy.h"
#include "kg/synthetic.h"
#include "kge/model.h"
#include "server/job_manager.h"
#include "util/config_file.h"
#include "util/flags.h"
#include "util/rng.h"

namespace kgfd {
namespace {

/// A value other than the default for every row, spelled as a front end
/// reads it. A row added to the table without an entry here fails
/// EveryRowHasANonDefaultValue, so no knob can skip the checks below.
std::map<std::string, std::string> NonDefaultValues() {
  // Any strategy but the default (KGFD_DEFAULT_STRATEGY may move it).
  const SamplingStrategy strategy =
      DefaultSamplingStrategy() == SamplingStrategy::kGraphDegree
          ? SamplingStrategy::kUniformRandom
          : SamplingStrategy::kGraphDegree;
  return {{"strategy", SamplingStrategyName(strategy)},
          {"top_n", "7"},
          {"max_candidates", "9"},
          {"max_iterations", "3"},
          {"type_filter", "true"},
          {"filtered_ranking", "false"},
          {"seed", "9223372036854775808"},  // 2^63: past int64
          {"adaptive_rounds", "3"},
          {"adaptive_exploration", "0.25"},
          {"max_candidate_memory_bytes", "4096"}};
}

/// Every row's value, so two DiscoveryOptions compare knob by knob.
std::string Describe(const DiscoveryOptions& options) {
  std::string out;
  for (const DiscoveryOptionRow& row : DiscoveryOptionTable()) {
    out += std::string(row.name) + "=" + DiscoveryOptionValue(row, options) +
           " ";
  }
  return out;
}

/// What `kgfd_cli discover` does with its command line.
DiscoveryOptions FromFlags(std::vector<std::string> args) {
  args.insert(args.begin(), "kgfd_cli");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  const Flags flags = std::move(
      Flags::Parse(static_cast<int>(argv.size()), argv.data()))
                          .ValueOrDie("flags");
  DiscoveryOptions options;
  options.strategy = DefaultSamplingStrategy();
  EXPECT_TRUE(ApplyDiscoveryOptions(flags.config(), "", &options).ok());
  EXPECT_TRUE(flags.config().CheckAllRead().ok());
  return options;
}

/// A job config, what `kgfd_cli run --config` parses.
DiscoveryOptions FromRunConfig(const std::string& body) {
  const ConfigFile config =
      std::move(ConfigFile::Parse(body)).ValueOrDie("config");
  const auto spec = JobSpec::FromConfig(config);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return spec.ok() ? spec.value().discovery : DiscoveryOptions();
}

/// A kgfd_server POST body.
DiscoveryOptions FromPost(const std::string& body) {
  const auto request =
      JobRequest::Parse("data.dir = d\nmodel.checkpoint = m\n" + body);
  EXPECT_TRUE(request.ok()) << request.status().ToString();
  return request.ok() ? request.value().discovery : DiscoveryOptions();
}

TEST(DiscoveryOptionTableTest, EveryRowHasANonDefaultValue) {
  const std::map<std::string, std::string> values = NonDefaultValues();
  std::set<std::string> names;
  for (const DiscoveryOptionRow& row : DiscoveryOptionTable()) {
    EXPECT_TRUE(names.insert(row.name).second) << "duplicate " << row.name;
    EXPECT_EQ(values.count(row.name), 1u) << row.name;
  }
  EXPECT_EQ(names.size(), values.size());
}

TEST(DiscoveryOptionTableTest, EveryFrontEndSetsEveryRowAlike) {
  DiscoveryOptions defaults;
  defaults.strategy = DefaultSamplingStrategy();
  for (const DiscoveryOptionRow& row : DiscoveryOptionTable()) {
    SCOPED_TRACE(row.name);
    const std::string value = NonDefaultValues().at(row.name);
    ASSERT_NE(value, DiscoveryOptionValue(row, defaults));
    const std::string line =
        "discovery." + std::string(row.name) + " = " + value + "\n";
    const DiscoveryOptions post = FromPost(line);
    EXPECT_EQ(DiscoveryOptionValue(row, post), value);
    EXPECT_EQ(Describe(FromFlags({"--" + std::string(row.name), value})),
              Describe(post));
    // A job config derives its default discovery seed from `seed`; pin
    // it so only the row under test differs from the POST.
    const std::string pin_seed =
        std::string(row.name) == "seed" ? "" : "discovery.seed = 123\n";
    EXPECT_EQ(Describe(FromRunConfig(pin_seed + line)), Describe(post));
  }
}

TEST(DiscoveryOptionTableTest, EmptySourceKeepsTheDefaults) {
  const std::string strategy = SamplingStrategyName(DefaultSamplingStrategy());
  const std::string rest =
      " top_n=500 max_candidates=500 max_iterations=5 type_filter=false"
      " filtered_ranking=true seed=";
  const std::string tail =
      " adaptive_rounds=8 adaptive_exploration=0.5"
      " max_candidate_memory_bytes=1073741824 ";
  const std::string expected = "strategy=" + strategy + rest + "123" + tail;
  EXPECT_EQ(Describe(FromFlags({})), expected);
  EXPECT_EQ(Describe(FromPost("")), expected);
  // Run-kind jobs keep deriving the discovery seed from the job seed.
  EXPECT_EQ(Describe(FromRunConfig("")),
            "strategy=" + strategy + rest +
                std::to_string(42ULL ^ 0x5851F42D4C957F2DULL) + tail);
}

TEST(DiscoveryOptionTableTest, EveryOutputChangingRowIsInTheManifest) {
  SyntheticConfig c;
  c.name = "options";
  c.num_entities = 30;
  c.num_relations = 3;
  c.num_train = 120;
  c.num_valid = 5;
  c.num_test = 5;
  c.seed = 5;
  const Dataset dataset =
      std::move(GenerateSyntheticDataset(c)).ValueOrDie("dataset");
  ModelConfig mc;
  mc.num_entities = dataset.num_entities();
  mc.num_relations = dataset.num_relations();
  mc.embedding_dim = 4;
  Rng rng(1);
  const std::unique_ptr<Model> model =
      std::move(CreateModel(ModelKind::kTransE, mc, &rng)).ValueOrDie("model");
  const std::vector<RelationId> relations = dataset.train().UsedRelations();

  for (const DiscoveryOptionRow& row : DiscoveryOptionTable()) {
    SCOPED_TRACE(row.name);
    DiscoveryOptions base;
    // The manifest records the adaptive knobs of ADAPTIVE runs only.
    base.strategy = std::string(row.name).starts_with("adaptive_")
                        ? SamplingStrategy::kAdaptive
                        : DefaultSamplingStrategy();
    DiscoveryOptions changed = base;
    const ConfigFile source =
        std::move(ConfigFile::Parse(std::string(row.name) + " = " +
                                    NonDefaultValues().at(row.name)))
            .ValueOrDie("source");
    ASSERT_TRUE(ApplyDiscoveryOptions(source, "", &changed).ok());
    const Status compatible = CheckManifestCompatible(
        MakeManifestHeader(model.get(), dataset.train(), changed, relations),
        MakeManifestHeader(model.get(), dataset.train(), base, relations));
    // Only the memory cap leaves the facts unchanged, so only it may
    // resume a manifest written under another value.
    if (std::string(row.name) == "max_candidate_memory_bytes") {
      EXPECT_TRUE(compatible.ok()) << compatible.ToString();
    } else {
      EXPECT_EQ(compatible.code(), StatusCode::kFailedPrecondition);
    }
  }
}

TEST(DiscoveryOptionTableTest, RangesComeFromTheTable) {
  // The same row range rejects a value from each source, named as the
  // source spells the key, and a code-built DiscoveryOptions too.
  const Flags flags = [] {
    const char* argv[] = {"kgfd_cli", "--top_n", "0"};
    return std::move(Flags::Parse(3, const_cast<char**>(argv)))
        .ValueOrDie("flags");
  }();
  DiscoveryOptions options;
  EXPECT_EQ(ApplyDiscoveryOptions(flags.config(), "", &options).message(),
            "--top_n must be >= 1, got 0");
  const auto post = JobRequest::Parse(
      "data.dir = d\nmodel.checkpoint = m\ndiscovery.top_n = 0\n");
  EXPECT_EQ(post.status().message(),
            "config key 'discovery.top_n' must be >= 1, got 0");
  const auto run = JobSpec::FromConfig(
      std::move(ConfigFile::Parse("discovery.top_n = -1\n"))
          .ValueOrDie("config"));
  EXPECT_EQ(run.status().message(),
            "config key 'discovery.top_n' must be >= 0, got -1");

  const TripleStore kg(4, 2);
  DiscoveryOptions code;
  code.top_n = 0;
  EXPECT_EQ(ValidateDiscoveryOptions(code, kg).message(),
            "top_n must be >= 1, got 0");
  // The adaptive ranges hold for every strategy, not only ADAPTIVE.
  code = DiscoveryOptions();
  code.strategy = SamplingStrategy::kUniformRandom;
  code.adaptive_rounds = 0;
  EXPECT_EQ(ValidateDiscoveryOptions(code, kg).message(),
            "adaptive_rounds must be >= 1, got 0");
}

TEST(DiscoveryOptionTableTest, UsageAndReadmeListEveryRow) {
  const std::string usage = DiscoveryOptionsUsage();
  std::ifstream in(std::string(KGFD_TESTDATA_DIR) + "/../../README.md");
  ASSERT_TRUE(in) << "README.md not found";
  std::stringstream readme;
  readme << in.rdbuf();
  for (const DiscoveryOptionRow& row : DiscoveryOptionTable()) {
    EXPECT_NE(usage.find("[--" + std::string(row.name) + " "),
              std::string::npos)
        << row.name;
    EXPECT_NE(readme.str().find("| `" + std::string(row.name) + "` |"),
              std::string::npos)
        << "README's discovery option table lacks " << row.name;
  }
}

}  // namespace
}  // namespace kgfd
