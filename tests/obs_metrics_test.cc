#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/span.h"
#include "util/thread_pool.h"
#include "test_scratch.h"

namespace kgfd {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(GaugeTest, TracksValueAndHighWaterMark) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(g.max(), 0.0);
  g.Set(3.0);
  g.Set(7.0);
  g.Set(2.0);
  EXPECT_EQ(g.value(), 2.0);
  EXPECT_EQ(g.max(), 7.0);
}

TEST(GaugeTest, NegativeFirstValueIsTheMax) {
  Gauge g;
  g.Set(-5.0);
  EXPECT_EQ(g.value(), -5.0);
  EXPECT_EQ(g.max(), -5.0);
}

TEST(HistogramTest, InclusiveUpperBoundsAndOverflow) {
  HistogramMetric h({1.0, 10.0});
  h.Observe(0.5);   // <= 1
  h.Observe(1.0);   // <= 1 (inclusive)
  h.Observe(5.0);   // <= 10
  h.Observe(11.0);  // overflow
  ASSERT_EQ(h.num_buckets(), 3u);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.total_count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 17.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 11.0);
}

TEST(HistogramTest, EmptyHistogramIsZeroed) {
  HistogramMetric h({1.0});
  EXPECT_EQ(h.total_count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
}

TEST(HistogramTest, BoundsAreSortedAndDeduplicated) {
  HistogramMetric h({10.0, 1.0, 10.0});
  ASSERT_EQ(h.upper_bounds().size(), 2u);
  EXPECT_EQ(h.upper_bounds()[0], 1.0);
  EXPECT_EQ(h.upper_bounds()[1], 10.0);
}

TEST(BucketHelpersTest, LinearAndExponential) {
  EXPECT_EQ(LinearBuckets(1.0, 2.0, 3), (std::vector<double>{1, 3, 5}));
  EXPECT_EQ(ExponentialBuckets(1.0, 10.0, 3),
            (std::vector<double>{1, 10, 100}));
  // Default latency buckets are strictly increasing.
  const std::vector<double>& lat = DefaultLatencyBuckets();
  ASSERT_GE(lat.size(), 2u);
  for (size_t i = 1; i < lat.size(); ++i) EXPECT_LT(lat[i - 1], lat[i]);
}

TEST(MetricsRegistryTest, SameNameReturnsSameInstance) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x");
  Counter* b = registry.GetCounter("x");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, registry.GetCounter("y"));
  EXPECT_EQ(registry.GetGauge("g"), registry.GetGauge("g"));
  // First registration fixes histogram buckets.
  HistogramMetric* h = registry.GetHistogram("h", {1.0, 2.0});
  EXPECT_EQ(registry.GetHistogram("h", {99.0}), h);
  EXPECT_EQ(h->upper_bounds().size(), 2u);
}

TEST(MetricsRegistryTest, SnapshotCoversEverything) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Increment(3);
  registry.GetGauge("g")->Set(1.5);
  registry.GetHistogram("h", {1.0})->Observe(0.25);
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.count("c"), 1u);
  EXPECT_EQ(snapshot.counters.at("c"), 3u);
  ASSERT_EQ(snapshot.gauges.count("g"), 1u);
  EXPECT_EQ(snapshot.gauges.at("g").value, 1.5);
  ASSERT_EQ(snapshot.histograms.count("h"), 1u);
  EXPECT_EQ(snapshot.histograms.at("h").total, 1u);
  EXPECT_EQ(snapshot.histograms.at("h").counts.size(), 2u);
}

TEST(MetricsRegistryTest, ConcurrentIncrementsFromThreadPool) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("concurrent.counter");
  HistogramMetric* hist = registry.GetHistogram("concurrent.hist", {0.5});
  ThreadPool pool(4);
  pool.AttachMetrics(&registry);
  constexpr int kTasks = 64;
  constexpr int kIncrementsPerTask = 1000;
  for (int t = 0; t < kTasks; ++t) {
    pool.Submit([counter, hist] {
      for (int i = 0; i < kIncrementsPerTask; ++i) {
        counter->Increment();
        hist->Observe(i % 2 == 0 ? 0.25 : 1.0);
      }
    });
  }
  pool.Wait();
  EXPECT_EQ(counter->value(),
            static_cast<uint64_t>(kTasks) * kIncrementsPerTask);
  EXPECT_EQ(hist->total_count(),
            static_cast<uint64_t>(kTasks) * kIncrementsPerTask);
  EXPECT_EQ(hist->bucket_count(0) + hist->bucket_count(1),
            hist->total_count());
  // Pool self-instrumentation: every submitted task completed, and the
  // queue ends drained.
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at(kThreadPoolTasksSubmitted),
            static_cast<uint64_t>(kTasks));
  EXPECT_EQ(snapshot.counters.at(kThreadPoolTasksCompleted),
            static_cast<uint64_t>(kTasks));
  EXPECT_EQ(snapshot.gauges.at(kThreadPoolQueueDepth).value, 0.0);
  EXPECT_GE(snapshot.gauges.at(kThreadPoolQueueDepth).max, 0.0);
}

TEST(ScopedSpanTest, RecordsOneObservation) {
  MetricsRegistry registry;
  double elapsed = -1.0;
  {
    ScopedSpan span(&registry, "span.test.seconds");
    elapsed = span.Stop();
    EXPECT_GE(elapsed, 0.0);
    EXPECT_EQ(span.Stop(), elapsed);  // idempotent
  }
  HistogramMetric* hist = registry.GetHistogram("span.test.seconds");
  EXPECT_EQ(hist->total_count(), 1u);
  EXPECT_DOUBLE_EQ(hist->sum(), elapsed);
}

TEST(ScopedSpanTest, RecordsOnDestruction) {
  MetricsRegistry registry;
  { ScopedSpan span(&registry, "span.dtor.seconds"); }
  EXPECT_EQ(registry.GetHistogram("span.dtor.seconds")->total_count(), 1u);
}

TEST(ScopedSpanTest, NullRegistryStillMeasures) {
  ScopedSpan span(nullptr, "nowhere");
  EXPECT_GE(span.Stop(), 0.0);
}

TEST(ExportTest, TextContainsEveryMetric) {
  MetricsRegistry registry;
  registry.GetCounter("my.counter")->Increment(7);
  registry.GetGauge("my.gauge")->Set(4.0);
  registry.GetHistogram("my.hist", {1.0})->Observe(2.0);
  const std::string text = MetricsToText(registry.Snapshot());
  EXPECT_NE(text.find("counter my.counter 7"), std::string::npos);
  EXPECT_NE(text.find("gauge my.gauge"), std::string::npos);
  EXPECT_NE(text.find("histogram my.hist"), std::string::npos);
  EXPECT_NE(text.find("+Inf"), std::string::npos);
}

TEST(ExportTest, JsonRoundTripsExactly) {
  // Golden document: the fixed layout, the "+Inf" overflow bucket, and
  // doubles printed at %.17g, so every printed double parses back to the
  // exact value (0.1 + 0.2 would print as a lossy "0.3" at %.15g).
  MetricsRegistry registry;
  registry.GetCounter("rt.counter")->Increment(1234567890123ULL);
  registry.GetGauge("rt.gauge")->Set(0.125);
  registry.GetGauge("rt.gauge")->Set(-3.5);
  registry.GetGauge("rt.sum")->Set(0.1 + 0.2);
  HistogramMetric* hist =
      registry.GetHistogram("rt.hist", {0.001, 0.1, 10.0});
  hist->Observe(0.0005);
  hist->Observe(0.05);
  hist->Observe(1e9);  // overflow bucket
  EXPECT_EQ(MetricsToJson(registry.Snapshot()),
            "{\n"
            "  \"counters\": {\n"
            "    \"rt.counter\": 1234567890123\n"
            "  },\n"
            "  \"gauges\": {\n"
            "    \"rt.gauge\": {\"value\": -3.5, \"max\": 0.125},\n"
            "    \"rt.sum\": {\"value\": 0.30000000000000004, "
            "\"max\": 0.30000000000000004}\n"
            "  },\n"
            "  \"histograms\": {\n"
            "    \"rt.hist\": {\"count\": 3, \"sum\": 1000000000.0505, "
            "\"min\": 0.00050000000000000001, \"max\": 1000000000, "
            "\"buckets\": [{\"le\": 0.001, \"count\": 1}, "
            "{\"le\": 0.10000000000000001, \"count\": 1}, "
            "{\"le\": 10, \"count\": 0}, {\"le\": \"+Inf\", \"count\": 1}]}\n"
            "  }\n"
            "}\n");
  EXPECT_EQ(std::strtod("0.30000000000000004", nullptr), 0.1 + 0.2);
  EXPECT_EQ(std::strtod("0.10000000000000001", nullptr), 0.1);
  EXPECT_EQ(std::strtod("1000000000.0505", nullptr), hist->sum());
}

TEST(ExportTest, EmptyRegistryJsonIsGolden) {
  MetricsRegistry registry;
  EXPECT_EQ(MetricsToJson(registry.Snapshot()),
            "{\n"
            "  \"counters\": {},\n"
            "  \"gauges\": {},\n"
            "  \"histograms\": {}\n"
            "}\n");
}

TEST(ExportTest, JsonEscapesNames) {
  MetricsRegistry registry;
  registry.GetCounter("a\"b\\c\nd\re\tf\x01g")->Increment(2);
  EXPECT_EQ(MetricsToJson(registry.Snapshot()),
            "{\n"
            "  \"counters\": {\n"
            "    \"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\": 2\n"
            "  },\n"
            "  \"gauges\": {},\n"
            "  \"histograms\": {}\n"
            "}\n");
}

TEST(ExportTest, WriteMetricsJsonFileWritesParseableJson) {
  // The file holds exactly the MetricsToJson document pinned above.
  MetricsRegistry registry;
  registry.GetCounter("file.counter")->Increment(5);
  const ScratchDir dir;
  const std::string path = dir.File("export.json");
  ASSERT_TRUE(WriteMetricsJsonFile(registry, path).ok());
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::stringstream buffer;
  buffer << file.rdbuf();
  EXPECT_EQ(buffer.str(), MetricsToJson(registry.Snapshot()));
}

}  // namespace
}  // namespace kgfd
