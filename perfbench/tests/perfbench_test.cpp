// Tests of the benchmark's own code: statistics, corpus determinism,
// correctness checks and trace export.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bwc/server/json.h"
#include "bwc/support/error.h"
#include "checks.h"
#include "corpus.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Stats, NearestRankPercentileAndSampleCount) {
  const Percentile p90 = nearest_rank(one_to(100), 90);
  EXPECT_EQ(p90.value, 90.0);
  EXPECT_EQ(p90.rank, 90u);
  EXPECT_EQ(p90.samples, 100u);
  EXPECT_EQ(p90.beyond(), 10u);

  // Rank is ceil(p * n / 100): p50 of 5 samples is the 3rd, p90 the 5th.
  EXPECT_EQ(nearest_rank(one_to(5), 50).value, 3.0);
  EXPECT_EQ(nearest_rank(one_to(5), 90).value, 5.0);
  EXPECT_EQ(nearest_rank(one_to(101), 90).value, 91.0);
  EXPECT_EQ(nearest_rank({7.0}, 50).value, 7.0);
  EXPECT_EQ(nearest_rank(one_to(10), 100).value, 10.0);

  EXPECT_THROW(nearest_rank({}, 50), std::invalid_argument);
  EXPECT_THROW(nearest_rank(one_to(3), 0), std::invalid_argument);
  EXPECT_THROW(nearest_rank(one_to(3), 101), std::invalid_argument);
}

TEST(Stats, Median) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(Stats, GeometricMean) {
  EXPECT_DOUBLE_EQ(geometric_mean({2.0, 8.0}), 4.0);
  EXPECT_DOUBLE_EQ(geometric_mean({1.0, 10.0, 100.0}), 10.0);
  EXPECT_DOUBLE_EQ(geometric_mean({5.0}), 5.0);
  EXPECT_THROW(geometric_mean({}), std::invalid_argument);
  EXPECT_THROW(geometric_mean({1.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(geometric_mean({1.0, -2.0}), std::invalid_argument);
}

std::string corpus_bytes(const Corpus& c) {
  std::string out;
  for (const CorpusProgram& p : c.programs)
    out += p.kind + " " + std::to_string(p.n) + "\n" + p.text + "\n";
  for (std::size_t i : c.order) out += std::to_string(i) + ",";
  return out + "|" + std::to_string(c.warmup);
}

class CorpusTest : public ::testing::TestWithParam<Workload> {};

TEST_P(CorpusTest, SameSeedSameBytesOtherSeedOtherBytes) {
  const std::string a = corpus_bytes(make_corpus(GetParam(), 7));
  EXPECT_EQ(a, corpus_bytes(make_corpus(GetParam(), 7)));
  EXPECT_NE(a, corpus_bytes(make_corpus(GetParam(), 8)));
}

TEST_P(CorpusTest, OrderIsAPermutationAndTextsAreDistinct) {
  const Corpus c = make_corpus(GetParam(), 3);
  std::vector<bool> seen(c.programs.size(), false);
  for (std::size_t i : c.order) {
    ASSERT_LT(i, seen.size());
    EXPECT_FALSE(seen[i]);
    seen[i] = true;
  }
  EXPECT_EQ(c.order.size(), c.programs.size());
  EXPECT_LE(c.warmup, c.order.size());
  if (GetParam() == Workload::kDaemonHits) {
    // Every pool program must be its own cache entry.
    for (std::size_t i = 0; i < c.programs.size(); ++i)
      for (std::size_t j = i + 1; j < c.programs.size(); ++j)
        EXPECT_NE(c.programs[i].text, c.programs[j].text);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, CorpusTest,
    ::testing::Values(Workload::kReplay2d, Workload::kReplay1d,
                      Workload::kCompileGenerated, Workload::kDaemonHits),
    [](const auto& info) { return std::string(workload_name(info.param)); });

TEST(Corpus, StratifiedSizesCoverTheRangeOncePerStratum) {
  const std::vector<std::int64_t> sizes = stratified_sizes(11, 384, 512, 8);
  ASSERT_EQ(sizes.size(), 8u);
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_GE(sizes[i], 384 + static_cast<std::int64_t>(i) * 129 / 8);
    EXPECT_LT(sizes[i], 384 + static_cast<std::int64_t>(i + 1) * 129 / 8);
  }
}

TEST(Corpus, WorkloadNamesRoundTrip) {
  for (Workload w : {Workload::kReplay2d, Workload::kReplay1d,
                     Workload::kCompileGenerated, Workload::kDaemonHits})
    EXPECT_EQ(parse_workload(workload_name(w)), w);
  EXPECT_FALSE(parse_workload("replay").has_value());
}

TEST(Checks, CatchesACorruptedChecksum) {
  EXPECT_EQ(check_checksums(1234.5, 1234.5), "");
  EXPECT_EQ(check_checksums(1234.5, 1234.5 * (1 + 1e-12)), "");
  EXPECT_EQ(check_checksums(1234.5, 1234.5 + 1e-3), "checksum-mismatch");
  EXPECT_EQ(check_checksums(1234.5, -1234.5), "checksum-mismatch");
}

TEST(Checks, CatchesAnAlteredHitBody) {
  bwc::server::Response hit;
  hit.status = "ok";
  hit.cache_hit = true;
  hit.result_json = "{\"schema\":\"bwcd-v1\",\"optimized\":\"x\"}";
  const std::string stored = hit.result_json;
  EXPECT_EQ(check_hit(hit, stored), "");

  bwc::server::Response altered = hit;
  altered.result_json[altered.result_json.size() - 3] = 'y';
  EXPECT_EQ(check_hit(altered, stored), "body-mismatch");

  bwc::server::Response miss = hit;
  miss.cache_hit = false;
  EXPECT_EQ(check_hit(miss, stored), "cache-miss");

  bwc::server::Response overloaded = hit;
  overloaded.status = "overloaded";
  EXPECT_EQ(check_hit(overloaded, stored), "status-overloaded");
}

TEST(Checks, ClassifiesExceptions) {
  const bwc::Error rejection(
      "verification failed after storage reduction:\n"
      "[storage-reduction] 1 violation(s)\n"
      "  error [storage-reduction-capacity] array B needs 3 slots\n");
  EXPECT_EQ(exception_code(rejection), "verify:storage-reduction-capacity");
  EXPECT_TRUE(is_verifier_rejection(exception_code(rejection)));

  const bwc::Error coded("[bad-request] missing program");
  EXPECT_EQ(exception_code(coded), "error:bad-request");
  EXPECT_FALSE(is_verifier_rejection(exception_code(coded)));
  EXPECT_EQ(exception_code(std::runtime_error("boom")), "error:exception");
}

TEST(Trace, SelfTimeExcludesChildrenAndExportLoadsAsJson) {
  SpanBuffer buffer(true, 3);
  {
    ScopedSpan root(buffer, "request", 42);
    ScopedSpan child(buffer, "ir.parse", 42);
  }
  {
    ScopedSpan root(buffer, "request", 43);
  }
  ASSERT_EQ(buffer.spans().size(), 3u);
  EXPECT_EQ(buffer.spans()[1].parent, 0);
  EXPECT_EQ(buffer.spans()[2].parent, -1);
  EXPECT_EQ(buffer.spans()[1].request, 42u);

  const SpanTotals request = buffer.totals().at("request");
  const SpanTotals parse = buffer.totals().at("ir.parse");
  EXPECT_EQ(request.calls, 2u);
  EXPECT_EQ(request.self_ns, request.total_ns - parse.total_ns);
  EXPECT_EQ(parse.self_ns, parse.total_ns);

  std::ostringstream out;
  write_chrome_trace(out, {&buffer}, buffer.spans()[0].start_ns);
  const bwc::server::JsonValue doc = bwc::server::parse_json(out.str());
  const auto& events = doc.find("traceEvents")->items();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[1].string_or("name", ""), "ir.parse");
  EXPECT_EQ(events[1].string_or("ph", ""), "X");
  EXPECT_EQ(events[1].find("args")->number_or("parent", -2), 0.0);
  EXPECT_EQ(events[1].number_or("tid", 0), 3.0);
}

TEST(Trace, DisabledBufferRecordsNothing) {
  SpanBuffer buffer(false, 1);
  {
    ScopedSpan root(buffer, "request", 1);
  }
  EXPECT_TRUE(buffer.spans().empty());
  EXPECT_TRUE(buffer.totals().empty());
}

TEST(Trace, CappedBufferKeepsWholeTreesAndExactTotals) {
  SpanBuffer buffer(true, 1, 2);
  for (std::uint64_t r = 1; r <= 3; ++r) {
    ScopedSpan root(buffer, "request", r);
    ScopedSpan child(buffer, "ir.parse", r);
  }
  EXPECT_EQ(buffer.spans().size(), 2u);
  EXPECT_EQ(buffer.totals().at("request").calls, 3u);
  EXPECT_EQ(buffer.totals().at("ir.parse").calls, 3u);
}

}  // namespace
}  // namespace perfbench
