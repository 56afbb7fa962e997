#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/coordinator.h"
#include "fault/fault_plan.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"

namespace bcfl::obs {
namespace {

/// Minimal HTTP/1.1 client for the tests: one request, read to close.
std::string HttpGet(uint16_t port, const std::string& request_line) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = request_line + "\r\nHost: localhost\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(PrometheusNameTest, SanitisesAndPrefixes) {
  EXPECT_EQ(PrometheusName("fl.round_us"), "bcfl_fl_round_us");
  EXPECT_EQ(PrometheusName("chain.block commit-us"),
            "bcfl_chain_block_commit_us");
  EXPECT_EQ(PrometheusName("ok:name_09"), "bcfl_ok:name_09");
}

TEST(PrometheusTextTest, GoldenCounterAndGauge) {
  MetricsRegistry registry;
  registry.GetCounter("chain.txs").Add(42);
  registry.GetGauge("fl.round_accuracy").Set(0.5);
  EXPECT_EQ(PrometheusText(registry),
            "# TYPE bcfl_chain_txs counter\n"
            "bcfl_chain_txs 42\n"
            "# TYPE bcfl_fl_round_accuracy gauge\n"
            "bcfl_fl_round_accuracy 0.5\n");
}

TEST(PrometheusTextTest, HistogramCumulativeBucketsAndQuantiles) {
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("lat_us", {1.0, 10.0, 100.0});
  for (double v : {0.5, 5.0, 50.0, 500.0}) h.Observe(v);
  const std::string text = PrometheusText(registry);

  EXPECT_NE(text.find("# TYPE bcfl_lat_us histogram\n"), std::string::npos);
  EXPECT_NE(text.find("bcfl_lat_us_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("bcfl_lat_us_bucket{le=\"10\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("bcfl_lat_us_bucket{le=\"100\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("bcfl_lat_us_bucket{le=\"+Inf\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("bcfl_lat_us_sum 555.5\n"), std::string::npos);
  EXPECT_NE(text.find("bcfl_lat_us_count 4\n"), std::string::npos);

  // The quantile gauges must agree with the snapshot's estimates.
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  const auto& hs = snapshot.histograms[0];
  for (const auto& [label, expected] :
       std::vector<std::pair<std::string, double>>{
           {"0.5", hs.p50}, {"0.9", hs.p90}, {"0.99", hs.p99}}) {
    const std::string needle = "bcfl_lat_us_quantile{q=\"" + label + "\"} ";
    const size_t at = text.find(needle);
    ASSERT_NE(at, std::string::npos) << text;
    EXPECT_DOUBLE_EQ(std::strtod(text.c_str() + at + needle.size(), nullptr),
                     expected);
  }
}

TEST(PrometheusTextTest, EmptyHistogramAndNonFiniteGauge) {
  MetricsRegistry registry;
  registry.GetHistogram("empty_us", {1.0, 2.0});
  registry.GetGauge("poisoned").Set(
      std::numeric_limits<double>::quiet_NaN());
  const std::string text = PrometheusText(registry);
  EXPECT_NE(text.find("bcfl_poisoned NaN\n"), std::string::npos);
  EXPECT_NE(text.find("bcfl_empty_us_count 0\n"), std::string::npos);
  EXPECT_NE(text.find("bcfl_empty_us_quantile{q=\"0.5\"} 0\n"),
            std::string::npos);
}

TEST(HttpExporterTest, ServesMetricsAndHealthz) {
  MetricsRegistry registry;
  registry.GetCounter("served.requests").Add(7);
  HttpExporter exporter(&registry);
  ASSERT_TRUE(exporter.Start(0).ok());
  ASSERT_TRUE(exporter.running());
  ASSERT_GT(exporter.port(), 0);

  const std::string health = HttpGet(exporter.port(), "GET /healthz HTTP/1.1");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok\n"), std::string::npos);

  const std::string metrics =
      HttpGet(exporter.port(), "GET /metrics HTTP/1.1");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4; charset=utf-8"),
            std::string::npos);
  EXPECT_NE(metrics.find("bcfl_served_requests 7"), std::string::npos);

  EXPECT_NE(HttpGet(exporter.port(), "GET /nope HTTP/1.1")
                .find("HTTP/1.1 404 Not Found"),
            std::string::npos);
  EXPECT_NE(HttpGet(exporter.port(), "POST /metrics HTTP/1.1")
                .find("HTTP/1.1 405 Method Not Allowed"),
            std::string::npos);

  EXPECT_GE(exporter.requests_served(), 4u);
  exporter.Stop();
  EXPECT_FALSE(exporter.running());
  exporter.Stop();  // Idempotent.
}

TEST(HttpExporterTest, PortInUseReportsAndLeavesExporterStopped) {
  MetricsRegistry registry;
  HttpExporter first(&registry);
  ASSERT_TRUE(first.Start(0).ok());
  HttpExporter second(&registry);
  const Status st = second.Start(first.port());
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("bind"), std::string::npos) << st.ToString();
  EXPECT_FALSE(second.running());
  // The failed exporter must still be startable on a free port.
  ASSERT_TRUE(second.Start(0).ok());
  EXPECT_NE(second.port(), first.port());
}

// The acceptance scenario: scrapes racing a full faulted protocol round
// must always see a complete, parseable exposition (the snapshot path),
// never a torn one, and the session itself must stay unperturbed.
TEST(HttpExporterTest, ConcurrentScrapeDuringChaosRound) {
  HttpExporter exporter;  // Global registry: the session records into it.
  ASSERT_TRUE(exporter.Start(0).ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> good_scrapes{0};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 2; ++t) {
    scrapers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const std::string response =
            HttpGet(exporter.port(), "GET /metrics HTTP/1.1");
        if (response.find("HTTP/1.1 200 OK") != std::string::npos &&
            response.find("bcfl_") != std::string::npos) {
          good_scrapes.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  core::BcflConfig config;
  config.num_owners = 5;
  config.num_miners = 3;
  config.rounds = 2;
  config.num_groups = 2;
  config.digits.num_instances = 400;
  auto plan = fault::FaultPlan::Parse("crash owner 2 @0; slow miner 0 @1 "
                                      "+2000us");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  config.fault_plan = *plan;
  auto coordinator = core::BcflCoordinator::Create(config);
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();
  auto result = (*coordinator)->Run();

  stop.store(true, std::memory_order_release);
  for (auto& scraper : scrapers) scraper.join();
  exporter.Stop();

  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->round_accuracies.size(), 2u);
  EXPECT_GT(good_scrapes.load(), 0u);
}

}  // namespace
}  // namespace bcfl::obs
