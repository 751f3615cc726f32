#include "workload/stream_gen.h"

#include <algorithm>

#include "common/check.h"

namespace dsps::workload {

using engine::Field;
using engine::Schema;
using engine::Tuple;
using engine::Value;
using engine::ValueType;

// ----------------------------------------------------------- StockTickerGen

StockTickerGen::StockTickerGen(const Config& config, common::Rng rng)
    : config_(config),
      rng_(rng),
      schema_(Schema({Field{"symbol", ValueType::kInt64},
                      Field{"price", ValueType::kDouble},
                      Field{"volume", ValueType::kDouble}})),
      symbols_(static_cast<uint64_t>(config.num_symbols), config.zipf_s) {
  DSPS_CHECK(config.num_symbols > 0);
  prices_.resize(config.num_symbols);
  for (double& p : prices_) p = rng_.Uniform(kPriceMin, kPriceMax);
}

interest::StreamStats StockTickerGen::stats() const {
  interest::StreamStats s;
  s.domain = interest::Box{
      {0.0, static_cast<double>(config_.num_symbols - 1)},
      {kPriceMin, kPriceMax},
      {0.0, kMeanVolume * 20.0}};
  s.tuples_per_s = config_.tuples_per_s;
  // symbol + price + volume + header.
  s.bytes_per_tuple = 12 + 3 * 8;
  return s;
}

Tuple StockTickerGen::Next(double timestamp) {
  int64_t symbol = static_cast<int64_t>(symbols_.Sample(&rng_));
  double& price = prices_[symbol];
  price += rng_.Uniform(-kWalkStep, kWalkStep);
  price = std::clamp(price, kPriceMin, kPriceMax);
  double volume = rng_.Exponential(1.0 / kMeanVolume);
  Tuple t;
  t.stream = config_.stream;
  t.timestamp = timestamp;
  t.values = {Value{symbol}, Value{price}, Value{volume}};
  return t;
}

// ----------------------------------------------------------------- NetMonGen

NetMonGen::NetMonGen(const Config& config, common::Rng rng)
    : config_(config),
      rng_(rng),
      schema_(Schema({Field{"src_host", ValueType::kInt64},
                      Field{"dst_host", ValueType::kInt64},
                      Field{"bytes", ValueType::kDouble}})),
      hosts_(static_cast<uint64_t>(config.num_hosts), config.zipf_s) {
  DSPS_CHECK(config.num_hosts > 0);
}

interest::StreamStats NetMonGen::stats() const {
  interest::StreamStats s;
  s.domain = interest::Box{
      {0.0, static_cast<double>(config_.num_hosts - 1)},
      {0.0, static_cast<double>(config_.num_hosts - 1)},
      {0.0, kMaxFlowBytes}};
  s.tuples_per_s = config_.tuples_per_s;
  s.bytes_per_tuple = 12 + 3 * 8;
  return s;
}

Tuple NetMonGen::Next(double timestamp) {
  int64_t src = static_cast<int64_t>(hosts_.Sample(&rng_));
  int64_t dst = static_cast<int64_t>(hosts_.Sample(&rng_));
  double bytes =
      std::min(rng_.Exponential(1.0 / kMeanFlowBytes), kMaxFlowBytes);
  Tuple t;
  t.stream = config_.stream;
  t.timestamp = timestamp;
  t.values = {Value{src}, Value{dst}, Value{bytes}};
  return t;
}

// ----------------------------------------------------------------- Helpers

void RegisterStream(const StreamGen& gen, interest::StreamCatalog* catalog) {
  DSPS_CHECK(catalog != nullptr);
  catalog->Register(gen.stream(), gen.stats());
}

std::vector<std::unique_ptr<StreamGen>> MakeTickerStreams(
    int n, const StockTickerGen::Config& base,
    interest::StreamCatalog* catalog, common::Rng* rng) {
  std::vector<std::unique_ptr<StreamGen>> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    StockTickerGen::Config cfg = base;
    cfg.stream = i;
    auto gen = std::make_unique<StockTickerGen>(
        cfg, rng->Fork(static_cast<uint64_t>(i) + 1000));
    if (catalog != nullptr) RegisterStream(*gen, catalog);
    out.push_back(std::move(gen));
  }
  return out;
}

}  // namespace dsps::workload
