#ifndef DSPS_WORKLOAD_STREAM_GEN_H_
#define DSPS_WORKLOAD_STREAM_GEN_H_

#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "engine/tuple.h"
#include "interest/measure.h"

namespace dsps::workload {

/// Generates the tuples of one logical stream. Implementations model the
/// paper's motivating feeds (stock tickers, network monitoring) with
/// controllable rates and value distributions.
class StreamGen {
 public:
  virtual ~StreamGen() = default;

  /// The stream this generator produces.
  virtual common::StreamId stream() const = 0;

  /// Tuple schema.
  virtual const engine::Schema& schema() const = 0;

  /// Stream stats (domain over numeric fields, rate) for the catalog.
  virtual interest::StreamStats stats() const = 0;

  /// Produces the next tuple, stamped with `timestamp`.
  virtual engine::Tuple Next(double timestamp) = 0;
};

/// Stock ticker: (symbol:int64, price:double, volume:double). Symbols are
/// Zipf-distributed (hot symbols trade more); each symbol's price follows
/// a random walk bounded to [kPriceMin, kPriceMax]; volume is exponential.
class StockTickerGen : public StreamGen {
 public:
  static constexpr double kPriceMin = 0.0;
  static constexpr double kPriceMax = 100.0;
  static_assert(kPriceMax > kPriceMin);
  /// A price moves by at most this much per tuple.
  static constexpr double kWalkStep = 0.5;
  static constexpr double kMeanVolume = 1000.0;

  struct Config {
    common::StreamId stream = 0;
    int num_symbols = 100;
    double zipf_s = 1.0;
    double tuples_per_s = 100.0;
  };

  StockTickerGen(const Config& config, common::Rng rng);

  common::StreamId stream() const override { return config_.stream; }
  const engine::Schema& schema() const override { return schema_; }
  interest::StreamStats stats() const override;
  engine::Tuple Next(double timestamp) override;

 private:
  Config config_;
  common::Rng rng_;
  engine::Schema schema_;
  std::vector<double> prices_;
};

/// Network monitoring: (src_host:int64, dst_host:int64, bytes:double).
/// Hosts are Zipf-distributed; flow sizes are exponential, capped at
/// kMaxFlowBytes.
class NetMonGen : public StreamGen {
 public:
  static constexpr double kMeanFlowBytes = 4096.0;
  static constexpr double kMaxFlowBytes = 1e6;

  struct Config {
    common::StreamId stream = 0;
    int num_hosts = 256;
    double zipf_s = 0.8;
    double tuples_per_s = 200.0;
  };

  NetMonGen(const Config& config, common::Rng rng);

  common::StreamId stream() const override { return config_.stream; }
  const engine::Schema& schema() const override { return schema_; }
  interest::StreamStats stats() const override;
  engine::Tuple Next(double timestamp) override;

 private:
  Config config_;
  common::Rng rng_;
  engine::Schema schema_;
};

/// Registers `gen`'s stats in `catalog` under its stream id.
void RegisterStream(const StreamGen& gen, interest::StreamCatalog* catalog);

/// Builds `n` stock ticker streams (stream ids 0..n-1) with the given base
/// config, registering each in `catalog`. Rngs are forked from `rng`.
std::vector<std::unique_ptr<StreamGen>> MakeTickerStreams(
    int n, const StockTickerGen::Config& base, interest::StreamCatalog* catalog,
    common::Rng* rng);

}  // namespace dsps::workload

#endif  // DSPS_WORKLOAD_STREAM_GEN_H_
