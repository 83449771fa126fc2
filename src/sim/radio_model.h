// Radio connectivity and loss models.
//
// The paper's testbed is a 5x5 MICA2 grid with a software-modified TinyOS
// network stack that "filters out all messages except those from immediate
// neighbors based on the grid topology" (Sec. 4). GridNeighborRadio
// reproduces exactly that methodology; PerfectRadio is the lossless
// distance-based model unit tests use to isolate protocol logic.
#pragma once

#include <cstddef>
#include <memory>

#include "sim/types.h"

namespace agilla::sim {

struct NodeInfo {
  NodeId id;
  Location location;
  bool radio_enabled = true;
};

class RadioModel {
 public:
  virtual ~RadioModel() = default;

  /// True if `to` can hear transmissions from `from` at all.
  [[nodiscard]] virtual bool connected(const NodeInfo& from,
                                       const NodeInfo& to) const = 0;

  /// Probability that one packet of `bytes` on-air bytes from->to is lost.
  [[nodiscard]] virtual double loss_probability(const NodeInfo& from,
                                                const NodeInfo& to,
                                                std::size_t bytes) const = 0;

  /// Upper bound on the distance between any connected pair. The network
  /// buckets nodes into cells of this size so receiver enumeration scans
  /// the 3x3 surrounding cells instead of every node (O(1) per frame on
  /// bounded-density deployments).
  [[nodiscard]] virtual double max_range() const = 0;
};

/// Grid adjacency with a fixed per-packet loss probability.
///
/// Nodes are connected iff their locations are one `spacing` apart in
/// exactly one axis (4-connectivity) or also diagonally (8-connectivity).
class GridNeighborRadio final : public RadioModel {
 public:
  struct Options {
    double spacing = 1.0;       ///< grid pitch
    bool eight_connected = false;
    double packet_loss = 0.0;   ///< per-packet Bernoulli loss probability
    double per_byte_loss = 0.0; ///< additional loss per on-air byte
  };

  explicit GridNeighborRadio(Options options) : options_(options) {}

  [[nodiscard]] bool connected(const NodeInfo& from,
                               const NodeInfo& to) const override;
  [[nodiscard]] double loss_probability(const NodeInfo& from,
                                        const NodeInfo& to,
                                        std::size_t bytes) const override;
  [[nodiscard]] double max_range() const override;

  [[nodiscard]] const Options& options() const { return options_; }

 private:
  Options options_;
};

/// Lossless radio with unit-disk connectivity; used by unit tests that need
/// to isolate protocol logic from the channel.
class PerfectRadio final : public RadioModel {
 public:
  explicit PerfectRadio(double range = 1.5) : range_(range) {}

  [[nodiscard]] bool connected(const NodeInfo& from,
                               const NodeInfo& to) const override;
  [[nodiscard]] double loss_probability(const NodeInfo&, const NodeInfo&,
                                        std::size_t) const override {
    return 0.0;
  }
  [[nodiscard]] double max_range() const override { return range_; }

 private:
  double range_;
};

}  // namespace agilla::sim
