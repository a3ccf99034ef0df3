// Copyright 2026 The TrustLite Reproduction Authors.

#include "src/fleet/fleet.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <utility>

#include "src/crypto/sha256.h"

namespace trustlite {

Fleet::Fleet(const FleetConfig& config)
    : config_(config),
      fabric_(config.seed),
      pool_(config.threads),
      rx_(static_cast<size_t>(config.nodes)),
      deliver_scratch_(static_cast<size_t>(config.nodes)),
      burst_scratch_(static_cast<size_t>(config.nodes)),
      gpio_out_scratch_(static_cast<size_t>(config.nodes)) {
  // Node ids must fit the fabric's per-link RNG lanes (LinkId folds ports
  // into 16-bit halves); kMaxFleetPort leaves headroom well past 10k nodes.
  assert(config_.nodes >= 0 && config_.nodes <= kMaxFleetPort + 1);
  nodes_.reserve(static_cast<size_t>(config_.nodes));
  for (int i = 0; i < config_.nodes; ++i) {
    nodes_.push_back(
        std::make_unique<FleetNode>(i, config_.seed, config_.platform));
  }
  BuildTopologyLinks(&fabric_, config_.topology, config_.nodes, config_.link);
}

void Fleet::RunQuantum() {
  const int n = num_nodes();
  const uint64_t target = now_ + config_.quantum;

  // Phase 1 — drain the verifier port (serial). The due-queue pops frames
  // in (deliver_cycle, seq) order — a total order — so the per-source
  // channel streams grow identically at every thread count.
  fabric_.DeliverInto(kVerifierPort, now_, &verifier_scratch_);
  for (FleetMessage& message : verifier_scratch_) {
    if (message.src >= 0 && message.src < n) {
      const Channel channel =
          *RouteFrame(message.src, kVerifierPort, message.payload);
      rx_[static_cast<size_t>(message.src)][static_cast<size_t>(channel)] +=
          message.payload;
    }
  }

  // Phase 2 — one fused parallel round: deliver node i's due frames, run
  // node i to the quantum end, collect its TX burst. Shard i touches only
  // node i's due-queue, Platform and scratch slots, so the host schedule
  // cannot leak into results. Grain keeps cursor traffic sublinear in n.
  const int grain = std::max(1, n / (pool_.threads() * 16));
  pool_.ParallelFor(
      n,
      [&](int i) {
        FleetNode& node = *nodes_[static_cast<size_t>(i)];
        std::vector<FleetMessage>& due =
            deliver_scratch_[static_cast<size_t>(i)];
        fabric_.DeliverInto(i, now_, &due);
        for (FleetMessage& message : due) {
          const std::optional<Channel> channel =
              RouteFrame(message.src, i, message.payload);
          if (channel.has_value()) {
            rx_[static_cast<size_t>(i)][static_cast<size_t>(*channel)] +=
                message.payload;
          } else {
            node.PushRx(message.payload);
          }
        }
        node.RunQuantum(target);
        burst_scratch_[static_cast<size_t>(i)] =
            node.HarvestTx(config_.harvest_batch_quanta);
      },
      grain);

  // Phase 3 — sends stay serial, in node-id order: every Send advances the
  // per-link impairment/hostile RNG streams, and that consumption order is
  // the fleet's determinism anchor.
  for (int i = 0; i < n; ++i) {
    FleetNode::TxBurst& burst = burst_scratch_[static_cast<size_t>(i)];
    if (burst.payload.empty()) {
      continue;
    }
    for (int dst : fabric_.OutLinksOf(i)) {
      fabric_.Send(i, dst, burst.last_cycle, burst.payload);
    }
    burst.payload.clear();
  }
  if (config_.topology == Topology::kRing && kRingBridgesGpio && n > 1) {
    // Latch each node's GPIO OUT into its clockwise neighbour's IN. Reads
    // complete before any write lands (out() snapshots below), matching a
    // wired bus sampled at the quantum boundary.
    for (int i = 0; i < n; ++i) {
      gpio_out_scratch_[static_cast<size_t>(i)] =
          nodes_[static_cast<size_t>(i)]->platform().gpio().out();
    }
    for (int i = 0; i < n; ++i) {
      const int next = (i + 1) % n;
      nodes_[static_cast<size_t>(next)]->platform().gpio().SetIn(
          gpio_out_scratch_[static_cast<size_t>(i)]);
    }
  }

#ifndef NDEBUG
  // Satellite invariant: the O(1) in-flight counter must track the queues
  // exactly, including hostile replay/reflect injections and batch flushes.
  assert(fabric_.in_flight() == fabric_.RecountInFlight());
#endif

  now_ = target;
  ++quanta_run_;
}

void Fleet::RunQuanta(uint64_t count) {
  for (uint64_t i = 0; i < count; ++i) {
    RunQuantum();
  }
}

bool Fleet::AllHalted() const {
  for (const auto& node : nodes_) {
    if (!node->platform().cpu().halted()) {
      return false;
    }
  }
  return true;
}

bool Fleet::SendToNode(int node, std::string payload) {
  return fabric_.Send(kVerifierPort, node, now_, std::move(payload));
}

bool Fleet::SendToVerifier(int node, std::string payload) {
  return fabric_.Send(node, kVerifierPort, now_, std::move(payload));
}

int Fleet::AddNode() {
  if (config_.topology != Topology::kStar) {
    return -1;
  }
  const int id = num_nodes();
  if (id > kMaxFleetPort) {
    return -1;
  }
  nodes_.push_back(std::make_unique<FleetNode>(id, config_.seed,
                                               config_.platform));
  rx_.emplace_back();
  deliver_scratch_.emplace_back();
  burst_scratch_.emplace_back();
  gpio_out_scratch_.push_back(0);
  // Fresh verifier links: the per-link RNG streams are seeded from
  // (fleet_seed, src, dst), so a node added at cycle C draws the same
  // impairment pattern as one wired at construction — growth does not
  // perturb any existing link's stream.
  fabric_.Connect(kVerifierPort, id, config_.link);
  fabric_.Connect(id, kVerifierPort, config_.link);
  return id;
}

size_t Fleet::ConsumeRx(int node, Channel channel, size_t upto) {
  std::string& rx =
      rx_[static_cast<size_t>(node)][static_cast<size_t>(channel)];
  upto = std::min(upto, rx.size());
  rx.erase(0, upto);
  return upto;
}

Sha256Digest Fleet::FleetDigest() const {
  Sha256 hasher;
  for (const auto& node : nodes_) {
    const Sha256Digest digest = node->StateDigest();
    hasher.Update(digest.data(), digest.size());
  }
  return hasher.Finish();
}

std::vector<FleetNodeStatsRow> Fleet::SummaryRows() const {
  std::vector<FleetNodeStatsRow> rows;
  rows.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    Platform& platform = node->platform();
    const CpuStats& cpu = platform.cpu().stats();
    const FastPathStats fast = platform.fast_path_stats();
    FleetNodeStatsRow row;
    row.node_id = node->id();
    row.instructions = cpu.instructions;
    row.cycles = platform.cpu().cycles();
    row.tx_bytes = node->tx_bytes();
    row.rx_bytes = node->rx_bytes();
    row.halted = platform.cpu().halted();
    row.fusion_groups = fast.fusion_groups;
    row.fusion_retired = fast.fusion_retired;
    row.decode_misses = fast.decode_misses;
    row.data_window_misses = fast.data_window_misses;
    row.mpu_checks = fast.mpu.checks;
    row.irq_polls = cpu.irq_polls;
    row.trustlet_exceptions = cpu.trustlet_interrupts;
    rows.push_back(row);
  }
  return rows;
}

uint64_t Fleet::TotalInstructions() const {
  uint64_t total = 0;
  for (const auto& node : nodes_) {
    total += node->platform().cpu().stats().instructions;
  }
  return total;
}

}  // namespace trustlite
