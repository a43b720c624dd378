#include "queueing/voq.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace basrpt::queueing {

namespace {
constexpr std::size_t kNoPosition = static_cast<std::size_t>(-1);
}

VoqMatrix::VoqMatrix(PortId n_ports) : n_ports_(n_ports) {
  BASRPT_REQUIRE(n_ports >= 1, "switch needs at least one port");
  const auto n = static_cast<std::size_t>(n_ports);
  voqs_.resize(n * n);
  ingress_backlog_.assign(n, Bytes{0});
  egress_backlog_.assign(n, Bytes{0});
  position_.assign(n * n, kNoPosition);
  dirty_stamp_.assign(n * n, 0);
}

std::size_t VoqMatrix::index(PortId i, PortId j) const {
  BASRPT_ASSERT(i >= 0 && i < n_ports_, "ingress port out of range");
  BASRPT_ASSERT(j >= 0 && j < n_ports_, "egress port out of range");
  return static_cast<std::size_t>(i) * static_cast<std::size_t>(n_ports_) +
         static_cast<std::size_t>(j);
}

void VoqMatrix::mark_non_empty(std::size_t idx) {
  if (position_[idx] == kNoPosition) {
    position_[idx] = non_empty_.size();
    non_empty_.push_back(idx);
  }
}

void VoqMatrix::mark_empty(std::size_t idx) {
  const std::size_t pos = position_[idx];
  if (pos == kNoPosition) {
    return;
  }
  const std::size_t last = non_empty_.back();
  non_empty_[pos] = last;
  position_[last] = pos;
  non_empty_.pop_back();
  position_[idx] = kNoPosition;
}

void VoqMatrix::mark_dirty(std::size_t idx) {
  ++version_;
  if (dirty_stamp_[idx] != dirty_epoch_) {
    dirty_stamp_[idx] = dirty_epoch_;
    dirty_.push_back(idx);
  }
}

void VoqMatrix::clear_dirty() const {
  dirty_.clear();
  ++dirty_epoch_;
}

void VoqMatrix::add_flow(const Flow& flow) {
  BASRPT_ASSERT(flow.id != kInvalidFlow, "flow id must be valid");
  BASRPT_ASSERT(flow.remaining.count > 0, "flow must have bytes to send");
  const std::size_t idx = index(flow.src, flow.dst);
  const FlowSlot slot = store_.insert(flow);  // asserts id uniqueness

  VoqBucket& bucket = voqs_[idx];
  bucket.by_remaining.insert(flow.remaining.count, flow.id, slot);
  bucket.by_arrival.insert(flow.arrival.seconds, flow.id, slot);
  bucket.backlog += flow.remaining;
  mark_non_empty(idx);
  mark_dirty(idx);

  ingress_backlog_[static_cast<std::size_t>(flow.src)] += flow.remaining;
  egress_backlog_[static_cast<std::size_t>(flow.dst)] += flow.remaining;
  total_backlog_ += flow.remaining;
}

bool VoqMatrix::drain(FlowId id, Bytes amount) {
  const FlowSlot slot = store_.find(id);
  BASRPT_ASSERT(slot != kNoSlot, "draining unknown flow");
  return drain_slot(slot, amount);
}

bool VoqMatrix::drain_at(FlowSlot slot, Bytes amount) {
  BASRPT_ASSERT(store_.live(slot), "draining a stale slot");
  return drain_slot(slot, amount);
}

bool VoqMatrix::drain_slot(FlowSlot slot, Bytes amount) {
  BASRPT_ASSERT(amount.count >= 0, "cannot drain negative bytes");
  Flow& flow = store_.at(slot);
  const Bytes drained =
      amount.count >= flow.remaining.count ? flow.remaining : amount;
  if (drained.count == 0) {
    return false;
  }

  const std::size_t idx = index(flow.src, flow.dst);
  VoqBucket& bucket = voqs_[idx];
  const Bytes before = flow.remaining;

  store_.set_remaining(slot, before - drained);
  bucket.backlog -= drained;
  mark_dirty(idx);
  ingress_backlog_[static_cast<std::size_t>(flow.src)] -= drained;
  egress_backlog_[static_cast<std::size_t>(flow.dst)] -= drained;
  total_backlog_ -= drained;

  if (flow.done()) {
    bucket.by_remaining.erase(before.count, flow.id);
    bucket.by_arrival.erase(flow.arrival.seconds, flow.id);
    if (bucket.by_remaining.empty()) {
      mark_empty(idx);
    }
    store_.erase(slot);
    return true;
  }
  // A served flow is its VOQ's shortest, so its shrinking key usually
  // stays in place at the front.
  bucket.by_remaining.rekey(before.count, flow.remaining.count, flow.id,
                            slot);
  return false;
}

void VoqMatrix::remove(FlowId id) {
  const FlowSlot slot = store_.find(id);
  if (slot == kNoSlot) {
    return;
  }
  const Flow& flow = store_.at(slot);
  const std::size_t idx = index(flow.src, flow.dst);
  VoqBucket& bucket = voqs_[idx];
  bucket.backlog -= flow.remaining;
  ingress_backlog_[static_cast<std::size_t>(flow.src)] -= flow.remaining;
  egress_backlog_[static_cast<std::size_t>(flow.dst)] -= flow.remaining;
  total_backlog_ -= flow.remaining;
  mark_dirty(idx);
  bucket.by_remaining.erase(flow.remaining.count, flow.id);
  bucket.by_arrival.erase(flow.arrival.seconds, flow.id);
  if (bucket.by_remaining.empty()) {
    mark_empty(idx);
  }
  store_.erase(slot);
}

const Flow& VoqMatrix::flow(FlowId id) const {
  const FlowSlot slot = store_.find(id);
  BASRPT_ASSERT(slot != kNoSlot, "looking up unknown flow");
  return store_.at(slot);
}

Bytes VoqMatrix::backlog(PortId i, PortId j) const {
  return voqs_[index(i, j)].backlog;
}

std::size_t VoqMatrix::flow_count(PortId i, PortId j) const {
  return voqs_[index(i, j)].by_remaining.size();
}

Bytes VoqMatrix::ingress_backlog(PortId i) const {
  BASRPT_ASSERT(i >= 0 && i < n_ports_, "ingress port out of range");
  return ingress_backlog_[static_cast<std::size_t>(i)];
}

Bytes VoqMatrix::egress_backlog(PortId j) const {
  BASRPT_ASSERT(j >= 0 && j < n_ports_, "egress port out of range");
  return egress_backlog_[static_cast<std::size_t>(j)];
}

void VoqMatrix::for_each_flow(
    const std::function<void(const Flow&)>& fn) const {
  for (const std::size_t idx : non_empty_) {
    voqs_[idx].by_remaining.for_each(
        [&](const RemainingIndex::Entry& e) { fn(store_.at(e.slot)); });
  }
}

void VoqMatrix::for_each_non_empty_voq(
    const std::function<void(PortId, PortId)>& fn) const {
  for (const std::size_t idx : non_empty_) {
    fn(static_cast<PortId>(idx / static_cast<std::size_t>(n_ports_)),
       static_cast<PortId>(idx % static_cast<std::size_t>(n_ports_)));
  }
}

FlowId VoqMatrix::shortest_in_voq(PortId i, PortId j) const {
  const VoqBucket& bucket = voqs_[index(i, j)];
  return bucket.by_remaining.empty() ? kInvalidFlow
                                     : bucket.by_remaining.front().id;
}

FlowId VoqMatrix::oldest_in_voq(PortId i, PortId j) const {
  const VoqBucket& bucket = voqs_[index(i, j)];
  return bucket.by_arrival.empty() ? kInvalidFlow
                                   : bucket.by_arrival.front().id;
}

const VoqMatrix::RemainingIndex::Entry& VoqMatrix::shortest_entry(
    PortId i, PortId j) const {
  return voqs_[index(i, j)].by_remaining.front();
}

const VoqMatrix::ArrivalIndex::Entry& VoqMatrix::oldest_entry(
    PortId i, PortId j) const {
  return voqs_[index(i, j)].by_arrival.front();
}

std::vector<FlowId> VoqMatrix::voq_flow_ids(PortId i, PortId j) const {
  const VoqBucket& bucket = voqs_[index(i, j)];
  std::vector<FlowId> ids;
  ids.reserve(bucket.by_remaining.size());
  bucket.by_remaining.for_each(
      [&](const RemainingIndex::Entry& e) { ids.push_back(e.id); });
  return ids;
}

}  // namespace basrpt::queueing
