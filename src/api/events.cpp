#include "api/events.h"

#include <algorithm>

namespace agilla::api {

EventBus::EventBus(sim::Simulator* source) : source_(source) {}

EventBus::~EventBus() {
  observers_.clear();
  update_source();
}

void EventBus::update_source() {
  if (source_ != nullptr) {
    source_->set_sink(observer_count() > 0 ? this : nullptr);
  }
}

void EventBus::subscribe(Observer& observer) {
  if (std::find(observers_.begin(), observers_.end(), &observer) ==
      observers_.end()) {
    observers_.push_back(&observer);
  }
  update_source();
}

void EventBus::unsubscribe(Observer& observer) {
  if (dispatch_depth_ > 0) {
    // Mid-dispatch: erasing would shift the vector under the index loop.
    // Null the slot (ending delivery to this observer immediately) and
    // compact when the outermost dispatch unwinds.
    for (Observer*& slot : observers_) {
      if (slot == &observer) {
        slot = nullptr;
        pending_compact_ = true;
      }
    }
  } else {
    std::erase(observers_, &observer);
  }
  update_source();
}

std::size_t EventBus::observer_count() const {
  return static_cast<std::size_t>(
      std::count_if(observers_.begin(), observers_.end(),
                    [](const Observer* o) { return o != nullptr; }));
}

void EventBus::publish(const sim::Event& event) {
  ++dispatch_depth_;
  for (std::size_t i = 0; i < observers_.size(); ++i) {
    if (Observer* observer = observers_[i]) {
      observer->on_event(event);
    }
  }
  --dispatch_depth_;
  if (dispatch_depth_ == 0 && pending_compact_) {
    std::erase(observers_, static_cast<Observer*>(nullptr));
    pending_compact_ = false;
  }
}

void EventCounter::on_event(const sim::Event& event) {
  switch (event.kind) {
    case sim::EventKind::kAgentSpawn:
      ++agent_spawns;
      break;
    case sim::EventKind::kAgentKill:
      ++agent_kills;
      break;
    case sim::EventKind::kAgentMigrate:
      ++agent_migrations;
      break;
    case sim::EventKind::kAgentBlock:
      ++agent_blocks;
      break;
    case sim::EventKind::kAgentResume:
      ++agent_resumes;
      break;
    case sim::EventKind::kTupleOp:
      ++tuple_ops;
      break;
    case sim::EventKind::kFrameTx:
      ++frames_tx;
      if (event.frame.am == sim::AmType::kBeacon) {
        ++beacons;
      }
      break;
    case sim::EventKind::kFrameRx:
      ++frames_rx;
      break;
    case sim::EventKind::kNodeDown:
      ++nodes_down;
      break;
    case sim::EventKind::kNodeUp:
      ++nodes_up;
      break;
    case sim::EventKind::kBatterySettle:
      ++battery_settles;
      break;
    case sim::EventKind::kCount:
      break;
  }
}

}  // namespace agilla::api
