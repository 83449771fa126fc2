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
    sim::EventKindMask wanted = 0;
    for (const Subscription& sub : observers_) {
      wanted |= sub.kinds;
    }
    source_->set_sink(this, wanted);
  }
}

void EventBus::subscribe(Observer& observer, sim::EventKindMask kinds) {
  if (kinds == 0) {
    unsubscribe(observer);
    return;
  }
  const auto it = std::find_if(
      observers_.begin(), observers_.end(),
      [&](const Subscription& sub) { return sub.observer == &observer; });
  if (it != observers_.end()) {
    it->kinds = kinds;
  } else {
    observers_.push_back(Subscription{&observer, kinds});
  }
  update_source();
}

void EventBus::unsubscribe(Observer& observer) {
  if (dispatch_depth_ > 0) {
    // Mid-dispatch: erasing would shift the vector under the index loop.
    // Null the slot (ending delivery to this observer immediately) and
    // compact when the outermost dispatch unwinds.
    for (Subscription& sub : observers_) {
      if (sub.observer == &observer) {
        sub = Subscription{nullptr, 0};
        pending_compact_ = true;
      }
    }
  } else {
    std::erase_if(observers_, [&](const Subscription& sub) {
      return sub.observer == &observer;
    });
  }
  update_source();
}

std::size_t EventBus::observer_count() const {
  return static_cast<std::size_t>(std::count_if(
      observers_.begin(), observers_.end(),
      [](const Subscription& sub) { return sub.observer != nullptr; }));
}

void EventBus::publish(const sim::Event& event) {
  const sim::EventKindMask kind = sim::mask_of(event.kind);
  ++dispatch_depth_;
  for (std::size_t i = 0; i < observers_.size(); ++i) {
    // A copy: a callback that subscribes may reallocate the vector.
    const Subscription sub = observers_[i];
    if ((sub.kinds & kind) != 0) {
      sub.observer->on_event(event);
    }
  }
  --dispatch_depth_;
  if (dispatch_depth_ == 0 && pending_compact_) {
    std::erase_if(observers_, [](const Subscription& sub) {
      return sub.observer == nullptr;
    });
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
    case sim::EventKind::kInsn:
    case sim::EventKind::kCount:
      break;
  }
}

}  // namespace agilla::api
