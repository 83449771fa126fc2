// The flat AM-type -> handler table behind LinkLayer and GeoRouter
// dispatch. A node registers a handful of handlers (eight on the link, three
// on the router), so a linear scan of one small vector (sim::SmallMap)
// beats hashing and costs one allocation for the whole table instead of a
// node per entry (DESIGN.md "Per-mote footprint").
#pragma once

#include <cassert>
#include <type_traits>
#include <utility>

#include "sim/small_map.h"
#include "sim/types.h"

namespace agilla::net {

template <typename Handler>
class AmTable {
 public:
  /// Registers the handler for `am`, replacing any earlier one. Must not
  /// run inside a handler of this table: growing (or replacing) the entry
  /// would move the callable that is executing.
  void set(sim::AmType am, Handler handler) {
    assert(!dispatching_ && "AM handler registered from inside a handler");
    handlers_[am] = std::move(handler);
  }

  /// Calls the handler for `am` with `args`. Returns false when no
  /// (non-empty) handler is registered; otherwise the handler's own bool
  /// result, or true for a void handler.
  template <typename... Args>
  bool dispatch(sim::AmType am, Args&&... args) {
    Handler* handler = handlers_.find(am);
    if (handler == nullptr || !*handler) {
      return false;
    }
    const bool outer = dispatching_;
    dispatching_ = true;
    bool result = true;
    if constexpr (std::is_void_v<std::invoke_result_t<Handler&, Args...>>) {
      (*handler)(std::forward<Args>(args)...);
    } else {
      result = (*handler)(std::forward<Args>(args)...);
    }
    dispatching_ = outer;
    return result;
  }

 private:
  sim::SmallMap<sim::AmType, Handler> handlers_;
  bool dispatching_ = false;  ///< a handler of this table is running
};

}  // namespace agilla::net
