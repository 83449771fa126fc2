#include "svc/session.h"

#include <cstdio>

namespace agilla::svc {

Session::Session(std::uint32_t id, std::uint64_t token,
                 core::BaseStation base, std::size_t queue_cap)
    : id_(id), token_(token), base_(base), console_(base_),
      queue_cap_(queue_cap) {}

std::string Session::token_hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(token_));
  return buf;
}

bool Session::enqueue(wire::Message message, bool droppable) {
  if (droppable && outbox_.size() >= queue_cap_) {
    ++events_dropped_;
    return false;
  }
  outbox_.push_back(std::move(message));
  return true;
}

}  // namespace agilla::svc
