#include "core/gateway.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>

#include "core/agent_library.h"

namespace agilla::core {
namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream stream(line);
  std::string token;
  while (stream >> token) {
    tokens.push_back(token);
  }
  return tokens;
}

/// A finite number spanning the whole token (no nan, no inf).
bool parse_number(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size() && !text.empty() &&
         std::isfinite(*out);
}

/// A number whose truncation fits Int: the cast is undefined otherwise.
template <typename Int>
bool parse_integral(const std::string& text, Int* out) {
  double v = 0;
  if (!parse_number(text, &v) ||
      !(v > std::numeric_limits<Int>::min() - 1.0 &&
        v < std::numeric_limits<Int>::max() + 1.0)) {
    return false;
  }
  *out = static_cast<Int>(v);
  return true;
}

/// Parses one "kind:payload" field token into a value.
bool parse_field(const std::string& token, ts::Value* out,
                 std::string* error) {
  const auto colon = token.find(':');
  if (colon == std::string::npos) {
    *error = "field '" + token + "' needs kind:payload syntax";
    return false;
  }
  const std::string kind = token.substr(0, colon);
  const std::string payload = token.substr(colon + 1);
  if (kind == "num") {
    std::int16_t v = 0;
    if (!parse_integral(payload, &v)) {
      *error = "bad number '" + payload + "' (want int16)";
      return false;
    }
    *out = ts::Value::number(v);
    return true;
  }
  if (kind == "str") {
    if (payload.empty() || payload.size() > 3) {
      *error = "strings are 1..3 characters";
      return false;
    }
    *out = ts::Value::string(payload);
    return true;
  }
  if (kind == "loc") {
    const auto comma = payload.find(',');
    double x = 0;
    double y = 0;
    if (comma == std::string::npos ||
        !parse_number(payload.substr(0, comma), &x) ||
        !parse_number(payload.substr(comma + 1), &y)) {
      *error = "bad location '" + payload + "' (want loc:x,y)";
      return false;
    }
    *out = ts::Value::location({x, y});
    return true;
  }
  if (kind == "agent") {
    std::uint16_t v = 0;
    if (!parse_integral(payload, &v)) {
      *error = "bad agent id '" + payload + "' (want uint16)";
      return false;
    }
    *out = ts::Value::agent_id(v);
    return true;
  }
  if (kind == "reading") {
    const auto comma = payload.find(',');
    std::uint8_t sensor = 0;
    std::int16_t v = 0;
    if (comma == std::string::npos ||
        !parse_integral(payload.substr(0, comma), &sensor) ||
        sensor >= sim::kNumSensorTypes ||
        !parse_integral(payload.substr(comma + 1), &v)) {
      *error = "bad reading '" + payload + "' (want reading:sensor,value)";
      return false;
    }
    *out = ts::Value::reading(static_cast<sim::SensorType>(sensor), v);
    return true;
  }
  *error = "unknown field kind '" + kind + "'";
  return false;
}

bool parse_wildcard(const std::string& token, ts::Value* out) {
  if (token == "?num") {
    *out = ts::Value::type_wildcard(ts::ValueType::kNumber);
  } else if (token == "?str") {
    *out = ts::Value::type_wildcard(ts::ValueType::kString);
  } else if (token == "?loc") {
    *out = ts::Value::type_wildcard(ts::ValueType::kLocation);
  } else if (token == "?reading") {
    *out = ts::Value::type_wildcard(ts::ValueType::kReading);
  } else if (token == "?agent") {
    *out = ts::Value::type_wildcard(ts::ValueType::kAgentId);
  } else {
    return false;
  }
  return true;
}

std::string format_location(sim::Location loc) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "(%g,%g)", loc.x, loc.y);
  return buf;
}

const char kHelp[] =
    "commands:\n"
    "  inject agent <firedetector|firetracker|habitat|blinker|sentinel|"
    "pursuer> [x y]\n"
    "  inject asm <code, ';' separates lines>\n"
    "  inject at <x> <y> asm <code>\n"
    "  rout <x> <y> <fields>      fields: num:7 str:abc loc:1,2 "
    "agent:3 reading:0,42\n"
    "  rinp <x> <y> <template>    template adds wildcards: ?num ?str ?loc "
    "?reading ?agent\n"
    "  rrdp <x> <y> <template>\n"
    "  region <x> <y> <radius> <any|all> <fields>\n"
    "  subscribe <agent|tuple|node|frame|battery>\n"
    "  unsubscribe [<kind>]       no kind = drop every subscription\n"
    "  status\n"
    "  help";

/// One record as console text ("spawn t=.. node=.. agent=..", ...).
std::string format_record(const sim::Event& e) {
  const std::string t = "t=" + std::to_string(e.at);
  const std::string node = " node=" + std::to_string(e.node.value);
  std::string text;
  switch (e.kind) {
    case sim::EventKind::kAgentSpawn:
      text = "spawn " + t + node + " agent=" + std::to_string(e.agent) +
             (std::strcmp(e.reason, "migration") == 0 ? " migrated" : "");
      break;
    case sim::EventKind::kAgentKill:
      text = "kill " + t + node + " agent=" + std::to_string(e.agent) +
             " reason=" + e.reason;
      break;
    case sim::EventKind::kAgentMigrate:
      text = "migrate " + t + node + " agent=" + std::to_string(e.agent) +
             " dest=" + format_location(e.dest);
      break;
    case sim::EventKind::kTupleOp: {
      net::Reader reader(e.tuple_bytes());
      const std::optional<ts::Tuple> tuple = ts::Tuple::decode(reader);
      text = std::string(e.tuple_op == sim::TupleOp::kOut ? "out " : "inp ") +
             t + node + " " + (tuple ? tuple->to_string() : "<?>");
      break;
    }
    case sim::EventKind::kFrameTx:
      text = "tx " + t + " src=" + std::to_string(e.frame.src.value) +
             " dst=" + std::to_string(e.frame.dst.value) +
             " am=" + std::to_string(static_cast<int>(e.frame.am)) +
             " bytes=" + std::to_string(e.frame.payload_bytes);
      break;
    case sim::EventKind::kFrameRx:
      text = "rx " + t + " src=" + std::to_string(e.frame.src.value) +
             " rx=" + std::to_string(e.frame.receiver.value) +
             (e.frame.lost ? " lost" : "");
      break;
    case sim::EventKind::kNodeDown:
      text = "down " + t + node +
             (e.down == sim::NodeDownReason::kChurnCrash ? " reason=churn"
                                                         : " reason=battery");
      break;
    case sim::EventKind::kNodeUp:
      text = "up " + t + node;
      break;
    default:  // kBatterySettle
      text = "settle " + t;
      break;
  }
  return text;
}

/// A `subscribe` kind and the record kinds it streams (agent block/resume
/// and instruction records are not streamed to consoles).
struct ConsoleKind {
  const char* name;
  sim::EventKindMask kinds;
};

constexpr ConsoleKind kConsoleKinds[] = {
    {"agent", sim::mask_of(sim::EventKind::kAgentSpawn,
                           sim::EventKind::kAgentKill,
                           sim::EventKind::kAgentMigrate)},
    {"tuple", sim::mask_of(sim::EventKind::kTupleOp)},
    {"node", sim::mask_of(sim::EventKind::kNodeDown, sim::EventKind::kNodeUp)},
    {"frame", sim::mask_of(sim::EventKind::kFrameTx, sim::EventKind::kFrameRx)},
    {"battery", sim::mask_of(sim::EventKind::kBatterySettle)},
};

/// nullptr for a name `subscribe` does not accept.
const ConsoleKind* find_console_kind(const std::string& name) {
  for (const ConsoleKind& kind : kConsoleKinds) {
    if (name == kind.name) {
      return &kind;
    }
  }
  return nullptr;
}

/// The `subscribe` kind a streamed record belongs to.
const char* console_kind_name(sim::EventKind kind) {
  for (const ConsoleKind& entry : kConsoleKinds) {
    if ((entry.kinds & sim::mask_of(kind)) != 0) {
      return entry.name;
    }
  }
  return "";
}

}  // namespace

/// Bridges the api::EventBus onto the console's sinks: one observer per
/// console, subscribed to the bus for exactly the console's record kinds,
/// so the bus filters and an idle console costs nothing per record.
class GatewayConsole::BusBridge final : public api::Observer {
 public:
  explicit BusBridge(GatewayConsole& console) : console_(console) {}

  void on_event(const sim::Event& e) override {
    // The bus hands one record to every console's bridge in turn and the
    // text depends on the record alone, so format it once per record.
    thread_local sim::Event last;
    thread_local std::string text;
    if (text.empty() || !(last == e)) {
      text = format_record(e);
      last = e;
    }
    console_.deliver_event(console_kind_name(e.kind), text, e.at);
  }

 private:
  GatewayConsole& console_;
};

GatewayConsole::GatewayConsole(BaseStation& base)
    : base_(base), bridge_(std::make_unique<BusBridge>(*this)) {}

GatewayConsole::~GatewayConsole() {
  *alive_ = false;  // in-flight remote-op completions become no-ops
  if (bus_ != nullptr && subscriptions_ != 0) {
    bus_->unsubscribe(*bridge_);
  }
}

void GatewayConsole::attach_bus(api::EventBus& bus) {
  if (bus_ != nullptr && subscriptions_ != 0) {
    bus_->unsubscribe(*bridge_);
  }
  bus_ = &bus;
  bus_->subscribe(*bridge_, subscriptions_);
}

bool GatewayConsole::subscribed(const std::string& kind) const {
  const ConsoleKind* entry = find_console_kind(kind);
  return entry != nullptr && (subscriptions_ & entry->kinds) != 0;
}

std::size_t GatewayConsole::subscription_count() const {
  std::size_t count = 0;
  for (const ConsoleKind& kind : kConsoleKinds) {
    count += (subscriptions_ & kind.kinds) != 0 ? 1 : 0;
  }
  return count;
}

void GatewayConsole::deliver_async(std::uint64_t id, bool ok,
                                   const std::string& text) {
  // Completions run inside the gateway mote's events — on a shard worker
  // under sim_shards > 1 — so results join the bus records' serial order
  // (and the driving thread) through defer().
  // `text` is captured as a mutable copy: a deferred call must be
  // nothrow-movable (sim::EventCallback), and a const member would copy.
  base_.gateway().simulator().defer(
      [this, alive = std::weak_ptr<bool>(alive_), id, ok,
       text = std::string(text)] {
        const auto guard = alive.lock();
        if (guard == nullptr || !*guard) {
          return;
        }
        ++async_results_;
        if (async_sink_) {
          async_sink_(id, ok, text);
        }
      });
}

void GatewayConsole::deliver_event(const std::string& kind,
                                   const std::string& text,
                                   sim::SimTime at) {
  if (event_sink_) {
    event_sink_(kind, text, at);
  }
}

bool GatewayConsole::parse_tuple(const std::vector<std::string>& tokens,
                                 std::size_t first, ts::Tuple* out,
                                 std::string* error) {
  if (first >= tokens.size()) {
    *error = "no fields given";
    return false;
  }
  for (std::size_t i = first; i < tokens.size(); ++i) {
    ts::Value value;
    if (!parse_field(tokens[i], &value, error)) {
      return false;
    }
    if (!out->add(value)) {
      *error = "tuple exceeds the 25-byte wire budget";
      return false;
    }
  }
  return true;
}

bool GatewayConsole::parse_template(const std::vector<std::string>& tokens,
                                    std::size_t first, ts::Template* out,
                                    std::string* error) {
  if (first >= tokens.size()) {
    *error = "no fields given";
    return false;
  }
  for (std::size_t i = first; i < tokens.size(); ++i) {
    ts::Value value;
    if (!parse_wildcard(tokens[i], &value) &&
        !parse_field(tokens[i], &value, error)) {
      return false;
    }
    if (!out->add(value)) {
      *error = "template exceeds the 25-byte wire budget";
      return false;
    }
  }
  return true;
}

std::string GatewayConsole::cmd_inject(
    const std::vector<std::string>& tokens, const std::string& raw_line,
    std::uint64_t id) {
  if (tokens.size() < 2) {
    return "error: inject needs a mode (agent/asm/at)";
  }
  if (tokens[1] == "agent") {
    if (tokens.size() < 3) {
      return "error: inject agent needs a name";
    }
    const std::string& name = tokens[2];
    sim::Location where{1, 1};
    if (tokens.size() >= 5 && (!parse_number(tokens[3], &where.x) ||
                               !parse_number(tokens[4], &where.y))) {
      return "error: bad destination";
    }
    std::string source;
    if (name == "firedetector") {
      source = agents::fire_detector(where);
    } else if (name == "firetracker") {
      source = agents::fire_tracker();
    } else if (name == "habitat") {
      source = agents::habitat_monitor();
    } else if (name == "blinker") {
      source = agents::blinker();
    } else if (name == "sentinel") {
      source = agents::sentinel();
    } else if (name == "pursuer") {
      source = agents::pursuer();
    } else {
      return "error: unknown agent '" + name + "'";
    }
    const auto agent = base_.inject(source);
    if (!agent.has_value()) {
      return "error: injection failed (resources?)";
    }
    return "ok: injected " + name + " as agent#" +
           std::to_string(agent->value);
  }

  if (tokens[1] == "asm" || (tokens[1] == "at" && tokens.size() >= 5)) {
    const bool remote = tokens[1] == "at";
    sim::Location dest{0, 0};
    if (remote && (!parse_number(tokens[2], &dest.x) ||
                   !parse_number(tokens[3], &dest.y))) {
      return "error: bad destination";
    }
    const auto pos = raw_line.find("asm");
    if (pos == std::string::npos) {
      return "error: inject at <x> <y> asm <code>";
    }
    std::string code_text = raw_line.substr(pos + 3);
    std::replace(code_text.begin(), code_text.end(), ';', '\n');
    const AssemblyResult assembled = assemble(code_text);
    if (!assembled.ok()) {
      return "error: " + assembled.error_text();
    }
    if (remote) {
      base_.inject_at(
          assembled.code, dest,
          [this, alive = std::weak_ptr<bool>(alive_), dest, id](bool ok) {
            // The middleware can outlive this console (gateway session
            // closed with the hand-off in flight) — deliver only if alive.
            const auto guard = alive.lock();
            if (guard == nullptr || !*guard) {
              return;
            }
            deliver_async(id, ok,
                          "remote injection toward " +
                              format_location(dest) +
                              (ok ? " handed off" : " FAILED"));
          });
      return "ok: agent dispatched (cmd#" + std::to_string(id) + ")";
    }
    const auto agent = base_.inject_code(assembled.code);
    if (!agent.has_value()) {
      return "error: injection failed (resources?)";
    }
    return "ok: injected agent#" + std::to_string(agent->value);
  }
  return "error: inject needs a mode (agent/asm/at)";
}

std::string GatewayConsole::cmd_remote(
    const std::string& op, const std::vector<std::string>& tokens,
    std::uint64_t id) {
  if (tokens.size() < 4) {
    return "error: " + op + " <x> <y> <fields>";
  }
  sim::Location dest{0, 0};
  if (!parse_number(tokens[1], &dest.x) ||
      !parse_number(tokens[2], &dest.y)) {
    return "error: bad destination";
  }
  std::string error;
  auto completion = [this, alive = std::weak_ptr<bool>(alive_), op, id](
                        bool success, std::optional<ts::Tuple> t) {
    // The middleware can outlive this console (gateway session closed
    // with the remote op in flight) — deliver only if still alive.
    const auto guard = alive.lock();
    if (guard == nullptr || !*guard) {
      return;
    }
    if (!success) {
      deliver_async(id, false, op + " failed");
    } else if (t.has_value()) {
      deliver_async(id, true, op + " -> " + t->to_string());
    } else {
      deliver_async(id, true, op + " ok");
    }
  };
  if (op == "rout") {
    ts::Tuple tuple;
    if (!parse_tuple(tokens, 3, &tuple, &error)) {
      return "error: " + error;
    }
    base_.rout(dest, tuple, completion);
  } else {
    ts::Template templ;
    if (!parse_template(tokens, 3, &templ, &error)) {
      return "error: " + error;
    }
    if (op == "rinp") {
      base_.rinp(dest, templ, completion);
    } else {
      base_.rrdp(dest, templ, completion);
    }
  }
  return "ok: " + op + " dispatched (cmd#" + std::to_string(id) + ")";
}

std::string GatewayConsole::cmd_region(
    const std::vector<std::string>& tokens) {
  if (tokens.size() < 6) {
    return "error: region <x> <y> <radius> <any|all> <fields>";
  }
  sim::Location center{0, 0};
  double radius = 0;
  if (!parse_number(tokens[1], &center.x) ||
      !parse_number(tokens[2], &center.y) ||
      !parse_number(tokens[3], &radius)) {
    return "error: bad region geometry";
  }
  RegionMode mode;
  if (tokens[4] == "any") {
    mode = RegionMode::kAnyNode;
  } else if (tokens[4] == "all") {
    mode = RegionMode::kAllNodes;
  } else {
    return "error: mode must be any|all";
  }
  ts::Tuple tuple;
  std::string error;
  if (!parse_tuple(tokens, 5, &tuple, &error)) {
    return "error: " + error;
  }
  if (!base_.out_region(tuple, center, radius, mode)) {
    return "error: region tuple is " + std::to_string(tuple.wire_size()) +
           " bytes, over the " + std::to_string(RegionOps::kMaxTupleBytes) +
           "-byte region frame budget";
  }
  return "ok: region out dispatched";
}

std::string GatewayConsole::cmd_status() const {
  auto& gw = base_.gateway();
  std::ostringstream os;
  os << "gateway node " << gw.node_id() << " at (" << gw.location().x << ","
     << gw.location().y << "): " << gw.engine().agents().size()
     << "/" << gw.config().engine.max_agents << " agents, "
     << gw.tuple_space().store().tuple_count() << " tuples, "
     << gw.neighbors().size() << " neighbours; launched "
     << gw.engine().stats().agents_launched << ", migrations "
     << gw.engine().stats().migrations_started << ", remote ops "
     << gw.engine().stats().remote_ops;
  return os.str();
}

std::string GatewayConsole::cmd_subscribe(
    const std::vector<std::string>& tokens, bool subscribe) {
  if (bus_ == nullptr) {
    return "error: no event bus attached (subscriptions unavailable)";
  }
  if (!subscribe && tokens.size() < 2) {
    // Bare `unsubscribe` drops everything.
    subscriptions_ = 0;
    bus_->unsubscribe(*bridge_);
    return "ok: unsubscribed all";
  }
  if (tokens.size() < 2) {
    return "error: subscribe <agent|tuple|node|frame|battery>";
  }
  const std::string& kind = tokens[1];
  const ConsoleKind* entry = find_console_kind(kind);
  if (entry == nullptr) {
    return "error: unknown event kind '" + kind +
           "' (agent|tuple|node|frame|battery)";
  }
  const bool was_subscribed = (subscriptions_ & entry->kinds) != 0;
  if (subscribe && was_subscribed) {
    return "ok: already subscribed " + kind;
  }
  if (!subscribe && !was_subscribed) {
    return "error: not subscribed to '" + kind + "'";
  }
  subscriptions_ ^= entry->kinds;
  // In place: the bridge keeps its dispatch position while any kind stays
  // subscribed; an empty mask takes it off the bus.
  bus_->subscribe(*bridge_, subscriptions_);
  return (subscribe ? "ok: subscribed " : "ok: unsubscribed ") + kind;
}

std::string GatewayConsole::execute(const std::string& line) {
  return execute(line, ++next_id_);
}

std::string GatewayConsole::execute(const std::string& line,
                                    std::uint64_t id) {
  const auto tokens = tokenize(line);
  if (tokens.empty()) {
    return "";
  }
  const std::string& cmd = tokens[0];
  if (cmd == "help") {
    return kHelp;
  }
  if (cmd == "inject") {
    return cmd_inject(tokens, line, id);
  }
  if (cmd == "rout" || cmd == "rinp" || cmd == "rrdp") {
    return cmd_remote(cmd, tokens, id);
  }
  if (cmd == "region") {
    return cmd_region(tokens);
  }
  if (cmd == "status") {
    return cmd_status();
  }
  if (cmd == "subscribe" || cmd == "unsubscribe") {
    return cmd_subscribe(tokens, cmd == "subscribe");
  }
  return "error: unknown command '" + cmd + "' (try help)";
}

}  // namespace agilla::core
